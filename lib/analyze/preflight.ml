let pass_name = "preflight"

type config = {
  device : Fpga.Device.t;
  delays : Fpga.Delays.t;
  resources : Fpga.Resource.budget;
  ii : int;
}

let check ?(strict_period = false) cfg g =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if cfg.ii < 1 then
    add
      (Diag.errorf ~code:"PRE001" ~pass:pass_name ~loc:Diag.Global
         "requested II %d is below 1" cfg.ii)
  else begin
    (* Black-box resource demand vs budget (ResMII, Eq. 14). *)
    let binding = ref None in
    List.iter
      (fun (r, used) ->
        match Fpga.Resource.limit cfg.resources r with
        | None -> ()
        | Some 0 ->
            add
              (Diag.errorf ~code:"PRE004" ~pass:pass_name ~loc:Diag.Global
                 ~witness:[ Printf.sprintf "%s: %d uses, 0 units" r used ]
                 "resource class %s has a zero budget but %d operations need \
                  it: no II is feasible"
                 r used)
        | Some lim ->
            let need = (used + lim - 1) / lim in
            (match !binding with
            | Some (_, _, _, best) when best >= need -> ()
            | _ -> binding := Some (r, used, lim, need)))
      (Sched.Heuristic.black_box_uses g);
    (match !binding with
    | Some (r, used, lim, need) when cfg.ii < need ->
        add
          (Diag.errorf ~code:"PRE002" ~pass:pass_name ~loc:Diag.Global
             ~witness:
               [ Printf.sprintf "%s: %d uses / %d units -> ResMII %d" r used lim need ]
             "requested II %d is below ResMII %d (binding resource class %s)"
             cfg.ii need r)
    | _ -> ());
    (* Recurrence feasibility (RecMII). *)
    if
      not
        (Sched.Heuristic.recurrence_feasible ~device:cfg.device
           ~delays:cfg.delays ~ii:cfg.ii g)
    then begin
      let rec_mii =
        Sched.Heuristic.rec_mii ~device:cfg.device ~delays:cfg.delays g
      in
      let cycle =
        Sched.Heuristic.recurrence_witness ~device:cfg.device
          ~delays:cfg.delays ~ii:cfg.ii g
      in
      let witness =
        match cycle with
        | None -> []
        | Some c -> List.map (Ir.Cdfg.node_name g) (c @ [ List.hd c ])
      in
      let head =
        match cycle with Some (v :: _) -> Diag.Node v | _ -> Diag.Global
      in
      add
        (Diag.errorf ~code:"PRE001" ~pass:pass_name ~loc:head ~witness
           "requested II %d is below RecMII %d: a dependence cycle cannot \
            close"
           cfg.ii rec_mii)
    end
  end;
  (* Clock-period sanity: slowest single-operation delay vs usable period. *)
  let period = Fpga.Device.usable_period cfg.device in
  let slowest = ref (-1, 0.0) in
  Ir.Cdfg.iter
    (fun nd ->
      let d = Sched.Heuristic.op_delay ~delays:cfg.delays g nd.id in
      if d > snd !slowest then slowest := (nd.id, d))
    g;
  let v, d = !slowest in
  if v >= 0 && d > period +. 1e-9 then begin
    let mk = if strict_period then Diag.errorf else Diag.warnf in
    add
      (mk ~code:"PRE003" ~pass:pass_name ~loc:(Diag.Node v)
         ~witness:
           [ Printf.sprintf "%s: %.3f ns > %.3f ns usable period"
               (Ir.Cdfg.node_name g v) d period ]
         "slowest single-op delay %.3f ns exceeds the usable clock period \
          %.3f ns%s"
         d period
         (if strict_period then "" else " (operation will be multi-cycled)"))
  end;
  List.rev !diags
