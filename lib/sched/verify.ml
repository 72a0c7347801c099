type context = {
  device : Fpga.Device.t;
  delays : Fpga.Delays.t;
  resources : Fpga.Resource.budget;
}

let eps = 1e-6

let check ctx g cover (sched : Schedule.t) =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  let name = Ir.Cdfg.node_name g in
  let period = Fpga.Device.usable_period ctx.device in
  let delay = Timing.node_delay ~device:ctx.device ~delays:ctx.delays g cover in
  let latency = Timing.node_latency ~device:ctx.device ~delays:ctx.delays g cover in
  (match Cover.validate g cover with
  | Ok () -> ()
  | Error e -> err "[Eq. 2-4] cover: %s" e);
  let n = Ir.Cdfg.num_nodes g in
  if Array.length sched.cycle <> n then err "schedule size mismatch"
  else begin
    (* Eq. 8: cycle-time fit; multi-cycle roots start at the boundary. *)
    for v = 0 to n - 1 do
      if Cover.is_root cover v then
        if latency v = 0 then begin
          let fin = sched.start.(v) +. delay v in
          if fin > period +. eps then
            err "[Eq. 8] %s: finish %.3f exceeds period %.3f" (name v) fin period
        end
        else if sched.start.(v) > eps then
          err "[Eq. 8] %s: multi-cycle op starts mid-cycle (%.3f)" (name v)
            sched.start.(v)
    done;
    (* Interior nodes carry no physical timing of their own: every selected
       cone is a single LUT level (K-feasibility), so the only timing that
       matters is the arrival of cone inputs at the root's start — checked
       below. *)
    (* Dependences into every selected cone (and black boxes). *)
    Array.iteri
      (fun v c ->
        match c with
        | None -> ()
        | Some (cut : Cuts.cut) ->
            Cuts.iter_inputs g cut (fun w e ->
                let u = e.src in
                let avail = sched.cycle.(u) + latency u in
                let uc = sched.cycle.(v) + (sched.ii * e.dist) in
                if e.dist > 0 then begin
                  if avail >= uc then
                    err
                      "[Eq. 7] registered edge %s->%s: produced cycle %d, \
                       used cycle %d (same-cycle read through register)"
                      (name u) (name w) avail uc
                end
                else if avail > uc then
                  err "[Eq. 7] %s->%s: produced cycle %d after use cycle %d"
                    (name u) (name w) avail uc
                else if avail = uc then begin
                  let arr =
                    if latency u >= 1 then
                      Float.max 0.0
                        (delay u -. (float_of_int (latency u) *. period))
                    else sched.start.(u) +. delay u
                  in
                  if arr > sched.start.(v) +. eps then
                    err "[Eq. 9] %s->%s: chained arrival %.3f after start %.3f"
                      (name u) (name w) arr sched.start.(v)
                end))
      cover.Cover.chosen;
    (* Eq. 14: modulo resource limits for black boxes. *)
    let counts = Hashtbl.create 8 in
    for v = 0 to n - 1 do
      match Ir.Cdfg.op g v with
      | Ir.Op.Black_box { resource; _ } ->
          let key = (resource, Schedule.phase sched v) in
          Hashtbl.replace counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
      | _ -> ()
    done;
    Hashtbl.iter
      (fun (r, phase) used ->
        match Fpga.Resource.limit ctx.resources r with
        | Some lim when used > lim ->
            err "[Eq. 14] resource %s: %d used in phase %d, limit %d" r used phase lim
        | Some _ | None -> ())
      counts
  end;
  match !errs with [] -> Ok () | l -> Error (List.rev l)

let check_exn ctx g cover sched =
  match check ctx g cover sched with
  | Ok () -> ()
  | Error errs -> failwith (String.concat "; " errs)
