type t = { chosen : Cuts.cut option array }

let make g selections =
  let chosen = Array.make (Ir.Cdfg.num_nodes g) None in
  List.iter
    (fun (v, (c : Cuts.cut)) ->
      if c.Cuts.root <> v then invalid_arg "Cover.make: root mismatch";
      if chosen.(v) <> None then invalid_arg "Cover.make: duplicate root";
      chosen.(v) <- Some c)
    selections;
  { chosen }

let all_trivial g (cuts : Cuts.t) =
  let chosen =
    Array.init (Ir.Cdfg.num_nodes g) (fun v ->
        (* index 0 is always the trivial cut *)
        Some cuts.(v).(0))
  in
  { chosen }

let is_root t v = t.chosen.(v) <> None
let chosen t v = t.chosen.(v)

let roots t =
  let acc = ref [] in
  Array.iteri (fun v c -> if c <> None then acc := v :: !acc) t.chosen;
  List.rev !acc

let lut_area t =
  Array.fold_left
    (fun acc c -> match c with None -> acc | Some c -> acc + c.Cuts.area)
    0 t.chosen

let validate g t =
  let fail fmt = Fmt.kstr (fun s -> Error s) fmt in
  let n = Ir.Cdfg.num_nodes g in
  if Array.length t.chosen <> n then fail "cover size mismatch"
  else
    let bad = ref None in
    let record e = if !bad = None then bad := Some e in
    (* Eq. 3: primary outputs are roots. *)
    List.iter
      (fun o ->
        if not (is_root t o) then
          record (Printf.sprintf "output %s is not a root" (Ir.Cdfg.node_name g o)))
      (Ir.Cdfg.outputs g);
    (* Eq. 4 and structural sanity per selected cut. *)
    Array.iteri
      (fun v c ->
        match c with
        | None -> ()
        | Some (c : Cuts.cut) ->
            List.iter
              (fun leaf ->
                if not (is_root t leaf) then
                  record
                    (Printf.sprintf "leaf %s of root %s is not a root"
                       (Ir.Cdfg.node_name g leaf) (Ir.Cdfg.node_name g v)))
              c.Cuts.leaves;
            Bitdep.Int_set.iter
              (fun w ->
                if w <> v then
                  match Ir.Cdfg.op g w with
                  | Ir.Op.Input _ | Ir.Op.Black_box _ ->
                      record
                        (Printf.sprintf "node %s absorbed into cone of %s"
                           (Ir.Cdfg.node_name g w) (Ir.Cdfg.node_name g v))
                  | _ -> ())
              c.Cuts.cone)
      t.chosen;
    (* Coverage: nodes reachable backward from outputs are covered. *)
    let covered = Array.make n false in
    Array.iter
      (fun c ->
        match c with
        | None -> ()
        | Some (c : Cuts.cut) ->
            Bitdep.Int_set.iter (fun w -> covered.(w) <- true) c.Cuts.cone)
      t.chosen;
    let live = Array.make n false in
    let rec mark v =
      if not live.(v) then begin
        live.(v) <- true;
        Array.iter (fun (e : Ir.Cdfg.edge) -> mark e.src) (Ir.Cdfg.preds g v)
      end
    in
    List.iter mark (Ir.Cdfg.outputs g);
    Array.iteri
      (fun v l ->
        if l && not covered.(v) then
          record (Printf.sprintf "node %s not covered" (Ir.Cdfg.node_name g v)))
      live;
    match !bad with None -> Ok () | Some e -> Error e

let iter_interior g t f =
  let owner = Array.make (Ir.Cdfg.num_nodes g) (-1) in
  Array.iteri
    (fun v c ->
      match c with
      | None -> ()
      | Some (c : Cuts.cut) ->
          Bitdep.Int_set.iter (fun w -> owner.(w) <- v) c.Cuts.cone)
    t.chosen;
  Array.iteri (fun v o -> if o >= 0 && not (is_root t v) then f v o) owner

let pp g ppf t =
  Fmt.pf ppf "@[<v>";
  Array.iter
    (fun c ->
      match c with
      | None -> ()
      | Some c -> Fmt.pf ppf "%a@," (Cuts.pp_cut g) c)
    t.chosen;
  Fmt.pf ppf "@]"
