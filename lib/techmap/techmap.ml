(* Instrumentation (lib/obs): cover statistics, additive only. *)
let c_covers = Obs.Counter.get "techmap.covers"
let c_lut_area = Obs.Counter.get "techmap.lut_area"
let c_absorbed = Obs.Counter.get "techmap.absorbed_nodes"
let c_truncated = Obs.Counter.get "techmap.deadline_truncations"

let required_roots g (sched : Sched.Schedule.t) =
  let n = Ir.Cdfg.num_nodes g in
  let req = Array.make n false in
  for v = 0 to n - 1 do
    (match Ir.Cdfg.op g v with
    | Ir.Op.Input _ | Ir.Op.Const _ | Ir.Op.Black_box _ -> req.(v) <- true
    | _ -> ());
    if Ir.Cdfg.is_output g v then req.(v) <- true;
    List.iter
      (fun (w, dist) ->
        if dist > 0 then req.(v) <- true
        else if sched.cycle.(w) <> sched.cycle.(v) then req.(v) <- true
        else
          match Ir.Cdfg.op g w with
          | Ir.Op.Black_box _ -> req.(v) <- true
          | _ -> ())
      (Ir.Cdfg.succs g v)
  done;
  req

let fanout g v = max 1 (List.length (Ir.Cdfg.succs g v))

(* A cut is stage-local when its whole cone sits in the root's cycle and
   absorbs no required node other than the root itself. *)
let stage_local (sched : Sched.Schedule.t) req (c : Cuts.cut) =
  Bitdep.Int_set.for_all
    (fun w ->
      sched.cycle.(w) = sched.cycle.(c.root) && (w = c.root || not req.(w)))
    c.Cuts.cone

let map_schedule ?(deadline = Resilience.Deadline.none) ?truncated ~device
    ~delays ~cuts g sched =
  Obs.span ~cat:"techmap" "techmap.map" @@ fun () ->
  ignore device;
  ignore delays;
  let n = Ir.Cdfg.num_nodes g in
  let req = required_roots g sched in
  (* Deadline degradation: once the budget runs out (or the techmap.timeout
     fault fires) the remaining nodes get their trivial cut — always
     stage-local for a single node, so the cover stays valid; only area
     optimality is lost. *)
  let degraded = ref false in
  let note_degraded () =
    if not !degraded then begin
      degraded := true;
      Obs.Counter.incr c_truncated;
      match truncated with Some r -> r := true | None -> ()
    end
  in
  if Resilience.Fault.fires "techmap.timeout" then note_degraded ();
  (* Area-flow labelling in topological order. *)
  let flow = Array.make n 0.0 in
  let best : Cuts.cut option array = Array.make n None in
  let leaf_flow u ~cycle =
    if req.(u) || sched.Sched.Schedule.cycle.(u) <> cycle then 0.0
    else flow.(u) /. float_of_int (fanout g u)
  in
  Obs.span ~cat:"techmap" "techmap.label" (fun () ->
  List.iter
    (fun v ->
      if (not !degraded) && Resilience.Deadline.expired deadline then
        note_degraded ();
      let candidates =
        if !degraded then [ cuts.(v).(0) ]
        else Array.to_list cuts.(v) |> List.filter (stage_local sched req)
      in
      let cost (c : Cuts.cut) =
        float_of_int c.Cuts.area
        +. List.fold_left
             (fun acc u ->
               acc +. leaf_flow u ~cycle:sched.Sched.Schedule.cycle.(v))
             0.0 c.Cuts.leaves
      in
      match candidates with
      | [] ->
          (* the trivial cut is always stage-local for a single node *)
          best.(v) <- Some cuts.(v).(0);
          flow.(v) <- float_of_int cuts.(v).(0).Cuts.area
      | _ ->
          let chosen =
            (* ties go to the deeper cone: fewer roots downstream *)
            List.fold_left
              (fun acc c ->
                match acc with
                | None -> Some (c, cost c)
                | Some (best, ca) ->
                    let cc = cost c in
                    if
                      cc < ca -. 1e-9
                      || (cc < ca +. 1e-9
                         && Bitdep.Int_set.cardinal c.Cuts.cone
                            > Bitdep.Int_set.cardinal best.Cuts.cone)
                    then Some (c, cc)
                    else acc)
              None candidates
          in
          (match chosen with
          | Some (c, cc) ->
              best.(v) <- Some c;
              flow.(v) <- cc
          | None -> assert false))
    (Ir.Cdfg.topo_order g));
  (* Extraction: cover required roots, then the leaves they expose. *)
  let chosen : Cuts.cut option array = Array.make n None in
  let stack = ref [] in
  for v = 0 to n - 1 do
    if req.(v) then stack := v :: !stack
  done;
  let rec drain () =
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        if chosen.(v) = None then begin
          let c =
            match best.(v) with
            | Some c -> c
            | None -> cuts.(v).(0)
          in
          chosen.(v) <- Some c;
          List.iter (fun u -> if chosen.(u) = None then stack := u :: !stack)
            c.Cuts.leaves
        end;
        drain ()
  in
  Obs.span ~cat:"techmap" "techmap.extract" drain;
  let selections =
    Array.to_list chosen
    |> List.mapi (fun v c -> (v, c))
    |> List.filter_map (fun (v, c) -> Option.map (fun c -> (v, c)) c)
  in
  Obs.Counter.incr c_covers;
  (* Counter accounting is bucketed per pipeline stage so each stage's
     covering work shows up as its own trace span; the counters are
     sums, so the totals are identical to a flat pass. *)
  let by_stage : (int, (int * Cuts.cut) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (v, c) ->
      let s = sched.Sched.Schedule.cycle.(v) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_stage s) in
      Hashtbl.replace by_stage s ((v, c) :: cur))
    selections;
  let stages =
    Hashtbl.fold (fun s _ acc -> s :: acc) by_stage [] |> List.sort compare
  in
  List.iter
    (fun s ->
      let sel = List.rev (Hashtbl.find by_stage s) in
      let c_stage = Obs.Counter.get (Printf.sprintf "techmap.stage%d.luts" s) in
      Obs.span ~cat:"techmap" "techmap.stage"
        ~args:
          [ ("stage", Obs.Json.Int s);
            ("cuts", Obs.Json.Int (List.length sel)) ]
        (fun () ->
          List.iter
            (fun (_, (c : Cuts.cut)) ->
              Obs.Counter.incr ~by:c.Cuts.area c_lut_area;
              Obs.Counter.incr
                ~by:(Bitdep.Int_set.cardinal c.Cuts.cone - 1)
                c_absorbed;
              Obs.Counter.incr ~by:c.Cuts.area c_stage)
            sel))
    stages;
  Sched.Cover.make g selections

type exact_reason = [ `Timeout | `Infeasible | `Unbounded ]
type exact_failure = { reason : exact_reason; stats : Lp.Milp.stats }

let exact_reason_to_string = function
  | `Timeout -> "timeout"
  | `Infeasible -> "infeasible"
  | `Unbounded -> "unbounded"

let pp_exact_failure ppf f =
  Fmt.pf ppf "exact mapping failed (%s): %a"
    (exact_reason_to_string f.reason)
    Lp.Milp.pp_stats f.stats

let map_exact ?(time_limit = 10.0) ~device ~delays ~cuts g sched =
  let n = Ir.Cdfg.num_nodes g in
  let req = required_roots g sched in
  let eligible =
    Array.init n (fun v ->
        Array.to_list cuts.(v) |> List.filter (stage_local sched req))
  in
  (* guarantee a fallback cut per node *)
  let eligible =
    Array.mapi
      (fun v cs -> if cs = [] then [ cuts.(v).(0) ] else cs)
      eligible
  in
  let model = Lp.Model.create ~name:"map-exact" () in
  let c_vars =
    Array.mapi
      (fun v cs ->
        List.mapi
          (fun i c ->
            (Lp.Model.bool_var model (lazy (Printf.sprintf "c_%d_%d" v i)), c))
          cs)
      eligible
  in
  let root_sum v = List.map (fun (x, _) -> (1.0, x)) c_vars.(v) in
  (* required nodes select exactly one cut; others at most one *)
  Array.iteri
    (fun v _ ->
      if req.(v) then Lp.Model.add_eq model (root_sum v) 1.0
      else Lp.Model.add_le model (root_sum v) 1.0)
    c_vars;
  (* Eq. 4: leaves of a selected cut are roots *)
  Array.iteri
    (fun _ sel ->
      List.iter
        (fun (x, (c : Cuts.cut)) ->
          List.iter
            (fun u ->
              if not req.(u) then
                Lp.Model.add_le model
                  ((1.0, x) :: List.map (fun (y, _) -> (-1.0, y)) c_vars.(u))
                  0.0)
            c.Cuts.leaves)
        sel)
    c_vars;
  let obj =
    Array.to_list c_vars
    |> List.concat_map
         (List.filter_map (fun (x, (c : Cuts.cut)) ->
              if c.Cuts.area > 0 then Some (float_of_int c.Cuts.area, x)
              else None))
  in
  Lp.Model.set_objective model obj;
  (* warm start from the area-flow cover *)
  let incumbent =
    let cover = map_schedule ~device ~delays ~cuts g sched in
    let x = Array.make (Lp.Model.num_vars model) 0.0 in
    let ok = ref true in
    Array.iteri
      (fun v sel ->
        match Sched.Cover.chosen cover v with
        | None -> ()
        | Some chosen -> (
            match
              List.find_opt
                (fun (_, (c : Cuts.cut)) -> c.Cuts.leaves = chosen.Cuts.leaves)
                sel
            with
            | Some (var, _) -> x.(Lp.Model.var_index var) <- 1.0
            | None -> ok := false))
      c_vars;
    if
      !ok
      && Lp.Model.check model ~values:(fun v -> x.(Lp.Model.var_index v)) ()
         = Ok ()
    then Some x
    else None
  in
  let r = Lp.Milp.solve ~time_limit ?incumbent model in
  match r.Lp.Milp.status with
  | Lp.Milp.Optimal | Lp.Milp.Feasible ->
      let selections = ref [] in
      Array.iteri
        (fun v sel ->
          ignore v;
          List.iter
            (fun (x, c) ->
              if Lp.Milp.int_value r x = 1 then
                selections := (c.Cuts.root, c) :: !selections)
            sel)
        c_vars;
      Ok (Sched.Cover.make g !selections)
  (* Satellite: never silently fall back — the caller learns *why* the
     exact cover is unavailable. Unknown means the budget expired before
     any incumbent existed, i.e. a timeout from the caller's viewpoint. *)
  | Lp.Milp.Unknown -> Error { reason = `Timeout; stats = r.Lp.Milp.stats }
  | Lp.Milp.Infeasible ->
      Error { reason = `Infeasible; stats = r.Lp.Milp.stats }
  | Lp.Milp.Unbounded ->
      Error { reason = `Unbounded; stats = r.Lp.Milp.stats }

let map_global ?deadline ?truncated ~device ~delays ~cuts g =
  let zero =
    Sched.Schedule.make ~ii:1
      ~cycle:(Array.make (Ir.Cdfg.num_nodes g) 0)
      ~start:(Array.make (Ir.Cdfg.num_nodes g) 0.0)
  in
  map_schedule ?deadline ?truncated ~device ~delays ~cuts g zero
