let solves = ref 0
let pivots = ref 0
let lp_stats () = (!solves, !pivots)

(* Longest combinational (dist-0) path delay between every ancestor/node
   pair, endpoint delays included — the source of chaining constraints. *)
let path_delays ~delays g =
  let n = Ir.Cdfg.num_nodes g in
  let maps : (int, float) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 8)
  in
  let d = Heuristic.op_delay ~delays g in
  List.iter
    (fun v ->
      let mv = maps.(v) in
      Hashtbl.replace mv v (d v);
      Array.iter
        (fun (e : Ir.Cdfg.edge) ->
          if e.dist = 0 then
            Hashtbl.iter
              (fun a w ->
                let cand = w +. d v in
                match Hashtbl.find_opt mv a with
                | Some w' when w' >= cand -> ()
                | Some _ | None -> Hashtbl.replace mv a cand)
              maps.(e.src))
        (Ir.Cdfg.preds g v))
    (Ir.Cdfg.topo_order g);
  maps

(* ASAP start times within the assigned cycles, additive delay model. *)
let starts_of ~device ~delays g cycle =
  let n = Ir.Cdfg.num_nodes g in
  let period = Fpga.Device.usable_period device in
  let start = Array.make n 0.0 in
  let d = Heuristic.op_delay ~delays g in
  let lat = Heuristic.op_latency ~device ~delays g in
  List.iter
    (fun v ->
      let arr =
        Array.fold_left
          (fun acc (e : Ir.Cdfg.edge) ->
            if e.dist = 0 && cycle.(e.src) + lat e.src = cycle.(v) then
              let residual = d e.src -. (float_of_int (lat e.src) *. period) in
              Float.max acc (start.(e.src) +. Float.max 0.0 residual)
            else acc)
          0.0 (Ir.Cdfg.preds g v)
      in
      start.(v) <- arr)
    (Ir.Cdfg.topo_order g);
  start

let schedule ~device ~delays ~resources ~ii g =
  if ii < 1 then invalid_arg "Sdc.schedule: ii < 1";
  let n = Ir.Cdfg.num_nodes g in
  let period = Fpga.Device.usable_period device in
  let horizon = float_of_int (4 * (n + 16)) in
  let lat = Heuristic.op_latency ~device ~delays g in
  (* ResMII gate: at an infeasible II, ordering constraints cannot help. *)
  if Heuristic.res_mii ~resources g > ii then
    Error
      (Heuristic.Resource_infeasible
         (Printf.sprintf "black-box demand exceeds capacity at II=%d" ii))
  else begin
    let model = Lp.Model.create ~name:"sdc" () in
    let s =
      Array.init n (fun v ->
          Lp.Model.add_var model ~lb:0.0 ~ub:horizon
            (lazy (Printf.sprintf "S_%s" (Ir.Cdfg.node_name g v))))
    in
    let is_const v =
      match Ir.Cdfg.op g v with Ir.Op.Const _ -> true | _ -> false
    in
    let reg =
      Array.init n (fun v ->
          if is_const v then None
          else
            Some
              (Lp.Model.add_var model ~lb:0.0 ~ub:horizon
                 (lazy (Printf.sprintf "reg_%s" (Ir.Cdfg.node_name g v)))))
    in
    (* dependence / registered-edge difference constraints *)
    Ir.Cdfg.iter
      (fun nd ->
        Array.iter
          (fun (e : Ir.Cdfg.edge) ->
            let rhs =
              if e.dist = 0 then float_of_int (lat e.src)
              else float_of_int (lat e.src + 1 - (ii * e.dist))
            in
            Lp.Model.add_ge model
              [ (1.0, s.(nd.id)); (-1.0, s.(e.src)) ]
              rhs;
            (* lifetime of the producer's value *)
            match reg.(e.src) with
            | None -> ()
            | Some r ->
                Lp.Model.add_ge model
                  [ (1.0, r); (-1.0, s.(nd.id)); (1.0, s.(e.src)) ]
                  (float_of_int ((ii * e.dist) - lat e.src)))
          nd.preds)
      g;
    (* chaining constraints from long combinational paths *)
    let paths = path_delays ~delays g in
    for v = 0 to n - 1 do
      Hashtbl.iter
        (fun a w ->
          if a <> v then begin
            let bound =
              int_of_float (Float.ceil ((w /. period) -. 1e-9)) - 1
            in
            if bound >= 1 then
              Lp.Model.add_ge model
                [ (1.0, s.(v)); (-1.0, s.(a)) ]
                (float_of_int bound)
          end)
        paths.(v)
    done;
    (* inputs anchored at cycle 0 *)
    List.iter (fun v -> Lp.Model.fix model s.(v) 0.0) (Ir.Cdfg.inputs g);
    (* objective: register bits, with a small schedule-compactness term *)
    let obj = ref [] in
    let tie = 0.4 /. (horizon *. float_of_int (n + 1)) in
    for v = 0 to n - 1 do
      obj := (tie, s.(v)) :: !obj;
      match reg.(v) with
      | Some r -> obj := (float_of_int (Ir.Cdfg.width g v), r) :: !obj
      | None -> ()
    done;
    Lp.Model.set_objective model !obj;
    (* iterative modulo-resource conflict resolution (FPL'14 style) *)
    let bb_nodes =
      Ir.Cdfg.fold
        (fun nd acc ->
          match nd.op with
          | Ir.Op.Black_box { resource; _ } -> (nd.id, resource) :: acc
          | _ -> acc)
        g []
    in
    let rec attempt round =
      if round > 50 then
        Error (Heuristic.Resource_infeasible "SDC conflict resolution diverged")
      else begin
        incr solves;
        let r = Lp.Simplex.solve (Lp.Model.to_raw model) in
        pivots := !pivots + r.Lp.Simplex.iterations;
        match r.Lp.Simplex.status with
        | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded
        | Lp.Simplex.Iteration_limit | Lp.Simplex.Time_limit ->
            Error
              (Heuristic.Recurrence_too_tight
                 (Printf.sprintf "SDC LP unsolvable at II=%d" ii))
        | Lp.Simplex.Optimal ->
            (* total unimodularity: flooring preserves every difference
               constraint with integral right-hand side *)
            let cycle =
              Array.init n (fun v ->
                  int_of_float (Float.floor (r.Lp.Simplex.x.(v) +. 1e-6)))
            in
            (* detect a modulo resource conflict *)
            let usage = Hashtbl.create 8 in
            let conflict = ref None in
            List.iter
              (fun (v, res) ->
                match Fpga.Resource.limit resources res with
                | None -> ()
                | Some lim ->
                    let key = (res, cycle.(v) mod ii) in
                    let users =
                      v :: Option.value ~default:[] (Hashtbl.find_opt usage key)
                    in
                    Hashtbl.replace usage key users;
                    if List.length users > lim && !conflict = None then
                      conflict := Some users)
              (List.sort compare bb_nodes);
            (match !conflict with
            | Some (a :: b :: _) ->
                (* push one of the clashing operations a cycle later *)
                Lp.Model.add_ge model
                  [ (1.0, s.(a)); (-1.0, s.(b)) ]
                  1.0;
                attempt (round + 1)
            | Some _ | None ->
                let start = starts_of ~device ~delays g cycle in
                Ok (Schedule.shift_to_zero (Schedule.make ~ii ~cycle ~start)))
      end
    in
    attempt 0
  end
