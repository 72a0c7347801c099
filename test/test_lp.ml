(* Tests for the LP/MILP solver substrate: hand-checked LPs, statuses,
   bound handling, and randomized cross-checks against brute force. *)

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let check_lp_obj name expected r =
  Alcotest.(check bool) (name ^ ": optimal") true (r.Lp.Simplex.status = Lp.Simplex.Optimal);
  if not (feq expected r.Lp.Simplex.objective) then
    Alcotest.failf "%s: objective %g, expected %g" name r.Lp.Simplex.objective
      expected

let solve_model m = Lp.Simplex.solve (Lp.Model.to_raw m)

let test_min_single () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m "x" in
  Lp.Model.add_ge m [ (1.0, x) ] 3.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  check_lp_obj "min x, x>=3" 3.0 (solve_model m)

let test_max_2d () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m "x" in
  let y = Lp.Model.add_var m "y" in
  Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 4.0;
  Lp.Model.add_le m [ (1.0, x) ] 2.0;
  Lp.Model.set_objective m [ (-1.0, x); (-1.0, y) ];
  check_lp_obj "max x+y" (-4.0) (solve_model m)

let test_equality () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:3.0 "x" in
  let y = Lp.Model.add_var m ~ub:3.0 "y" in
  Lp.Model.add_eq m [ (1.0, x); (1.0, y) ] 5.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let r = solve_model m in
  check_lp_obj "x+y=5 min x" 2.0 r;
  Alcotest.(check bool) "y at ub" true (feq 3.0 r.Lp.Simplex.x.(1))

let test_ge_rows () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m "x" in
  let y = Lp.Model.add_var m "y" in
  Lp.Model.add_ge m [ (1.0, x); (2.0, y) ] 4.0;
  Lp.Model.add_ge m [ (3.0, x); (1.0, y) ] 6.0;
  Lp.Model.set_objective m [ (1.0, x); (1.0, y) ];
  check_lp_obj "two >= rows" 2.8 (solve_model m)

let test_bound_flip () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:1.0 "x" in
  let y = Lp.Model.add_var m ~ub:1.0 "y" in
  Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 1.5;
  Lp.Model.set_objective m [ (-1.0, x); (-2.0, y) ];
  check_lp_obj "bound flip" (-2.5) (solve_model m)

let test_infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m "x" in
  Lp.Model.add_ge m [ (1.0, x) ] 5.0;
  Lp.Model.add_le m [ (1.0, x) ] 2.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let r = solve_model m in
  Alcotest.(check bool) "infeasible" true (r.Lp.Simplex.status = Lp.Simplex.Infeasible)

let test_unbounded () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m "x" in
  Lp.Model.set_objective m [ (-1.0, x) ];
  let r = solve_model m in
  Alcotest.(check bool) "unbounded" true (r.Lp.Simplex.status = Lp.Simplex.Unbounded)

let test_negative_lb () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:(-5.0) ~ub:5.0 "x" in
  Lp.Model.add_ge m [ (1.0, x) ] (-2.0);
  Lp.Model.set_objective m [ (1.0, x) ];
  check_lp_obj "negative lower bound" (-2.0) (solve_model m)

let test_free_via_shift () =
  (* min x + y with x in [-10,10], x + y = 1, y >= 0 -> x = -10? No:
     obj = x + y = 1 whenever the equality holds and y >= 0 needs x <= 1. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:(-10.0) ~ub:10.0 "x" in
  let y = Lp.Model.add_var m "y" in
  Lp.Model.add_eq m [ (1.0, x); (1.0, y) ] 1.0;
  Lp.Model.set_objective m [ (1.0, x); (1.0, y) ];
  check_lp_obj "objective along equality" 1.0 (solve_model m)

let test_degenerate () =
  (* Multiple constraints meeting at the optimum. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m "x" in
  let y = Lp.Model.add_var m "y" in
  Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 2.0;
  Lp.Model.add_le m [ (1.0, x) ] 1.0;
  Lp.Model.add_le m [ (1.0, y) ] 1.0;
  Lp.Model.add_le m [ (1.0, x); (-1.0, y) ] 0.0;
  Lp.Model.set_objective m [ (-1.0, x); (-1.0, y) ];
  check_lp_obj "degenerate vertex" (-2.0) (solve_model m)

let test_bound_overrides () =
  (* branch-and-bound tightens bounds without rebuilding the model *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:10.0 "x" in
  let y = Lp.Model.add_var m ~ub:10.0 "y" in
  Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 12.0;
  Lp.Model.set_objective m [ (-1.0, x); (-1.0, y) ];
  let raw = Lp.Model.to_raw m in
  let r = Lp.Simplex.solve raw in
  check_lp_obj "unrestricted" (-12.0) r;
  let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
  ub.(0) <- 3.0;
  lb.(1) <- 5.0;
  let r = Lp.Simplex.solve ~lb ~ub raw in
  check_lp_obj "with overrides" (-12.0) r;
  Alcotest.(check bool) "x at its tightened ub" true (r.Lp.Simplex.x.(0) <= 3.0 +. 1e-9);
  Alcotest.(check bool) "y above its tightened lb" true (r.Lp.Simplex.x.(1) >= 5.0 -. 1e-9);
  (* crossing overrides make it infeasible *)
  lb.(0) <- 4.0;
  let r = Lp.Simplex.solve ~lb ~ub raw in
  Alcotest.(check bool) "crossed bounds infeasible" true
    (r.Lp.Simplex.status = Lp.Simplex.Infeasible)

let test_fixed_variables () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:10.0 "x" in
  let y = Lp.Model.add_var m ~ub:10.0 "y" in
  Lp.Model.fix m x 4.0;
  Lp.Model.add_ge m [ (1.0, x); (1.0, y) ] 6.0;
  Lp.Model.set_objective m [ (1.0, y) ];
  let r = solve_model m in
  check_lp_obj "fixed var honored" 2.0 r;
  Alcotest.(check (float 1e-6)) "x stays fixed" 4.0 r.Lp.Simplex.x.(0)

let test_highly_degenerate () =
  (* many redundant constraints through the same vertex: exercises the
     anti-cycling path *)
  let m = Lp.Model.create () in
  let xs = List.init 6 (fun i -> Lp.Model.add_var m ~ub:1.0 (Printf.sprintf "x%d" i)) in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y -> if i < j then Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 1.0)
        xs)
    xs;
  Lp.Model.add_le m (List.map (fun x -> (1.0, x)) xs) 1.0;
  Lp.Model.set_objective m (List.map (fun x -> (-1.0, x)) xs);
  check_lp_obj "degenerate polytope" (-1.0) (solve_model m)

let test_milp_time_limit_returns_feasible () =
  (* a painful MILP with a tiny budget still returns its warm start *)
  let m = Lp.Model.create () in
  let n = 18 in
  let xs = List.init n (fun i -> Lp.Model.bool_var m (Printf.sprintf "b%d" i)) in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          if i < j && (i + j) mod 3 = 0 then
            Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 1.0)
        xs)
    xs;
  Lp.Model.set_objective m
    (List.mapi (fun i x -> (-1.0 -. (0.01 *. float_of_int i), x)) xs);
  let incumbent = Array.make n 0.0 in
  let r = Lp.Milp.solve ~time_limit:0.05 ~incumbent m in
  Alcotest.(check bool) "feasible or optimal" true
    (match r.Lp.Milp.status with
    | Lp.Milp.Optimal | Lp.Milp.Feasible -> true
    | _ -> false);
  Alcotest.(check bool) "no worse than warm start" true
    (r.Lp.Milp.objective <= 1e-9)

(* --- randomized LP checks ------------------------------------------- *)

let random_lp_gen =
  QCheck.Gen.(
    let coef = map (fun i -> float_of_int (i - 5)) (int_bound 10) in
    let* n = int_range 1 4 in
    let* m = int_range 1 4 in
    let* obj = list_repeat n coef in
    let* rows = list_repeat m (list_repeat n coef) in
    let* rhs = list_repeat m (map (fun i -> float_of_int i) (int_bound 12)) in
    return (n, obj, rows, rhs))

let build_random_lp (n, obj, rows, rhs) =
  let m = Lp.Model.create () in
  let xs = List.init n (fun i -> Lp.Model.add_var m ~ub:5.0 (Printf.sprintf "x%d" i)) in
  List.iter2
    (fun row b ->
      let terms = List.map2 (fun c x -> (c, x)) row xs in
      Lp.Model.add_le m terms b)
    rows rhs;
  Lp.Model.set_objective m (List.map2 (fun c x -> (c, x)) obj xs);
  (m, xs)

(* Optimal LP value must not beat any feasible grid point, and the returned
   point must itself be feasible. *)
let lp_never_beaten_by_grid =
  QCheck.Test.make ~name:"lp optimum <= every feasible grid point" ~count:200
    (QCheck.make random_lp_gen) (fun ((n, obj, rows, rhs) as spec) ->
      let model, _ = build_random_lp spec in
      let r = solve_model model in
      match r.Lp.Simplex.status with
      | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded
      | Lp.Simplex.Iteration_limit | Lp.Simplex.Time_limit ->
          true (* box-bounded with x=0 feasible or not; nothing to check *)
      | Lp.Simplex.Optimal ->
          let feasible pt =
            List.for_all2
              (fun row b ->
                List.fold_left2 (fun acc c v -> acc +. (c *. v)) 0.0 row pt
                <= b +. 1e-9)
              rows rhs
          in
          let objective pt =
            List.fold_left2 (fun acc c v -> acc +. (c *. v)) 0.0 obj pt
          in
          (* check returned point is feasible *)
          let x = Array.to_list r.Lp.Simplex.x in
          let ret_ok =
            feasible x
            && List.for_all (fun v -> v >= -1e-6 && v <= 5.0 +. 1e-6) x
          in
          (* enumerate grid points {0, 2.5, 5}^n *)
          let levels = [ 0.0; 2.5; 5.0 ] in
          let rec grid k acc =
            if k = 0 then [ acc ]
            else
              List.concat_map (fun v -> grid (k - 1) (v :: acc)) levels
          in
          let pts = grid n [] in
          ret_ok
          && List.for_all
               (fun pt ->
                 (not (feasible pt))
                 || r.Lp.Simplex.objective <= objective pt +. 1e-5)
               pts)

(* --- MILP ------------------------------------------------------------ *)

let test_knapsack () =
  let values = [| 10.0; 13.0; 7.0; 8.0 |] in
  let weights = [| 5.0; 6.0; 3.0; 4.0 |] in
  let cap = 10.0 in
  let m = Lp.Model.create () in
  let xs = Array.mapi (fun i _ -> Lp.Model.bool_var m (Printf.sprintf "x%d" i)) values in
  Lp.Model.add_le m (Array.to_list (Array.mapi (fun i x -> (weights.(i), x)) xs)) cap;
  Lp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (-.values.(i), x)) xs));
  let r = Lp.Milp.solve ~time_limit:10.0 m in
  Alcotest.(check bool) "optimal" true (r.Lp.Milp.status = Lp.Milp.Optimal);
  (* best: items 1 and 3 (13 + 8, weight 10) = 21 *)
  if not (feq (-21.0) r.Lp.Milp.objective) then
    Alcotest.failf "knapsack objective %g" r.Lp.Milp.objective

let test_milp_integer_general () =
  (* min 3x + 4y, 2x + y >= 5, x + 3y >= 7, x y integer >= 0.
     Optimal integer: try x=2,y=2: 2*2+2=6>=5, 2+6=8>=7 obj 14.
     x=1,y=3: 2+3=5, 1+9=10, obj 15. x=3,y=2: obj 17. x=2,y=2 -> 14.
     x=4,y=1: 9>=5, 7>=7 obj 16. So 14. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~integer:true ~ub:10.0 "x" in
  let y = Lp.Model.add_var m ~integer:true ~ub:10.0 "y" in
  Lp.Model.add_ge m [ (2.0, x); (1.0, y) ] 5.0;
  Lp.Model.add_ge m [ (1.0, x); (3.0, y) ] 7.0;
  Lp.Model.set_objective m [ (3.0, x); (4.0, y) ];
  let r = Lp.Milp.solve ~time_limit:10.0 m in
  Alcotest.(check bool) "optimal" true (r.Lp.Milp.status = Lp.Milp.Optimal);
  if not (feq 14.0 r.Lp.Milp.objective) then
    Alcotest.failf "objective %g expected 14" r.Lp.Milp.objective

let test_milp_infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m "x" in
  let y = Lp.Model.bool_var m "y" in
  Lp.Model.add_ge m [ (1.0, x); (1.0, y) ] 3.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let r = Lp.Milp.solve ~time_limit:10.0 m in
  Alcotest.(check bool) "infeasible" true (r.Lp.Milp.status = Lp.Milp.Infeasible)

let test_milp_incumbent () =
  (* Warm start with the known optimum; solver must not return worse. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m "x" in
  let y = Lp.Model.bool_var m "y" in
  Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 1.0;
  Lp.Model.set_objective m [ (-2.0, x); (-1.0, y) ];
  let r = Lp.Milp.solve ~incumbent:[| 1.0; 0.0 |] ~time_limit:10.0 m in
  if not (feq (-2.0) r.Lp.Milp.objective) then
    Alcotest.failf "objective %g expected -2" r.Lp.Milp.objective

let test_milp_bad_incumbent () =
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m "x" in
  Lp.Model.add_le m [ (1.0, x) ] 0.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  Alcotest.check_raises "rejects infeasible incumbent"
    (Invalid_argument "Milp.solve: infeasible incumbent: row0: 1 > 0")
    (fun () -> ignore (Lp.Milp.solve ~incumbent:[| 1.0 |] m))

let test_objective_constant () =
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m "x" in
  Lp.Model.set_objective m ~constant:10.0 [ (1.0, x) ];
  let r = Lp.Milp.solve ~time_limit:5.0 m in
  if not (feq 10.0 r.Lp.Milp.objective) then
    Alcotest.failf "objective %g expected 10" r.Lp.Milp.objective

(* Brute-force cross-check of random binary MILPs. *)
let milp_matches_brute_force =
  let gen =
    QCheck.Gen.(
      let coef = map (fun i -> float_of_int (i - 4)) (int_bound 8) in
      let* n = int_range 1 6 in
      let* m = int_range 1 3 in
      let* obj = list_repeat n coef in
      let* rows = list_repeat m (list_repeat n coef) in
      let* rhs = list_repeat m (map float_of_int (int_bound 6)) in
      return (n, obj, rows, rhs))
  in
  QCheck.Test.make ~name:"binary MILP matches brute force" ~count:120
    (QCheck.make gen) (fun (n, obj, rows, rhs) ->
      let m = Lp.Model.create () in
      let xs = List.init n (fun i -> Lp.Model.bool_var m (Printf.sprintf "b%d" i)) in
      List.iter2
        (fun row b -> Lp.Model.add_le m (List.map2 (fun c x -> (c, x)) row xs) b)
        rows rhs;
      Lp.Model.set_objective m (List.map2 (fun c x -> (c, x)) obj xs);
      let r = Lp.Milp.solve ~time_limit:20.0 m in
      (* brute force *)
      let best = ref infinity in
      for mask = 0 to (1 lsl n) - 1 do
        let pt = List.init n (fun i -> if mask land (1 lsl i) <> 0 then 1.0 else 0.0) in
        let feasible =
          List.for_all2
            (fun row b ->
              List.fold_left2 (fun acc c v -> acc +. (c *. v)) 0.0 row pt
              <= b +. 1e-9)
            rows rhs
        in
        if feasible then
          best :=
            Float.min !best
              (List.fold_left2 (fun acc c v -> acc +. (c *. v)) 0.0 obj pt)
      done;
      match r.Lp.Milp.status with
      | Lp.Milp.Optimal -> feq ~eps:1e-5 !best r.Lp.Milp.objective
      | Lp.Milp.Infeasible -> Float.is_integer !best = false || !best = infinity
      | Lp.Milp.Feasible | Lp.Milp.Unbounded | Lp.Milp.Unknown -> false)

(* --- warm restarts (Simplex.resolve) --------------------------------- *)

let status_name = function
  | Lp.Simplex.Optimal -> "optimal"
  | Lp.Simplex.Infeasible -> "infeasible"
  | Lp.Simplex.Unbounded -> "unbounded"
  | Lp.Simplex.Iteration_limit -> "iteration-limit"
  | Lp.Simplex.Time_limit -> "time-limit"

(* min -x - y  s.t.  x + y <= 4, x <= 2; root optimum -4 at (2, 2). *)
let resolve_fixture () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m "x" in
  let y = Lp.Model.add_var m "y" in
  Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 4.0;
  Lp.Model.add_le m [ (1.0, x) ] 2.0;
  Lp.Model.set_objective m [ (-1.0, x); (-1.0, y) ];
  let raw = Lp.Model.to_raw m in
  let r, st = Lp.Simplex.solve_state raw in
  check_lp_obj "fixture root" (-4.0) r;
  (raw, st)

let test_resolve_warm_tighten () =
  let raw, st = resolve_fixture () in
  let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
  ub.(1) <- 1.0;
  let r = Lp.Simplex.resolve ~lb ~ub st in
  check_lp_obj "resolve y<=1" (-3.0) r;
  Alcotest.(check bool) "warm path" true (Lp.Simplex.last_resolve_warm st);
  (* back to the original bounds: must return to the root optimum *)
  let r = Lp.Simplex.resolve ~lb ~ub:raw.Lp.Model.ub st in
  check_lp_obj "resolve relaxed back" (-4.0) r;
  (* branch-and-bound threads the same warm path through its node LPs *)
  let values = [| 10.0; 13.0; 7.0; 8.0 |] in
  let weights = [| 5.0; 6.0; 3.0; 4.0 |] in
  let m = Lp.Model.create () in
  let xs =
    Array.mapi (fun i _ -> Lp.Model.bool_var m (Printf.sprintf "x%d" i)) values
  in
  Lp.Model.add_le m
    (Array.to_list (Array.mapi (fun i x -> (weights.(i), x)) xs))
    10.0;
  Lp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (-.values.(i), x)) xs));
  let warm = Lp.Milp.solve ~time_limit:10.0 m in
  Alcotest.(check bool) "warm optimal" true
    (warm.Lp.Milp.status = Lp.Milp.Optimal);
  Alcotest.(check bool) "warm path reuses the basis" true
    (warm.Lp.Milp.stats.Lp.Milp.warm_hits > 0)

let test_resolve_infeasible () =
  let raw, st = resolve_fixture () in
  let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
  (* constraint-infeasible: x >= 3 crosses the row x <= 2 *)
  lb.(0) <- 3.0;
  let r = Lp.Simplex.resolve ~lb ~ub st in
  Alcotest.(check string) "dual repair proves infeasible" "infeasible"
    (status_name r.Lp.Simplex.status);
  (* crossed box: lb > ub is rejected without touching the basis *)
  let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
  lb.(1) <- 2.0;
  ub.(1) <- 1.0;
  let r = Lp.Simplex.resolve ~lb ~ub st in
  Alcotest.(check string) "crossed box" "infeasible"
    (status_name r.Lp.Simplex.status);
  (* the state is still warm: the original bounds solve again *)
  let r = Lp.Simplex.resolve ~lb:raw.Lp.Model.lb ~ub:raw.Lp.Model.ub st in
  check_lp_obj "recovers after infeasible" (-4.0) r

let test_resolve_deadline () =
  let raw, st = resolve_fixture () in
  let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
  ub.(1) <- 1.0;
  let deadline = Resilience.Deadline.of_budget 0.0 in
  let r = Lp.Simplex.resolve ~deadline ~lb ~ub st in
  Alcotest.(check string) "expired deadline" "time-limit"
    (status_name r.Lp.Simplex.status);
  (* a later resolve without the deadline completes normally *)
  let r = Lp.Simplex.resolve ~lb ~ub st in
  check_lp_obj "recovers after expiry" (-3.0) r

let test_resolve_fault () =
  let raw, st = resolve_fixture () in
  let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
  ub.(1) <- 1.0;
  (match Resilience.Fault.arm "simplex.cycle" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm: %s" e);
  Fun.protect ~finally:Resilience.Fault.clear (fun () ->
      let r = Lp.Simplex.resolve ~lb ~ub st in
      Alcotest.(check string) "injected cycle" "iteration-limit"
        (status_name r.Lp.Simplex.status));
  let r = Lp.Simplex.resolve ~lb ~ub st in
  check_lp_obj "recovers after fault" (-3.0) r

let test_resolve_refactor_parity () =
  (* Cross the periodic-refactorization boundary: 300 resolves over the
     same pair of bounds must keep agreeing with the cold answers. *)
  let raw, st = resolve_fixture () in
  let lb = raw.Lp.Model.lb and ub = raw.Lp.Model.ub in
  let tub = Array.copy ub in
  tub.(1) <- 1.0;
  for i = 1 to 300 do
    let u = if i mod 2 = 1 then tub else ub in
    let r = Lp.Simplex.resolve ~lb ~ub:u st in
    let expect = if i mod 2 = 1 then -3.0 else -4.0 in
    if not (feq expect r.Lp.Simplex.objective) then
      Alcotest.failf "resolve %d: objective %g expected %g" i
        r.Lp.Simplex.objective expect
  done

(* Property: a warm resolve is indistinguishable from a cold solve — same
   status, objective within 1e-6 — across chains of random monotone bound
   tightenings (the only kind branch-and-bound produces), including
   tightenings that cross the box (lb > ub) or cut off the feasible
   region entirely. *)
let resolve_equals_cold_solve =
  let gen =
    QCheck.Gen.(
      let* spec = random_lp_gen in
      let n, _, _, _ = spec in
      let step =
        let* j = int_bound (n - 1) in
        let* side = bool in
        let* v = map (fun i -> 0.5 *. float_of_int i) (int_bound 11) in
        return (j, side, v)
      in
      let* steps = list_size (int_range 1 4) step in
      return (spec, steps))
  in
  QCheck.Test.make ~name:"resolve = cold solve under bound tightenings"
    ~count:120 (QCheck.make gen) (fun (spec, steps) ->
      let model, _ = build_random_lp spec in
      let raw = Lp.Model.to_raw model in
      let _, st = Lp.Simplex.solve_state raw in
      let lb = Array.copy raw.Lp.Model.lb
      and ub = Array.copy raw.Lp.Model.ub in
      List.for_all
        (fun (j, side, v) ->
          (* monotone tightening, as in branch-and-bound *)
          if side then lb.(j) <- Float.max lb.(j) v
          else ub.(j) <- Float.min ub.(j) v;
          let rw = Lp.Simplex.resolve ~lb ~ub st in
          let rc = Lp.Simplex.solve ~lb ~ub raw in
          rw.Lp.Simplex.status = rc.Lp.Simplex.status
          && (rw.Lp.Simplex.status <> Lp.Simplex.Optimal
             || feq rw.Lp.Simplex.objective rc.Lp.Simplex.objective))
        steps)

(* --- root presolve, cut separation, warm row appends ------------------ *)

let test_presolve_tighten () =
  (* 2x + 2y <= 1 forces both binaries to 0; z >= 1 forces z to 1; the
     one-hot a + b + c = 1 with a pinned then fixes b and c to 0 in the
     same fixpoint (clique-style fixing through activity propagation). *)
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m "x" in
  let y = Lp.Model.bool_var m "y" in
  let z = Lp.Model.bool_var m "z" in
  let a = Lp.Model.bool_var m "a" in
  let b = Lp.Model.bool_var m "b" in
  let c = Lp.Model.bool_var m "c" in
  Lp.Model.add_le m [ (2.0, x); (2.0, y) ] 1.0;
  Lp.Model.add_ge m [ (1.0, z) ] 1.0;
  Lp.Model.add_eq m [ (1.0, a); (1.0, b); (1.0, c) ] 1.0;
  Lp.Model.add_ge m [ (1.0, a) ] 1.0;
  Lp.Model.set_objective m
    [ (1.0, x); (1.0, y); (1.0, z); (1.0, a); (1.0, b); (1.0, c) ];
  let raw = Lp.Model.to_raw m in
  let lb, ub, evs = Lp.Presolve.tighten raw in
  Alcotest.(check bool) "events emitted" true (evs <> []);
  Alcotest.(check (float 0.0)) "x fixed to 0" 0.0 ub.(0);
  Alcotest.(check (float 0.0)) "y fixed to 0" 0.0 ub.(1);
  Alcotest.(check (float 0.0)) "z fixed to 1" 1.0 lb.(2);
  Alcotest.(check (float 0.0)) "a fixed to 1" 1.0 lb.(3);
  Alcotest.(check (float 0.0)) "b fixed to 0" 0.0 ub.(4);
  Alcotest.(check (float 0.0)) "c fixed to 0" 0.0 ub.(5);
  (* the emitted log replays clean under the audit's CERT111 check: a
     certified solve of the same model must come back clean *)
  let m2 = Lp.Model.create () in
  let xs = Array.init 6 (fun i -> Lp.Model.bool_var m2 (Printf.sprintf "v%d" i)) in
  Lp.Model.add_le m2 [ (2.0, xs.(0)); (2.0, xs.(1)) ] 1.0;
  Lp.Model.add_ge m2 [ (1.0, xs.(2)) ] 1.0;
  Lp.Model.add_eq m2 [ (1.0, xs.(3)); (1.0, xs.(4)); (1.0, xs.(5)) ] 1.0;
  Lp.Model.add_ge m2 [ (1.0, xs.(3)) ] 1.0;
  Lp.Model.set_objective m2 (Array.to_list (Array.map (fun x -> (1.0, x)) xs));
  let raw2 = Lp.Model.to_raw m2 in
  let r = Lp.Milp.solve ~time_limit:10.0 ~certificates:true m2 in
  Alcotest.(check bool) "solve optimal" true (r.Lp.Milp.status = Lp.Milp.Optimal);
  match r.Lp.Milp.cert with
  | None -> Alcotest.fail "no certificate"
  | Some cert ->
      Alcotest.(check bool) "presolve events in certificate" true
        (cert.Lp.Cert.presolve <> []);
      let diags = Analyze.Audit.check raw2 cert in
      if Analyze.Diag.has_errors diags then
        Alcotest.failf "tighten log failed CERT111 replay:@.%a"
          Analyze.Diag.pp_report
          (Analyze.Diag.errors diags)

(* Every feasible integer point of [raw] (binaries enumerated over the
   box) must satisfy every cut: separation may only remove fractional
   volume. *)
let check_cuts_exclude_no_integer_point raw (cuts : Lp.Cert.cut list) =
  let n = raw.Lp.Model.n in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> float_of_int ((mask lsr j) land 1)) in
    let feasible =
      Array.for_all
        (fun i ->
          let a = ref 0.0 in
          Array.iter (fun (j, cf) -> a := !a +. (cf *. x.(j))) raw.Lp.Model.rows.(i);
          match raw.Lp.Model.senses.(i) with
          | Lp.Model.Le -> !a <= raw.Lp.Model.rhs.(i) +. 1e-9
          | Lp.Model.Ge -> !a >= raw.Lp.Model.rhs.(i) -. 1e-9
          | Lp.Model.Eq -> Float.abs (!a -. raw.Lp.Model.rhs.(i)) <= 1e-9)
        (Array.init (Array.length raw.Lp.Model.rows) Fun.id)
      && Array.for_all
           (fun j -> x.(j) >= raw.Lp.Model.lb.(j) -. 1e-9 && x.(j) <= raw.Lp.Model.ub.(j) +. 1e-9)
           (Array.init n Fun.id)
    in
    if feasible then
      List.iteri
        (fun k (c : Lp.Cert.cut) ->
          let lhs = ref 0.0 in
          Array.iter (fun (j, cf) -> lhs := !lhs +. (cf *. x.(j))) c.Lp.Cert.cut_terms;
          if !lhs > c.Lp.Cert.cut_rhs +. 1e-9 then
            Alcotest.failf "cut %d excludes feasible point (lhs %g > rhs %g)"
              k !lhs c.Lp.Cert.cut_rhs)
        cuts
  done

let test_cutgen_cg () =
  (* max x + y over 2x + 2y <= 3, x y binary: the LP vertex is
     fractional and the CG round over the tableau row yields the cut
     x + y <= 1, which closes the integrality gap at the root. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m "x" in
  let y = Lp.Model.bool_var m "y" in
  Lp.Model.add_le m [ (2.0, x); (2.0, y) ] 3.0;
  Lp.Model.set_objective m [ (-1.0, x); (-1.0, y) ];
  let raw = Lp.Model.to_raw m in
  let r, st = Lp.Simplex.solve_state raw in
  Alcotest.(check bool) "LP optimal" true (r.Lp.Simplex.status = Lp.Simplex.Optimal);
  let frac =
    Array.exists (fun v -> Float.abs (v -. Float.round v) > 1e-6) r.Lp.Simplex.x
  in
  Alcotest.(check bool) "LP vertex fractional" true frac;
  let cuts =
    Lp.Cutgen.cg_cuts raw ~lb:raw.Lp.Model.lb ~ub:raw.Lp.Model.ub
      ~x:r.Lp.Simplex.x ~int_tol:1e-6
      ~multipliers:(Lp.Simplex.tableau_multipliers st)
  in
  Alcotest.(check bool) "a CG cut separates" true (cuts <> []);
  List.iter
    (fun (c : Lp.Cert.cut) ->
      (match c.Lp.Cert.cut_deriv with
      | Lp.Cert.Cg _ -> ()
      | _ -> Alcotest.fail "expected a Cg derivation");
      (* the returned cut is violated at the LP point *)
      let lhs = ref 0.0 in
      Array.iter
        (fun (j, cf) -> lhs := !lhs +. (cf *. r.Lp.Simplex.x.(j)))
        c.Lp.Cert.cut_terms;
      Alcotest.(check bool) "violated at the LP vertex" true
        (!lhs > c.Lp.Cert.cut_rhs +. 1e-6))
    cuts;
  check_cuts_exclude_no_integer_point raw cuts

let test_cutgen_cover () =
  (* 3x + 3y + 3z <= 5: any two binaries over-cover, so the fractional
     point (0.9, 0.8, 0.1) separates the cover cut x + y <= 1. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m "x" in
  let y = Lp.Model.bool_var m "y" in
  let z = Lp.Model.bool_var m "z" in
  Lp.Model.add_le m [ (3.0, x); (3.0, y); (3.0, z) ] 5.0;
  Lp.Model.set_objective m [ (-1.0, x); (-1.0, y); (-1.0, z) ];
  let raw = Lp.Model.to_raw m in
  let cuts =
    Lp.Cutgen.cover_cuts raw ~n_rows:(Array.length raw.Lp.Model.rows)
      ~lb:raw.Lp.Model.lb ~ub:raw.Lp.Model.ub ~x:[| 0.9; 0.8; 0.1 |]
  in
  Alcotest.(check bool) "a cover cut separates" true (cuts <> []);
  List.iter
    (fun (c : Lp.Cert.cut) ->
      match c.Lp.Cert.cut_deriv with
      | Lp.Cert.Cover _ -> ()
      | _ -> Alcotest.fail "expected a Cover derivation")
    cuts;
  check_cuts_exclude_no_integer_point raw cuts

let test_cut_pool () =
  let pool = Lp.Cutgen.create ~capacity:8 ~max_age:2 () in
  let cut rhs : Lp.Cert.cut =
    {
      Lp.Cert.cut_terms = [| (0, 1.0); (1, 1.0) |];
      cut_rhs = rhs;
      cut_deriv = Lp.Cert.Cg [| (0, 0.5) |];
    }
  in
  Lp.Cutgen.offer pool (cut 1.0);
  Lp.Cutgen.offer pool (cut 1.0);
  (* duplicate by normalized hash *)
  Alcotest.(check int) "duplicate offers collapse" 1 (Lp.Cutgen.pending pool);
  Lp.Cutgen.offer pool (cut 2.0);
  Alcotest.(check int) "distinct rhs kept" 2 (Lp.Cutgen.pending pool);
  (* x = (1.5, 0.5): the rhs-1 cut is violated (2 > 1), the rhs-2 cut
     is satisfied and must not be activated *)
  let chosen = Lp.Cutgen.select pool ~x:[| 1.5; 0.5 |] ~max_cuts:4 in
  Alcotest.(check int) "only the violated cut activates" 1 (List.length chosen);
  Alcotest.(check (float 0.0)) "most violated first" 1.0
    (List.hd chosen).Lp.Cert.cut_rhs;
  Alcotest.(check int) "applied counted" 1 (Lp.Cutgen.applied pool);
  (* an activated cut is never handed out twice *)
  let again = Lp.Cutgen.select pool ~x:[| 1.5; 0.5 |] ~max_cuts:4 in
  Alcotest.(check int) "no re-activation" 0 (List.length again);
  (* the satisfied candidate ages out after max_age idle rounds *)
  ignore (Lp.Cutgen.select pool ~x:[| 0.0; 0.0 |] ~max_cuts:4);
  ignore (Lp.Cutgen.select pool ~x:[| 0.0; 0.0 |] ~max_cuts:4);
  Alcotest.(check int) "aged out" 0 (Lp.Cutgen.pending pool)

let test_add_rows_warm () =
  (* append a violated cut row to a solved state: the next resolve must
     repair it on the warm path, and the duals must cover the new row *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:2.0 "x" in
  let y = Lp.Model.add_var m ~ub:2.0 "y" in
  Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 3.0;
  Lp.Model.set_objective m [ (-1.0, x); (-1.0, y) ];
  let raw = Lp.Model.to_raw m in
  let r, st = Lp.Simplex.solve_state raw in
  check_lp_obj "before the cut" (-3.0) r;
  Lp.Simplex.add_rows st [| ([| (0, 1.0); (1, 1.0) |], 1.0) |];
  let r = Lp.Simplex.resolve ~lb:raw.Lp.Model.lb ~ub:raw.Lp.Model.ub st in
  check_lp_obj "cut binds" (-1.0) r;
  Alcotest.(check bool) "warm dual repair" true (Lp.Simplex.last_resolve_warm st);
  (match Lp.Simplex.duals st with
  | Some d -> Alcotest.(check int) "duals cover the added row" 2 (Array.length d)
  | None -> Alcotest.fail "no duals after resolve")

let test_milp_cuts_ab_parity () =
  (* cuts on vs off: identical status and objective (results-invisible),
     on the general-integer model that actually branches *)
  let build () =
    let m = Lp.Model.create () in
    let x = Lp.Model.add_var m ~integer:true ~ub:10.0 "x" in
    let y = Lp.Model.add_var m ~integer:true ~ub:10.0 "y" in
    let z = Lp.Model.add_var m ~integer:true ~ub:10.0 "z" in
    Lp.Model.add_le m [ (2.0, x); (3.0, y); (1.0, z) ] 12.0;
    Lp.Model.add_ge m [ (1.0, x); (1.0, y) ] 2.0;
    Lp.Model.set_objective m [ (-3.0, x); (-5.0, y); (-1.0, z) ];
    m
  in
  let off = Lp.Milp.solve ~time_limit:10.0 ~cuts:false (build ()) in
  let on = Lp.Milp.solve ~time_limit:10.0 ~cuts:true (build ()) in
  Alcotest.(check bool) "off optimal" true (off.Lp.Milp.status = Lp.Milp.Optimal);
  Alcotest.(check bool) "on optimal" true (on.Lp.Milp.status = Lp.Milp.Optimal);
  if not (feq off.Lp.Milp.objective on.Lp.Milp.objective) then
    Alcotest.failf "cuts changed the objective: %g vs %g"
      on.Lp.Milp.objective off.Lp.Milp.objective

let qsuite name tests = (name, List.map (fun t -> QCheck_alcotest.to_alcotest t) tests)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "min single" `Quick test_min_single;
          Alcotest.test_case "max 2d" `Quick test_max_2d;
          Alcotest.test_case "equality" `Quick test_equality;
          Alcotest.test_case "ge rows" `Quick test_ge_rows;
          Alcotest.test_case "bound flip" `Quick test_bound_flip;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "negative lb" `Quick test_negative_lb;
          Alcotest.test_case "equality objective" `Quick test_free_via_shift;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "bound overrides" `Quick test_bound_overrides;
          Alcotest.test_case "fixed variables" `Quick test_fixed_variables;
          Alcotest.test_case "highly degenerate" `Quick test_highly_degenerate;
        ] );
      ( "milp",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "integer general" `Quick test_milp_integer_general;
          Alcotest.test_case "infeasible" `Quick test_milp_infeasible;
          Alcotest.test_case "incumbent" `Quick test_milp_incumbent;
          Alcotest.test_case "bad incumbent" `Quick test_milp_bad_incumbent;
          Alcotest.test_case "objective constant" `Quick test_objective_constant;
          Alcotest.test_case "time limit keeps incumbent" `Quick
            test_milp_time_limit_returns_feasible;
        ] );
      ( "resolve",
        [
          Alcotest.test_case "warm tighten" `Quick test_resolve_warm_tighten;
          Alcotest.test_case "infeasible paths" `Quick test_resolve_infeasible;
          Alcotest.test_case "deadline expiry" `Quick test_resolve_deadline;
          Alcotest.test_case "fault injection" `Quick test_resolve_fault;
          Alcotest.test_case "refactor parity" `Quick
            test_resolve_refactor_parity;
        ] );
      ( "presolve-cuts",
        [
          Alcotest.test_case "presolve tighten" `Quick test_presolve_tighten;
          Alcotest.test_case "cg separation" `Quick test_cutgen_cg;
          Alcotest.test_case "cover separation" `Quick test_cutgen_cover;
          Alcotest.test_case "cut pool" `Quick test_cut_pool;
          Alcotest.test_case "add_rows warm" `Quick test_add_rows_warm;
          Alcotest.test_case "cuts A/B parity" `Quick test_milp_cuts_ab_parity;
        ] );
      qsuite "lp-random" [ lp_never_beaten_by_grid ];
      qsuite "milp-random" [ milp_matches_brute_force ];
      qsuite "resolve-random" [ resolve_equals_cold_solve ];
    ]
