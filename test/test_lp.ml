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
  let x = Lp.Model.add_var m (lazy "x") in
  Lp.Model.add_ge m [ (1.0, x) ] 3.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  check_lp_obj "min x, x>=3" 3.0 (solve_model m)

let test_max_2d () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  let y = Lp.Model.add_var m (lazy "y") in
  Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 4.0;
  Lp.Model.add_le m [ (1.0, x) ] 2.0;
  Lp.Model.set_objective m [ (-1.0, x); (-1.0, y) ];
  check_lp_obj "max x+y" (-4.0) (solve_model m)

let test_equality () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:3.0 (lazy "x") in
  let y = Lp.Model.add_var m ~ub:3.0 (lazy "y") in
  Lp.Model.add_eq m [ (1.0, x); (1.0, y) ] 5.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let r = solve_model m in
  check_lp_obj "x+y=5 min x" 2.0 r;
  Alcotest.(check bool) "y at ub" true (feq 3.0 r.Lp.Simplex.x.(1))

let test_ge_rows () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  let y = Lp.Model.add_var m (lazy "y") in
  Lp.Model.add_ge m [ (1.0, x); (2.0, y) ] 4.0;
  Lp.Model.add_ge m [ (3.0, x); (1.0, y) ] 6.0;
  Lp.Model.set_objective m [ (1.0, x); (1.0, y) ];
  check_lp_obj "two >= rows" 2.8 (solve_model m)

let test_bound_flip () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:1.0 (lazy "x") in
  let y = Lp.Model.add_var m ~ub:1.0 (lazy "y") in
  Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 1.5;
  Lp.Model.set_objective m [ (-1.0, x); (-2.0, y) ];
  check_lp_obj "bound flip" (-2.5) (solve_model m)

let test_infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  Lp.Model.add_ge m [ (1.0, x) ] 5.0;
  Lp.Model.add_le m [ (1.0, x) ] 2.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let r = solve_model m in
  Alcotest.(check bool) "infeasible" true (r.Lp.Simplex.status = Lp.Simplex.Infeasible)

let test_unbounded () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  Lp.Model.set_objective m [ (-1.0, x) ];
  let r = solve_model m in
  Alcotest.(check bool) "unbounded" true (r.Lp.Simplex.status = Lp.Simplex.Unbounded)

let test_negative_lb () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:(-5.0) ~ub:5.0 (lazy "x") in
  Lp.Model.add_ge m [ (1.0, x) ] (-2.0);
  Lp.Model.set_objective m [ (1.0, x) ];
  check_lp_obj "negative lower bound" (-2.0) (solve_model m)

let test_free_via_shift () =
  (* min x + y with x in [-10,10], x + y = 1, y >= 0 -> x = -10? No:
     obj = x + y = 1 whenever the equality holds and y >= 0 needs x <= 1. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:(-10.0) ~ub:10.0 (lazy "x") in
  let y = Lp.Model.add_var m (lazy "y") in
  Lp.Model.add_eq m [ (1.0, x); (1.0, y) ] 1.0;
  Lp.Model.set_objective m [ (1.0, x); (1.0, y) ];
  check_lp_obj "objective along equality" 1.0 (solve_model m)

let test_degenerate () =
  (* Multiple constraints meeting at the optimum. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  let y = Lp.Model.add_var m (lazy "y") in
  Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 2.0;
  Lp.Model.add_le m [ (1.0, x) ] 1.0;
  Lp.Model.add_le m [ (1.0, y) ] 1.0;
  Lp.Model.add_le m [ (1.0, x); (-1.0, y) ] 0.0;
  Lp.Model.set_objective m [ (-1.0, x); (-1.0, y) ];
  check_lp_obj "degenerate vertex" (-2.0) (solve_model m)

let test_bound_overrides () =
  (* branch-and-bound tightens bounds without rebuilding the model *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:10.0 (lazy "x") in
  let y = Lp.Model.add_var m ~ub:10.0 (lazy "y") in
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
  let x = Lp.Model.add_var m ~ub:10.0 (lazy "x") in
  let y = Lp.Model.add_var m ~ub:10.0 (lazy "y") in
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
  let xs = List.init 6 (fun i -> Lp.Model.add_var m ~ub:1.0 (lazy (Printf.sprintf "x%d" i))) in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y -> if i < j then Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 1.0)
        xs)
    xs;
  Lp.Model.add_le m (List.map (fun x -> (1.0, x)) xs) 1.0;
  Lp.Model.set_objective m (List.map (fun x -> (-1.0, x)) xs);
  check_lp_obj "degenerate polytope" (-1.0) (solve_model m)

(* Two LPs on which the dual simplex cycles from the slack basis when it
   leaves on the most violated row and breaks ratio ties on pivot size:
   every cost is 0 where it matters, so every dual pivot is degenerate.
   The first is feasible (all costs 0), the second infeasible. Both must
   terminate: by the switch to Bland's rule within the default pivot
   cap, and under a cap too small for that switch by the second run from
   the slack basis under Bland's rule. *)
let cycling_dual_lps =
  let open Lp.Model in
  let feasible =
    {
      n = 6;
      lb = Array.make 6 0.0;
      ub = Array.make 6 infinity;
      integer = Array.make 6 false;
      obj = Array.make 6 0.0;
      rows =
        [|
          [| (0, 8.); (1, -0.25); (2, 8.); (3, 1.); (4, 20.); (5, 3.) |];
          [| (0, -12.); (1, -1.); (2, -9.); (4, -1.); (5, 0.25) |];
          [| (0, -8.); (1, 1.); (2, -0.25); (3, 9.); (4, 6.); (5, -9.) |];
          [| (0, 0.5); (1, 3.); (2, 0.25); (3, -12.); (4, 20.); (5, 6.) |];
          [| (0, 0.5); (1, 8.); (2, -12.); (3, 0.5); (4, 3.); (5, -0.25) |];
          [| (0, -0.25); (1, -12.); (2, 0.5); (3, 0.25); (4, 0.5); (5, -12.) |];
          [| (0, -3.); (1, -12.); (2, -9.); (3, 6.); (4, -12.); (5, 0.5) |];
        |];
      senses = [| Eq; Ge; Ge; Eq; Ge; Le; Ge |];
      rhs = [| 3.; 0.; -9.; 0.; -8.; 8.; 0. |];
    }
  in
  let infeasible =
    {
      n = 7;
      lb = Array.make 7 0.0;
      ub = [| 1.; infinity; infinity; 1.; infinity; infinity; infinity |];
      integer = Array.make 7 false;
      obj = [| 0.; 0.; 0.; 1.; 0.; 0.; 0. |];
      rows =
        [|
          [| (0, -12.); (1, 0.25); (2, -0.5); (5, 0.5); (6, -0.25) |];
          [| (1, -3.); (2, 20.); (3, -9.); (5, -3.); (6, 9.) |];
          [| (0, -0.5); (1, -8.); (2, -8.); (3, 1.); (4, 0.25); (5, -8.);
             (6, -12.) |];
          [| (0, -9.); (1, 20.); (2, 0.25); (3, -12.); (5, -0.5); (6, 3.) |];
          [| (0, 0.5); (1, -0.5); (2, 3.); (3, 0.25); (5, -0.25); (6, -0.5) |];
          [| (0, -1.); (1, 1.); (2, -8.); (3, -8.); (4, 1.); (5, -0.25);
             (6, -0.5) |];
          [| (0, -3.); (1, 6.); (2, -12.); (4, -9.); (5, -9.) |];
          [| (0, 9.); (3, 6.); (4, -0.5); (5, -3.); (6, -9.) |];
        |];
      senses = [| Le; Le; Ge; Ge; Eq; Le; Eq; Eq |];
      rhs = [| 0.; 0.; 0.; 0.; 0.; 3.; -3.; 0. |];
    }
  in
  (feasible, infeasible)

let test_dual_cycling () =
  let feasible, infeasible = cycling_dual_lps in
  List.iter
    (fun (cap, max_iters) ->
      let r = Lp.Simplex.solve ?max_iters feasible in
      check_lp_obj (cap ^ ": feasible LP") 0.0 r;
      if max_iters = None then
        Alcotest.(check bool) "the switch ends the first run" true
          (r.Lp.Simplex.iterations < 50_000);
      let x = r.Lp.Simplex.x in
      Array.iteri
        (fun j v ->
          if v < -1e-9 then Alcotest.failf "%s: x%d = %g < 0" cap j v)
        x;
      Array.iteri
        (fun i row ->
          let a = Array.fold_left (fun acc (j, c) -> acc +. (c *. x.(j))) 0.0 row in
          let b = feasible.Lp.Model.rhs.(i) in
          let ok =
            match feasible.Lp.Model.senses.(i) with
            | Lp.Model.Le -> a <= b +. 1e-6
            | Lp.Model.Ge -> a >= b -. 1e-6
            | Lp.Model.Eq -> feq a b
          in
          if not ok then Alcotest.failf "%s: row %d = %g violates %g" cap i a b)
        feasible.Lp.Model.rows;
      let r, st = Lp.Simplex.solve_state ?max_iters infeasible in
      Alcotest.(check bool) (cap ^ ": infeasible LP") true
        (r.Lp.Simplex.status = Lp.Simplex.Infeasible);
      Alcotest.(check bool) (cap ^ ": with a ray") true
        (match Lp.Simplex.last_infeasibility st with
        | Some (Lp.Cert.Ray _) -> true
        | _ -> false))
    [ ("default cap", None); ("cap 50", Some 50) ]

let test_milp_time_limit_returns_feasible () =
  (* a painful MILP with a tiny budget still returns its warm start *)
  let m = Lp.Model.create () in
  let n = 18 in
  let xs = List.init n (fun i -> Lp.Model.bool_var m (lazy (Printf.sprintf "b%d" i))) in
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
  let xs = List.init n (fun i -> Lp.Model.add_var m ~ub:5.0 (lazy (Printf.sprintf "x%d" i))) in
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
  let xs = Array.mapi (fun i _ -> Lp.Model.bool_var m (lazy (Printf.sprintf "x%d" i))) values in
  Lp.Model.add_le m (Array.to_list (Array.mapi (fun i x -> (weights.(i), x)) xs)) cap;
  Lp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (-.values.(i), x)) xs));
  let r = Lp.Milp.solve ~time_limit:10.0 m in
  Alcotest.(check bool) "optimal" true (r.Lp.Milp.status = Lp.Milp.Optimal);
  (* best: items 1 and 3 (13 + 8, weight 10) = 21 *)
  if not (feq (-21.0) r.Lp.Milp.objective) then
    Alcotest.failf "knapsack objective %g" r.Lp.Milp.objective

(* Branching compares the pseudocost score over every fractional
   integer column and consults [branch_priority] only on a tie. At the
   root no pseudocost is observed yet, so the score is f·(1−f): x0
   (class 0) sits at [a] and x1 (class 1) at [b], and the root's branch
   variable shows which rule chose. Presolve and cuts are off so that
   the root LP keeps both fractional. *)
let root_branch_var a b =
  let m = Lp.Model.create () in
  let x0 = Lp.Model.bool_var m (lazy "x0") in
  let x1 = Lp.Model.bool_var m (lazy "x1") in
  Lp.Model.add_le m [ (1.0 /. a, x0) ] 1.0;
  Lp.Model.add_le m [ (1.0 /. b, x1) ] 1.0;
  Lp.Model.set_objective m [ (-1.0, x0); (-1.0, x1) ];
  let r =
    Lp.Milp.solve ~branch_priority:[| 0; 1 |] ~certificates:true
      ~cuts:false ~presolve:false m
  in
  Alcotest.(check bool) "optimal" true (r.Lp.Milp.status = Lp.Milp.Optimal);
  let cert = Option.get r.Lp.Milp.cert in
  match
    List.find (fun (n : Lp.Cert.node) -> n.id = 0) cert.Lp.Cert.nodes
  with
  | { fathom = Lp.Cert.F_branched { bvar; _ }; _ } -> bvar
  | _ -> Alcotest.fail "the root did not branch"

let test_milp_branch_priority_ties () =
  Alcotest.(check int) "the larger f(1-f) wins across classes" 0
    (root_branch_var 0.5 0.25);
  Alcotest.(check int) "equal f(1-f): the higher class wins" 1
    (root_branch_var 0.5 0.5)

let test_milp_integer_general () =
  (* min 3x + 4y, 2x + y >= 5, x + 3y >= 7, x y integer >= 0.
     Optimal integer: try x=2,y=2: 2*2+2=6>=5, 2+6=8>=7 obj 14.
     x=1,y=3: 2+3=5, 1+9=10, obj 15. x=3,y=2: obj 17. x=2,y=2 -> 14.
     x=4,y=1: 9>=5, 7>=7 obj 16. So 14. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~integer:true ~ub:10.0 (lazy "x") in
  let y = Lp.Model.add_var m ~integer:true ~ub:10.0 (lazy "y") in
  Lp.Model.add_ge m [ (2.0, x); (1.0, y) ] 5.0;
  Lp.Model.add_ge m [ (1.0, x); (3.0, y) ] 7.0;
  Lp.Model.set_objective m [ (3.0, x); (4.0, y) ];
  let r = Lp.Milp.solve ~time_limit:10.0 m in
  Alcotest.(check bool) "optimal" true (r.Lp.Milp.status = Lp.Milp.Optimal);
  if not (feq 14.0 r.Lp.Milp.objective) then
    Alcotest.failf "objective %g expected 14" r.Lp.Milp.objective

let test_milp_infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m (lazy "x") in
  let y = Lp.Model.bool_var m (lazy "y") in
  Lp.Model.add_ge m [ (1.0, x); (1.0, y) ] 3.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let r = Lp.Milp.solve ~time_limit:10.0 m in
  Alcotest.(check bool) "infeasible" true (r.Lp.Milp.status = Lp.Milp.Infeasible)

let test_milp_incumbent () =
  (* Warm start with the known optimum; solver must not return worse. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m (lazy "x") in
  let y = Lp.Model.bool_var m (lazy "y") in
  Lp.Model.add_le m [ (1.0, x); (1.0, y) ] 1.0;
  Lp.Model.set_objective m [ (-2.0, x); (-1.0, y) ];
  let r = Lp.Milp.solve ~incumbent:[| 1.0; 0.0 |] ~time_limit:10.0 m in
  if not (feq (-2.0) r.Lp.Milp.objective) then
    Alcotest.failf "objective %g expected -2" r.Lp.Milp.objective

let test_milp_bad_incumbent () =
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m (lazy "x") in
  Lp.Model.add_le m [ (1.0, x) ] 0.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  Alcotest.check_raises "rejects infeasible incumbent"
    (Invalid_argument "Milp.solve: infeasible incumbent: row0: 1 > 0")
    (fun () -> ignore (Lp.Milp.solve ~incumbent:[| 1.0 |] m))

let test_objective_constant () =
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m (lazy "x") in
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
      let xs = List.init n (fun i -> Lp.Model.bool_var m (lazy (Printf.sprintf "b%d" i))) in
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
  let x = Lp.Model.add_var m (lazy "x") in
  let y = Lp.Model.add_var m (lazy "y") in
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
    Array.mapi (fun i _ -> Lp.Model.bool_var m (lazy (Printf.sprintf "x%d" i))) values
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
  check_lp_obj "recovers after expiry" (-3.0) r;
  (* the basis is optimal for these bounds: no pivot is due, so the
     expired deadline does not turn it into a budget stop *)
  let r = Lp.Simplex.resolve ~deadline ~lb ~ub st in
  check_lp_obj "optimal basis at an expired deadline" (-3.0) r;
  Alcotest.(check int) "no pivots" 0 r.Lp.Simplex.iterations

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
let tightening_chain_gen =
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

(* monotone tightening, as in branch-and-bound *)
let tighten lb ub (j, side, v) =
  if side then lb.(j) <- Float.max lb.(j) v else ub.(j) <- Float.min ub.(j) v

let resolve_equals_cold_solve =
  QCheck.Test.make ~name:"resolve = cold solve under bound tightenings"
    ~count:120 (QCheck.make tightening_chain_gen) (fun (spec, steps) ->
      let model, _ = build_random_lp spec in
      let raw = Lp.Model.to_raw model in
      let _, st = Lp.Simplex.solve_state raw in
      let lb = Array.copy raw.Lp.Model.lb
      and ub = Array.copy raw.Lp.Model.ub in
      List.for_all
        (fun step ->
          tighten lb ub step;
          let rw = Lp.Simplex.resolve ~lb ~ub st in
          let rc = Lp.Simplex.solve ~lb ~ub raw in
          rw.Lp.Simplex.status = rc.Lp.Simplex.status
          && (rw.Lp.Simplex.status <> Lp.Simplex.Optimal
             || feq rw.Lp.Simplex.objective rc.Lp.Simplex.objective))
        steps)

(* --- dual steepest-edge pricing ---------------------------------------- *)

(* Property: after the solve and after every [add_rows] and [resolve] of
   a random sequence (the tightening chains above, each step optionally
   preceded by an appended random row), every row's maintained weight
   equals [‖e_iᵀB⁻¹‖²] summed afresh from the tableau, within 1e-9
   relative. *)
let edge_weights_exact =
  let gen =
    QCheck.Gen.(
      let* ((n, _, _, _), steps) as chain = tightening_chain_gen in
      let coef = map (fun i -> float_of_int (i - 5)) (int_bound 10) in
      let row =
        let* terms = list_repeat n coef in
        let* rhs = map float_of_int (int_bound 12) in
        return (List.mapi (fun j c -> (j, c)) terms, rhs)
      in
      let* rows = list_repeat (List.length steps) (opt row) in
      return (chain, rows))
  in
  QCheck.Test.make ~name:"maintained weights = ‖e_iᵀB⁻¹‖²" ~count:300
    (QCheck.make gen) (fun ((spec, steps), rows) ->
      let model, _ = build_random_lp spec in
      let raw = Lp.Model.to_raw model in
      let _, st = Lp.Simplex.solve_state raw in
      let exact () =
        Array.for_all
          (fun (w, w') ->
            Float.abs (w -. w') <= 1e-9 *. Float.max (Float.abs w) (Float.abs w'))
          (Lp.Simplex.edge_weights st)
      in
      let lb = Array.copy raw.Lp.Model.lb
      and ub = Array.copy raw.Lp.Model.ub in
      exact ()
      && List.for_all2
           (fun step row ->
             (match row with
             | Some (terms, rhs) ->
                 Lp.Simplex.add_rows st
                   [| (Array.of_list (List.filter (fun (_, c) -> c <> 0.0) terms), rhs) |]
             | None -> ());
             exact ()
             &&
             (tighten lb ub step;
              ignore (Lp.Simplex.resolve ~lb ~ub st);
              exact ()))
           steps rows)

(* min x + y - 5.5e  s.t.  0.1x - 0.5e >= 0.1,  y - e >= 1, all >= 0: the
   optimum x = y = 1, e = 0 leaves x basic in the first row, whose row
   of B⁻¹ is (-10, 0), weight 100, and y in the second, weight 1. Raising
   x's lower bound to 4 and y's to 2 violates them by 3 and by 1. The
   most violated row is x's, and repairing it first (e enters at 0.6)
   leaves y at 1.6, so a second pivot is due. By steepest edge y's row
   scores 1² / 1 against x's 3² / 100: y leaves first, e enters at 1,
   which lifts x to 6 as well, and the repair ends after one pivot. *)
let test_steepest_row_leaves_first () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  let y = Lp.Model.add_var m (lazy "y") in
  let e = Lp.Model.add_var m (lazy "e") in
  Lp.Model.add_ge m [ (0.1, x); (-0.5, e) ] 0.1;
  Lp.Model.add_ge m [ (1.0, y); (-1.0, e) ] 1.0;
  Lp.Model.set_objective m [ (1.0, x); (1.0, y); (-5.5, e) ];
  let raw = Lp.Model.to_raw m in
  let r, st = Lp.Simplex.solve_state raw in
  check_lp_obj "root" 2.0 r;
  let basis () =
    List.map
      (fun j ->
        match Lp.Simplex.basis_status st j with
        | `Basic -> "basic"
        | `At_lower -> "lower"
        | `At_upper -> "upper")
      (List.map Lp.Model.var_index [ x; y; e ])
  in
  Alcotest.(check (list string)) "root basis" [ "basic"; "basic"; "lower" ]
    (basis ());
  let lb = Array.copy raw.Lp.Model.lb in
  lb.(Lp.Model.var_index x) <- 4.0;
  lb.(Lp.Model.var_index y) <- 2.0;
  let r = Lp.Simplex.resolve ~lb ~ub:raw.Lp.Model.ub st in
  check_lp_obj "repaired" 2.5 r;
  Alcotest.(check bool) "warm" true (Lp.Simplex.last_resolve_warm st);
  Alcotest.(check int) "one dual pivot" 1 r.Lp.Simplex.iterations;
  Alcotest.(check (list string)) "y's row left, x's stayed"
    [ "basic"; "lower"; "basic" ] (basis ())

(* --- exactness golden on the cold [Simplex.solve] path ---------------- *)

(* Pinned pivot counts and objective bits for the LPs that go through
   [Simplex.solve] without the MILP: the SDC scheduler's LPs on the nine
   registry kernels, and a fixed batch from the [random_lp_gen] space.
   Like the MILP golden in test_parallel.ml, these are pivot-sequence
   facts: a kernel change meant to be bit-identical must pass unedited.

   [Sdc.schedule] exposes no LP objective, so each kernel pins its LP
   count, its pivot total and a digest of the cycle vector the LPs
   produced. The batch is drawn with a local xorshift rather than
   [QCheck.Gen], so the instances do not depend on the library version. *)

let fixed_lp_batch count =
  let rng = ref 0x2545f491 in
  let rand bound =
    let x = !rng in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    rng := x land max_int;
    !rng mod bound
  in
  let coef () = float_of_int (rand 11 - 5) in
  List.init count (fun _ ->
      let n = 1 + rand 4 in
      let m = 1 + rand 4 in
      let obj = List.init n (fun _ -> coef ()) in
      let rows = List.init m (fun _ -> List.init n (fun _ -> coef ())) in
      let rhs = List.init m (fun _ -> float_of_int (rand 13)) in
      (n, obj, rows, rhs))

let sdc_fingerprint (e : Benchmarks.Registry.entry) =
  let g = e.build () in
  let device = Fpga.Device.make ~t_clk:e.t_clk () in
  let solves0, pivots0 = Sched.Sdc.lp_stats () in
  let s =
    match
      Sched.Sdc.schedule ~device ~delays:Fpga.Delays.default
        ~resources:e.resources ~ii:1 g
    with
    | Ok s -> s
    | Error err -> Alcotest.failf "%s: %a" e.name Sched.Heuristic.pp_error err
  in
  let solves1, pivots1 = Sched.Sdc.lp_stats () in
  Printf.sprintf "lps=%d pivots=%d cycles=%s" (solves1 - solves0)
    (pivots1 - pivots0)
    (Digest.to_hex
       (Digest.string
          (String.concat ","
             (Array.to_list (Array.map string_of_int s.Sched.Schedule.cycle)))))

let batch_fingerprint specs =
  let runs =
    List.map
      (fun spec ->
        let model, _ = build_random_lp spec in
        let r = solve_model model in
        ( r.Lp.Simplex.iterations,
          Printf.sprintf "%s iters=%d obj=%h"
            (status_name r.Lp.Simplex.status)
            r.Lp.Simplex.iterations r.Lp.Simplex.objective ))
      specs
  in
  Printf.sprintf "lps=%d iters=%d digest=%s" (List.length runs)
    (List.fold_left (fun acc (i, _) -> acc + i) 0 runs)
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map snd runs))))

let golden_solve_path =
  [
    ("SDC CLZ",
      "lps=1 pivots=54 cycles=47a4c9baf612b309003a516b1d2fd7a2");
    ("SDC XORR",
      "lps=1 pivots=64 cycles=2254f6a48ab935c85be21d0508d7e65b");
    ("SDC GFMUL",
      "lps=1 pivots=43 cycles=27df930b20d42e409ef700e33423a7a7");
    ("SDC CORDIC",
      "lps=1 pivots=54 cycles=0507ef0f4c469c9e739d5ef29c8ead32");
    ("SDC MT",
      "lps=1 pivots=12 cycles=6b594cf849454811a81888f9bf9e6fde");
    ("SDC AES",
      "lps=1 pivots=39 cycles=46394945c392f17d4310f89271315542");
    ("SDC RS",
      "lps=1 pivots=27 cycles=1100950733f23d20f6b0ffce8815f025");
    ("SDC DR",
      "lps=1 pivots=31 cycles=c1a64da18390b7e9f38b891b4a4e4417");
    ("SDC GSM",
      "lps=1 pivots=41 cycles=813b97c16253441cbb0f58af166be171");
    ("random_lp_gen batch",
      "lps=256 iters=169 digest=49327cc0dcd813063b07eb158accc8ce");
  ]

let test_golden_solve_path () =
  let got =
    List.map
      (fun (e : Benchmarks.Registry.entry) -> ("SDC " ^ e.name, sdc_fingerprint e))
      Benchmarks.Registry.all
    @ [ ("random_lp_gen batch", batch_fingerprint (fixed_lp_batch 256)) ]
  in
  Alcotest.(check (list (pair string string))) "fingerprints" golden_solve_path got

(* --- sparse pivot-row kernel: edge cases through the public API ------- *)

(* Audit one LP claim in exact rationals ([Analyze.Audit], CERT103 for
   duals, CERT104 for Farkas rays) as the root of a one-node certificate
   whose box is [lb, ub]. *)
let audit_claim raw ~lb ~ub ~bound claim =
  let root : Lp.Cert.node =
    {
      id = 0;
      parent = -1;
      branch = None;
      depth = 0;
      domain = 0;
      claim;
      bound;
      incumbent_at = infinity;
      fathom = Lp.Cert.F_integral;
    }
  in
  let cert : Lp.Cert.t =
    {
      status = Lp.Cert.Unknown;
      objective = infinity;
      incumbent = None;
      incumbents = [];
      root_lb = Array.copy lb;
      root_ub = Array.copy ub;
      presolve = [];
      cuts = [];
      fixes = [];
      root_duals = None;
      root_obj = bound;
      nodes = [ root ];
      budget_hit = false;
      lp_limited = 0;
      domains = 1;
      gap_tol = 1e-6;
    }
  in
  Analyze.Diag.errors (Analyze.Audit.check raw cert)

(* One resolve under [lb, ub]: must reach [expect], match the cold solve
   of [raw] (status, and objective when optimal), and its duals or
   infeasibility evidence must pass the exact audit. *)
let check_resolve_certified ?(expect = "optimal") name raw st ~lb ~ub =
  let rw = Lp.Simplex.resolve ~lb ~ub st in
  let rc = Lp.Simplex.solve ~lb ~ub raw in
  Alcotest.(check string) (name ^ ": resolve status") expect
    (status_name rw.Lp.Simplex.status);
  Alcotest.(check string) (name ^ ": resolve status = cold status")
    (status_name rc.Lp.Simplex.status) (status_name rw.Lp.Simplex.status);
  let claim =
    match rw.Lp.Simplex.status with
    | Lp.Simplex.Optimal ->
        if not (feq rw.Lp.Simplex.objective rc.Lp.Simplex.objective) then
          Alcotest.failf "%s: resolve objective %.9g, cold %.9g" name
            rw.Lp.Simplex.objective rc.Lp.Simplex.objective;
        Some
          (Lp.Cert.Lp_optimal
             {
               obj = rw.Lp.Simplex.objective;
               duals = Option.get (Lp.Simplex.duals st);
             })
    | Lp.Simplex.Infeasible ->
        Some (Lp.Cert.Lp_infeasible (Lp.Simplex.last_infeasibility st))
    | _ -> None
  in
  Option.iter
    (fun claim ->
      match
        audit_claim raw ~lb ~ub ~bound:rw.Lp.Simplex.objective claim
      with
      | [] -> ()
      | errs ->
          Alcotest.failf "%s: audit rejects the %s evidence:@.%a" name
            (status_name rw.Lp.Simplex.status)
            Analyze.Diag.pp_report errs)
    claim

(* A pivot row with no zero entry. A pivot row always carries zeros in
   the other rows' basic columns, so only a one-row tableau has one: here
   every structural column and the slack are nonzero, and the gathered
   index list is the whole row. *)
let test_kernel_dense_row () =
  let m = Lp.Model.create () in
  let xs =
    Array.init 4 (fun i -> Lp.Model.add_var m ~ub:2.0 (lazy (Printf.sprintf "x%d" i)))
  in
  Lp.Model.add_le m
    (List.map2 (fun c x -> (c, x)) [ 2.0; 1.0; 3.0; 1.0 ] (Array.to_list xs))
    7.0;
  Lp.Model.set_objective m
    (List.map2 (fun c x -> (c, x)) [ -1.0; -2.0; -3.0; -1.0 ]
       (Array.to_list xs));
  let raw = Lp.Model.to_raw m in
  let r, st = Lp.Simplex.solve_state raw in
  check_lp_obj "dense row root" (-9.0) r;
  let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
  check_resolve_certified "root" raw st ~lb ~ub;
  (* the audit has teeth: zero multipliers certify only the box minimum *)
  Alcotest.(check bool) "zeroed duals rejected" true
    (audit_claim raw ~lb ~ub ~bound:(-9.0)
       (Lp.Cert.Lp_optimal { obj = -9.0; duals = [| 0.0 |] })
    <> []);
  ub.(2) <- 1.0;
  check_resolve_certified "x2 <= 1" raw st ~lb ~ub;
  lb.(0) <- 1.5;
  check_resolve_certified "x0 >= 1.5" raw st ~lb ~ub;
  (* 2·2 + 3·1 + 1·2 > 7 with x3 pinned at 2: infeasible *)
  lb.(3) <- 2.0;
  lb.(0) <- 2.0;
  ub.(2) <- 2.0;
  lb.(2) <- 1.0;
  check_resolve_certified ~expect:"infeasible" "infeasible box" raw st ~lb
    ~ub;
  Alcotest.(check bool) "warm path taken" true
    (Lp.Simplex.last_resolve_warm st)

(* The sparsest pivot row. The leaving variable's unit column is nonzero
   in its own row, so a pivot row always holds at least two nonzeros:
   the entering column and the leaving basic column. Singleton bound
   rows make exactly that happen — x enters at row [x <= 1.5] against
   its slack, and the coupling row is reduced over two columns only. *)
let singleton_rows () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:4.0 (lazy "x") in
  let y = Lp.Model.add_var m ~ub:4.0 (lazy "y") in
  let z = Lp.Model.add_var m ~ub:4.0 (lazy "z") in
  Lp.Model.add_le m [ (1.0, x) ] 1.5;
  Lp.Model.add_le m [ (1.0, y) ] 2.5;
  Lp.Model.add_le m [ (1.0, x); (1.0, y); (1.0, z) ] 3.0;
  Lp.Model.set_objective m [ (-2.0, x); (-1.0, y); (-1.0, z) ];
  m

let test_kernel_singleton_row () =
  let raw = Lp.Model.to_raw (singleton_rows ()) in
  let r, st = Lp.Simplex.solve_state raw in
  check_lp_obj "singleton rows root" (-4.5) r;
  let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
  ub.(0) <- 1.0;
  check_resolve_certified "x <= 1" raw st ~lb ~ub;
  lb.(1) <- 2.0;
  check_resolve_certified "y >= 2" raw st ~lb ~ub;
  lb.(0) <- 1.0;
  lb.(2) <- 0.5;
  check_resolve_certified ~expect:"infeasible" "x + y + z > 3" raw st ~lb
    ~ub;
  Alcotest.(check bool) "warm path taken" true
    (Lp.Simplex.last_resolve_warm st)

(* [add_rows] after sparse pivots, then a chain of warm resolves: each
   must equal the cold solve of the model with the rows appended, and
   certify over the extended row system. *)
let sparse_lp ~cuts =
  let n = 10 in
  let m = Lp.Model.create () in
  let xs =
    Array.init n (fun i -> Lp.Model.add_var m ~ub:3.0 (lazy (Printf.sprintf "x%d" i)))
  in
  (* row i touches columns i, i+3, i+7 (mod n): 30% dense *)
  for i = 0 to 7 do
    let terms =
      List.map
        (fun (d, c) -> (c, xs.((i + d) mod n)))
        [ (0, 1.0); (3, float_of_int (1 + (i mod 3))); (7, 2.0) ]
    in
    if i mod 4 = 3 then Lp.Model.add_ge m terms 1.0
    else Lp.Model.add_le m terms (4.0 +. float_of_int i)
  done;
  List.iter
    (fun (terms, rhs) ->
      Lp.Model.add_le m
        (Array.to_list (Array.map (fun (j, c) -> (c, xs.(j))) terms))
        rhs)
    cuts;
  Lp.Model.set_objective m
    (Array.to_list
       (Array.mapi (fun i x -> (-.float_of_int (1 + (i * 7 mod 5)), x)) xs));
  m

let test_kernel_add_rows_warm () =
  let raw = Lp.Model.to_raw (sparse_lp ~cuts:[]) in
  let r, st = Lp.Simplex.solve_state raw in
  Alcotest.(check string) "root optimal" "optimal"
    (status_name r.Lp.Simplex.status);
  let cuts =
    [
      ([| (0, 1.0); (1, 1.0); (4, 1.0) |], 2.0);
      ([| (2, 1.0); (5, 2.0); (9, 1.0) |], 3.0);
    ]
  in
  Lp.Simplex.add_rows st (Array.of_list cuts);
  let ext = Lp.Model.to_raw (sparse_lp ~cuts) in
  let lb = Array.copy ext.Lp.Model.lb and ub = Array.copy ext.Lp.Model.ub in
  check_resolve_certified "after add_rows" ext st ~lb ~ub;
  Alcotest.(check bool) "cuts repaired warm" true
    (Lp.Simplex.last_resolve_warm st);
  List.iteri
    (fun k (j, side, v) ->
      if side then lb.(j) <- Float.max lb.(j) v else ub.(j) <- Float.min ub.(j) v;
      check_resolve_certified (Printf.sprintf "tightening %d" k) ext st ~lb
        ~ub)
    [
      (3, false, 1.0);
      (7, true, 1.0);
      (0, true, 1.0);
      (6, false, 0.5);
      (8, true, 2.0);
    ];
  (* x0 >= 1 and x1 >= 1.5 overrun the first cut: a Farkas ray over the
     extended rows *)
  let lb_bad = Array.copy lb in
  lb_bad.(1) <- 1.5;
  check_resolve_certified ~expect:"infeasible" "cut overrun" ext st ~lb:lb_bad
    ~ub;
  (* a second round of rows on the already extended, warm tableau *)
  let cuts' = cuts @ [ ([| (3, 1.0); (6, 1.0); (8, 1.0) |], 2.5) ] in
  Lp.Simplex.add_rows st [| List.nth cuts' 2 |];
  let ext' = Lp.Model.to_raw (sparse_lp ~cuts:cuts') in
  check_resolve_certified "second add_rows" ext' st ~lb ~ub

(* An entering column with a single nonzero, in the pivot row. x0 has
   no upper bound, so its cost waits for the primal clean-up, where it
   enters against row 0 alone; x3 appears only in the [>=] row, which the
   dual repair enters it on once x2 is capped below 1. *)
let test_kernel_singleton_column () =
  let m = Lp.Model.create () in
  let x0 = Lp.Model.add_var m (lazy "x0") in
  let x1 = Lp.Model.add_var m ~ub:4.0 (lazy "x1") in
  let x2 = Lp.Model.add_var m ~ub:4.0 (lazy "x2") in
  let x3 = Lp.Model.add_var m ~ub:2.0 (lazy "x3") in
  Lp.Model.add_le m [ (1.0, x0); (1.0, x1) ] 3.0;
  Lp.Model.add_le m [ (1.0, x1); (1.0, x2) ] 2.0;
  Lp.Model.add_ge m [ (1.0, x2); (1.0, x3) ] 1.0;
  Lp.Model.set_objective m [ (-1.0, x0); (-1.0, x1); (-2.0, x2); (1.0, x3) ];
  let raw = Lp.Model.to_raw m in
  check_lp_obj "singleton column solve" (-7.0) (Lp.Simplex.solve raw);
  let r, st = Lp.Simplex.solve_state raw in
  check_lp_obj "singleton column root" (-7.0) r;
  let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
  ub.(2) <- 0.5;
  check_resolve_certified "x2 <= 0.5" raw st ~lb ~ub;
  ub.(0) <- 1.0;
  check_resolve_certified "x0 <= 1" raw st ~lb ~ub;
  lb.(1) <- 1.8;
  lb.(2) <- 0.5;
  check_resolve_certified ~expect:"infeasible" "x1 + x2 > 2" raw st ~lb ~ub;
  Alcotest.(check bool) "warm path taken" true
    (Lp.Simplex.last_resolve_warm st)

(* An entering column nonzero in every row: x0 sits in all six rows.
   With an upper bound it starts there and the dual repair enters it on
   the most violated row; without one the primal clean-up enters it. *)
let dense_column ~x0_ub =
  let m = Lp.Model.create () in
  let x0 = Lp.Model.add_var m ~ub:x0_ub (lazy "x0") in
  let ys = Array.init 6 (fun i -> Lp.Model.add_var m ~ub:3.0 (lazy (Printf.sprintf "y%d" i))) in
  Array.iteri
    (fun i y -> Lp.Model.add_le m [ (1.0, x0); (1.0, y) ] (float_of_int (i + 1)))
    ys;
  Lp.Model.set_objective m
    ((-4.0, x0) :: Array.to_list (Array.map (fun y -> (-1.0, y)) ys));
  Lp.Model.to_raw m

let test_kernel_dense_column () =
  List.iter
    (fun x0_ub ->
      let name = Printf.sprintf "x0 <= %g" x0_ub in
      let raw = dense_column ~x0_ub in
      check_lp_obj (name ^ ": solve") (-16.0) (Lp.Simplex.solve raw);
      let r, st = Lp.Simplex.solve_state raw in
      check_lp_obj (name ^ ": root") (-16.0) r;
      let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
      ub.(0) <- 0.5;
      check_resolve_certified (name ^ ", x0 <= 0.5") raw st ~lb ~ub;
      ub.(0) <- x0_ub;
      lb.(1) <- 0.5;
      check_resolve_certified (name ^ ", y0 >= 0.5") raw st ~lb ~ub;
      lb.(0) <- 0.8;
      check_resolve_certified ~expect:"infeasible" (name ^ ", x0 + y0 > 1") raw
        st ~lb ~ub)
    [ 10.0; infinity ]

(* [add_rows] from two rows to nine, then warm resolves whose entering
   columns reach into the new rows. It runs on a fresh domain, whose
   pivot scratch starts empty: the root solve sizes it for two rows, so
   the resolves have to grow it. *)
let grown_lp ~cuts =
  let m = Lp.Model.create () in
  let xs =
    Array.init 6 (fun i -> Lp.Model.add_var m ~ub:2.0 (lazy (Printf.sprintf "x%d" i)))
  in
  Lp.Model.add_le m (Array.to_list (Array.map (fun x -> (1.0, x)) xs)) 8.0;
  Lp.Model.add_le m [ (1.0, xs.(0)); (1.0, xs.(2)); (1.0, xs.(4)) ] 3.0;
  List.iter
    (fun (terms, rhs) ->
      Lp.Model.add_le m
        (Array.to_list (Array.map (fun (j, c) -> (c, xs.(j))) terms))
        rhs)
    cuts;
  Lp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (-.float_of_int (i + 1), x)) xs));
  m

let test_kernel_add_rows_grow () =
  Domain.join @@ Domain.spawn @@ fun () ->
  let raw = Lp.Model.to_raw (grown_lp ~cuts:[]) in
  let r, st = Lp.Simplex.solve_state raw in
  Alcotest.(check string) "root optimal" "optimal"
    (status_name r.Lp.Simplex.status);
  let cuts =
    [
      ([| (4, 1.0); (5, 1.0) |], 3.0);
      ([| (3, 1.0); (5, 1.0) |], 3.0);
      ([| (2, 1.0); (3, 1.0); (4, 1.0) |], 4.0);
      ([| (1, 1.0); (3, 1.0); (5, 1.0) |], 4.0);
      ([| (3, 1.0); (4, 1.0); (5, 1.0) |], 4.5);
      ([| (0, 1.0); (1, 1.0); (2, 1.0); (3, 1.0) |], 4.0);
      ([| (1, 2.0); (2, 1.0); (5, 1.0) |], 5.0);
    ]
  in
  Lp.Simplex.add_rows st (Array.of_list cuts);
  let ext = Lp.Model.to_raw (grown_lp ~cuts) in
  let lb = Array.copy ext.Lp.Model.lb and ub = Array.copy ext.Lp.Model.ub in
  check_resolve_certified "after add_rows" ext st ~lb ~ub;
  Alcotest.(check bool) "cuts repaired warm" true
    (Lp.Simplex.last_resolve_warm st);
  ub.(5) <- 1.0;
  check_resolve_certified "x5 <= 1" ext st ~lb ~ub;
  lb.(0) <- 1.0;
  check_resolve_certified "x0 >= 1" ext st ~lb ~ub;
  lb.(1) <- 2.0;
  lb.(2) <- 1.5;
  check_resolve_certified ~expect:"infeasible" "x0 + x1 + x2 > 4" ext st ~lb
    ~ub

(* A degenerate dual repair with exact ratio ties. Every cost is 0 or 1
   and every coefficient 1 or 2, so the dual ratio test keeps seeing
   equal |z_j / a_rj| and equal |a_rj|, which go to the column scanned
   first. After the first pivot a slack holds a structural column's slot,
   so scanning by slot would pick other columns: the iteration counts and
   the bits of [x] below were recorded from the column-order scan, and
   a slot-order scan changes the first of them. *)
let tied_lp () =
  let m = Lp.Model.create () in
  let x =
    Array.mapi
      (fun i ub -> Lp.Model.add_var m ~ub (lazy (Printf.sprintf "x%d" i)))
      [| infinity; 1.0; infinity; 1.0; 2.0; 2.0 |]
  in
  let row terms rhs =
    Lp.Model.add_ge m (List.map (fun (c, i) -> (c, x.(i))) terms) rhs
  in
  row [ (1.0, 5); (2.0, 4); (1.0, 3); (2.0, 2); (1.0, 1) ] 2.0;
  row [ (2.0, 3); (1.0, 2); (2.0, 0) ] 1.0;
  row [ (1.0, 4); (2.0, 3); (2.0, 2); (2.0, 0) ] 2.0;
  row [ (2.0, 2); (1.0, 1); (2.0, 0) ] 3.0;
  row [ (2.0, 4); (1.0, 0) ] 3.0;
  Lp.Model.set_objective m [ (1.0, x.(1)); (1.0, x.(4)); (1.0, x.(5)) ];
  Lp.Model.to_raw m

let test_kernel_ratio_ties () =
  let raw = tied_lp () in
  let pin name (iters, xs) (r : Lp.Simplex.result) =
    Alcotest.(check (pair int (list string)))
      name (iters, xs)
      ( r.Lp.Simplex.iterations,
        Array.to_list (Array.map (Printf.sprintf "%h") r.Lp.Simplex.x) )
  in
  pin "solve"
    (4, [ "0x1.8p+1"; "0x0p+0"; "0x1p-1"; "0x1p+0"; "0x0p+0"; "0x0p+0" ])
    (Lp.Simplex.solve raw);
  List.iter
    (fun (name, j, lo, hi, want) ->
      let _, st = Lp.Simplex.solve_state raw in
      let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
      lb.(j) <- lo;
      ub.(j) <- hi;
      pin name want (Lp.Simplex.resolve ~lb ~ub st);
      Alcotest.(check bool) (name ^ ": warm") true
        (Lp.Simplex.last_resolve_warm st))
    [
      ( "x0 >= 4", 0, 4.0, infinity,
        (1, [ "0x1p+2"; "0x0p+0"; "0x1p-1"; "0x1p+0"; "0x0p+0"; "0x0p+0" ]) );
      ( "x0 <= 2", 0, 0.0, 2.0,
        (1, [ "0x1p+1"; "0x0p+0"; "0x0p+0"; "0x1p+0"; "0x1p-1"; "0x0p+0" ]) );
      ( "x2 <= 0", 2, 0.0, 0.0,
        (1, [ "0x1p+1"; "0x0p+0"; "0x0p+0"; "0x1p+0"; "0x1p-1"; "0x0p+0" ]) );
      ( "x4 >= 1", 4, 1.0, 2.0,
        (3, [ "0x1.8p+0"; "0x0p+0"; "0x0p+0"; "0x0p+0"; "0x1p+0"; "0x0p+0" ]) );
    ]

(* --- condensed tableau: the implicit unit columns ----------------------- *)

(* The root LP of [name]'s MILP-map model under the registry setup. *)
let milp_map_root name =
  let e = Benchmarks.Registry.find name in
  let device = Fpga.Device.make ~t_clk:e.t_clk () in
  let setup =
    { (Mams.Flow.default_setup ~device) with resources = e.resources }
  in
  match Mams.Flow.problem setup Mams.Flow.Milp_map (e.build ()) with
  | Ok p -> Lp.Model.to_raw (Mams.Formulation.model p.formulation)
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* A basic column is stored nowhere, so the tableau row of each basic
   structural j has to come out of the multipliers alone: Σ_i λ_i·row_i
   is 1 at j and 0 at every other basic structural column. *)
let test_condensed_unit_columns () =
  List.iter
    (fun name ->
      let raw = milp_map_root name in
      let r, st = Lp.Simplex.solve_state raw in
      Alcotest.(check string) (name ^ ": root optimal") "optimal"
        (status_name r.Lp.Simplex.status);
      let n = raw.Lp.Model.n in
      let basic =
        List.filter
          (fun j -> Lp.Simplex.basis_status st j = `Basic)
          (List.init n Fun.id)
      in
      Alcotest.(check bool) (name ^ ": some structural column basic") true
        (basic <> []);
      List.iter
        (fun j ->
          let lam = Array.make (Array.length raw.Lp.Model.rows) 0.0 in
          if not (Lp.Simplex.iter_multipliers st j (fun i l -> lam.(i) <- l))
          then Alcotest.failf "%s: no multipliers for basic %d" name j;
          let agg = Array.make n 0.0 in
          Array.iteri
            (fun i l ->
              if l <> 0.0 then
                Array.iter
                  (fun (c, a) -> agg.(c) <- agg.(c) +. (l *. a))
                  raw.Lp.Model.rows.(i))
            lam;
          List.iter
            (fun k ->
              let want = if k = j then 1.0 else 0.0 in
              if Float.abs (agg.(k) -. want) > 1e-9 then
                Alcotest.failf "%s: row of basic %d is %.12g at basic %d"
                  name j agg.(k) k)
            basic)
        basic)
    [ "GSM"; "RS" ]

(* min -2x - y  s.t.  x + y + z = 3,  x + 2y >= 2,  0 <= x, y, z <= 4,
   plus [cuts]. Both model rows are violated at the slack basis, so the
   solve that add_rows extends starts with dual pivots on them. *)
let artificial_lp ~cuts =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:4.0 (lazy "x") in
  let y = Lp.Model.add_var m ~ub:4.0 (lazy "y") in
  let z = Lp.Model.add_var m ~ub:4.0 (lazy "z") in
  Lp.Model.add_eq m [ (1.0, x); (1.0, y); (1.0, z) ] 3.0;
  Lp.Model.add_ge m [ (1.0, x); (2.0, y) ] 2.0;
  List.iter
    (fun (terms, rhs) ->
      Lp.Model.add_le m
        (Array.to_list (Array.map (fun (j, c) -> (c, [| x; y; z |].(j))) terms))
        rhs)
    cuts;
  Lp.Model.set_objective m [ (-2.0, x); (-1.0, y) ];
  m

let test_condensed_add_rows_artificial () =
  let raw = Lp.Model.to_raw (artificial_lp ~cuts:[]) in
  let r, st = Lp.Simplex.solve_state raw in
  check_lp_obj "root" (-6.0) r;
  (* x + y <= 2 cuts off the root vertex (3, 0, 0) *)
  let cuts = [ ([| (0, 1.0); (1, 1.0) |], 2.0) ] in
  Lp.Simplex.add_rows st (Array.of_list cuts);
  let ext = Lp.Model.to_raw (artificial_lp ~cuts) in
  let lb = Array.copy ext.Lp.Model.lb and ub = Array.copy ext.Lp.Model.ub in
  check_resolve_certified "after add_rows" ext st ~lb ~ub;
  Alcotest.(check bool) "cut repaired warm" true
    (Lp.Simplex.last_resolve_warm st);
  check_lp_obj "resolve = solve on the extended model" (-4.0)
    (Lp.Simplex.solve ext);
  (* z <= 0 forces x + y = 3 over the cut. Straight after the append the
     dual repair fails on the cut's own row, whose basic variable is the
     cut's slack, and reads the Farkas ray off that row *)
  let _, st = Lp.Simplex.solve_state raw in
  Lp.Simplex.add_rows st (Array.of_list cuts);
  ub.(2) <- 0.0;
  check_resolve_certified ~expect:"infeasible" "cut overrun" ext st ~lb ~ub;
  Alcotest.(check bool) "infeasibility found warm" true
    (Lp.Simplex.last_resolve_warm st);
  match Lp.Simplex.last_infeasibility st with
  | Some (Lp.Cert.Ray ray) ->
      Alcotest.(check int) "ray covers the extended rows" 3 (Array.length ray)
  | _ -> Alcotest.fail "expected a Farkas ray"

(* --- root presolve, cut separation, warm row appends ------------------ *)

let test_presolve_tighten () =
  (* 2x + 2y <= 1 forces both binaries to 0; z >= 1 forces z to 1; the
     one-hot a + b + c = 1 with a pinned then fixes b and c to 0 in the
     same fixpoint (clique-style fixing through activity propagation). *)
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m (lazy "x") in
  let y = Lp.Model.bool_var m (lazy "y") in
  let z = Lp.Model.bool_var m (lazy "z") in
  let a = Lp.Model.bool_var m (lazy "a") in
  let b = Lp.Model.bool_var m (lazy "b") in
  let c = Lp.Model.bool_var m (lazy "c") in
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
  let xs = Array.init 6 (fun i -> Lp.Model.bool_var m2 (lazy (Printf.sprintf "v%d" i))) in
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
  let x = Lp.Model.bool_var m (lazy "x") in
  let y = Lp.Model.bool_var m (lazy "y") in
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
    Lp.Cutgen.cg_cuts (Lp.Cutgen.seen ()) raw ~lb:raw.Lp.Model.lb
      ~ub:raw.Lp.Model.ub ~x:r.Lp.Simplex.x
      ~multipliers:(Lp.Simplex.iter_multipliers st)
      ~budget:(fun () -> false)
  in
  Alcotest.(check bool) "a CG cut separates" true (cuts <> []);
  List.iter
    (fun (c : Lp.Cert.cut) ->
      (* the returned cut is violated at the LP point *)
      let lhs = ref 0.0 in
      Array.iter
        (fun (j, cf) -> lhs := !lhs +. (cf *. r.Lp.Simplex.x.(j)))
        c.Lp.Cert.cut_terms;
      Alcotest.(check bool) "violated at the LP vertex" true
        (!lhs > c.Lp.Cert.cut_rhs +. 1e-6))
    cuts;
  check_cuts_exclude_no_integer_point raw cuts

(* Each round applies its own most-violated fresh candidates. The
   [Cg] multiplier of each cut is its name here, which tells apart two
   duplicates (same terms and rhs). *)
let test_round_selection () =
  let cut name terms rhs : Lp.Cert.cut =
    { Lp.Cert.cut_terms = terms; cut_rhs = rhs;
      cut_deriv = Lp.Cert.Cg [| (0, name) |] }
  in
  let names (cs : Lp.Cert.cut list) =
    List.map
      (fun (c : Lp.Cert.cut) ->
        match c.Lp.Cert.cut_deriv with
        | Lp.Cert.Cg [| (_, l) |] -> l
        | _ -> Float.nan)
      cs
  in
  (* violations at x: a and its duplicate a' 1.0, b and c 0.5 (b's key
     sorts first), d satisfied, e 0.5 *)
  let x = [| 1.5; 0.5; 1.0 |] in
  let a = cut 1.0 [| (0, 1.0); (1, 1.0) |] 1.0
  and a' = cut 2.0 [| (0, 1.0); (1, 1.0) |] 1.0
  and b = cut 3.0 [| (0, 1.0) |] 1.0
  and c = cut 4.0 [| (1, 1.0); (2, 1.0) |] 1.0
  and d = cut 5.0 [| (0, 1.0); (1, 1.0) |] 2.0
  and e = cut 6.0 [| (2, 1.0) |] 0.5 in
  let seen = Lp.Cutgen.seen () in
  let chosen, left = Lp.Cutgen.select seen ~x ~max_cuts:2 [ c; a; a'; d; b ] in
  Alcotest.(check (list (float 0.0)))
    "at most max_cuts, by violation then key, first duplicate kept" [ 1.0; 3.0 ]
    (names chosen);
  Alcotest.(check int) "the duplicate and the satisfied cut are not left over" 1
    left;
  let chosen, left = Lp.Cutgen.select seen ~x ~max_cuts:20 [ a; c; d; e ] in
  Alcotest.(check (list (float 0.0))) "earlier rounds' keys are skipped" [ 6.0 ]
    (names chosen);
  Alcotest.(check int) "nothing left over" 0 left

(* [Cutgen.select] as it stood, keying every candidate by its Printf
   string, kept verbatim as the reference the hash-keyed one must match. *)
module Ref_select : sig
  type seen

  val seen : unit -> seen

  val select :
    seen -> x:float array -> max_cuts:int -> Lp.Cert.cut list ->
    Lp.Cert.cut list * int
end = struct
  open Lp

  let viol_eps = 1e-6

  let violation (c : Cert.cut) x =
    Array.fold_left
      (fun acc (j, v) -> acc +. (v *. x.(j)))
      (-.c.Cert.cut_rhs) c.Cert.cut_terms

  type seen = (string, unit) Hashtbl.t

  let seen () = Hashtbl.create 64

  (* The duplicate hash over normalized terms and rhs, also [select]'s
     tie-break. *)
  let key (c : Cert.cut) =
    let b = Buffer.create 64 in
    Array.iter
      (fun (j, v) -> Buffer.add_string b (Printf.sprintf "%d:%h;" j v))
      c.Cert.cut_terms;
    Buffer.add_string b (Printf.sprintf "|%h" c.Cert.cut_rhs);
    Buffer.contents b

  let select seen ~x ~max_cuts cands =
    (* [filter_map] walks the list in order, so the first of two duplicates
       is the one kept *)
    let scored =
      List.filter_map
        (fun c ->
          let k = key c in
          if Hashtbl.mem seen k then None
          else begin
            Hashtbl.add seen k ();
            let v = violation c x in
            if v > viol_eps then Some (v, k, c) else None
          end)
        cands
    in
    let scored =
      List.sort
        (fun (v1, k1, _) (v2, k2, _) ->
          match Float.compare v2 v1 with 0 -> String.compare k1 k2 | c -> c)
        scored
    in
    let chosen = List.filteri (fun i _ -> i < max_cuts) scored in
    (List.map (fun (_, _, c) -> c) chosen, List.length scored - List.length chosen)
end

(* Rounds of candidates drawn from a small pool of cut shapes, so the
   same terms and rhs recur within a round and across rounds, over a
   grid point [x] where violations tie exactly; signed zeros make two
   shapes equal as floats but not as bits. Every draw is a separate
   candidate (its [Cg] multiplier numbers it), and both selections must
   choose the same candidates, physically, in the same order, and leave
   out as many. *)
let select_matches_reference =
  let gen =
    QCheck.Gen.(
      let coef = oneofl [ -1.0; -0.0; 0.0; 0.5; 1.0; 2.0 ] in
      let terms =
        map
          (fun cs ->
            Array.of_list
              (List.filter_map Fun.id
                 (List.mapi (fun j c -> Option.map (fun c -> (j, c)) c) cs)))
          (list_repeat 4 (opt coef))
      in
      let shape = pair terms (oneofl [ -0.0; 0.0; 0.5; 1.0; 2.0 ]) in
      list_size (int_range 1 6) shape >>= fun pool ->
      triple
        (array_repeat 4 (oneofl [ 0.0; 0.5; 1.0; 1.5 ]))
        (int_range 1 5)
        (list_size (int_range 1 4) (list_size (int_range 0 12) (oneofl pool))))
  in
  QCheck.Test.make ~name:"select = Printf-keyed reference" ~count:1000
    (QCheck.make gen) (fun (x, max_cuts, rounds) ->
      let seen = Lp.Cutgen.seen () and ref_seen = Ref_select.seen () in
      let drawn = ref 0 in
      List.for_all
        (fun round ->
          let cands =
            List.map
              (fun (terms, rhs) ->
                incr drawn;
                { Lp.Cert.cut_terms = terms; cut_rhs = rhs;
                  cut_deriv = Lp.Cert.Cg [| (0, float_of_int !drawn) |] })
              round
          in
          let got, left = Lp.Cutgen.select seen ~x ~max_cuts cands in
          let want, want_left = Ref_select.select ref_seen ~x ~max_cuts cands in
          List.equal ( == ) got want && left = want_left)
        rounds)

let test_add_rows_warm () =
  (* append a violated cut row to a solved state: the next resolve must
     repair it on the warm path, and the duals must cover the new row *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:2.0 (lazy "x") in
  let y = Lp.Model.add_var m ~ub:2.0 (lazy "y") in
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
    let x = Lp.Model.add_var m ~integer:true ~ub:10.0 (lazy "x") in
    let y = Lp.Model.add_var m ~integer:true ~ub:10.0 (lazy "y") in
    let z = Lp.Model.add_var m ~integer:true ~ub:10.0 (lazy "z") in
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

(* --- the root node under a cap or a spent budget ---------------------- *)

(* The XORR n=8 MILP-map model: mapped cut delays over the k = 6 cuts,
   unlimited resources, latency at most 6. *)
let xorr_map () =
  let g = Benchmarks.Xorr.build ~elements:8 ~width:8 ~mix_depth:3 () in
  let device = Fpga.Device.make ~t_clk:10.0 () in
  let delays = Fpga.Delays.default in
  let cfg : Mams.Formulation.config =
    {
      device;
      delays;
      resources = Fpga.Resource.unlimited;
      ii = 1;
      max_latency = 6;
      alpha = 0.5;
      beta = 0.5;
      cut_delay = Mams.Formulation.mapped_delay ~device ~delays;
    }
  in
  Mams.Formulation.model (Mams.Formulation.build cfg g (Cuts.enumerate ~k:6 g))

(* A root LP stopped by its pivot cap has no bound to report: the point
   where the pivots stopped may lie above the relaxation. The injected
   cycle stops every LP at the cap. *)
let test_capped_root_bound () =
  let model = xorr_map () in
  let relax = Lp.Simplex.solve (Lp.Model.to_raw model) in
  check_lp_obj "relaxation" relax.Lp.Simplex.objective relax;
  let relax = relax.Lp.Simplex.objective +. Lp.Model.objective_constant model in
  (match Resilience.Fault.arm "simplex.cycle" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm: %s" e);
  let r =
    Fun.protect ~finally:Resilience.Fault.clear (fun () ->
        Lp.Milp.solve ~cuts:false ~presolve:false ~node_limit:1 model)
  in
  let s = r.Lp.Milp.stats in
  Alcotest.(check int) "the root LP hit its cap" 1 s.Lp.Milp.lp_limited;
  if s.Lp.Milp.root_bound > relax +. 1e-6 then
    Alcotest.failf "capped root reports bound %g above the relaxation %g"
      s.Lp.Milp.root_bound relax;
  Alcotest.(check bool) "no root bound" false
    (Float.is_finite s.Lp.Milp.root_bound)

(* The budget runs out right after the first cut round: the root, whose
   LP the cut loop already solved, is still processed once. *)
let test_budget_in_cut_loop () =
  let model = xorr_map () in
  let cell = Resilience.Deadline.new_cell () in
  let deadline = Resilience.Deadline.with_cancel Resilience.Deadline.none cell in
  Obs.Log.enable ();
  Obs.Log.set_sink
    (Some
       (fun e ->
         if e.Obs.Log.l_name = "milp.cut_round" then
           Resilience.Deadline.cancel cell));
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.Log.set_sink None;
        Obs.Log.disable ();
        Obs.Log.clear ())
      (fun () -> Lp.Milp.solve ~deadline model)
  in
  let s = r.Lp.Milp.stats in
  Alcotest.(check int) "one cut round" 1 s.Lp.Milp.cut_rounds;
  Alcotest.(check bool) "the root was processed" true (s.Lp.Milp.nodes >= 1);
  Alcotest.(check bool) "the root reports its bound" true
    (Float.is_finite s.Lp.Milp.root_bound);
  (* Same stop, but the root node's own LP is cut short too: the third
     clean-up (after the root LP's and the round's) gives up under the
     injected cap. The root still reports the bound of the round's
     optimal LP. *)
  let cell = Resilience.Deadline.new_cell () in
  let deadline = Resilience.Deadline.with_cancel Resilience.Deadline.none cell in
  let round_bound = ref Float.nan in
  (match Resilience.Fault.arm "simplex.cycle@3" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm: %s" e);
  Obs.Log.enable ();
  Obs.Log.set_sink
    (Some
       (fun e ->
         if e.Obs.Log.l_name = "milp.cut_round" then begin
           (match List.assoc_opt "bound" e.Obs.Log.l_args with
           | Some (Obs.Json.Float b) -> round_bound := b
           | _ -> ());
           Resilience.Deadline.cancel cell
         end));
  let r =
    Fun.protect
      ~finally:(fun () ->
        Resilience.Fault.clear ();
        Obs.Log.set_sink None;
        Obs.Log.disable ();
        Obs.Log.clear ())
      (fun () -> Lp.Milp.solve ~deadline model)
  in
  let s = r.Lp.Milp.stats in
  Alcotest.(check int) "one cut round, capped root" 1 s.Lp.Milp.cut_rounds;
  Alcotest.(check int) "the root LP hit its cap" 1 s.Lp.Milp.lp_limited;
  let want = !round_bound +. Lp.Model.objective_constant model in
  if not (feq want s.Lp.Milp.root_bound) then
    Alcotest.failf "root bound %g, expected the cut round's %g"
      s.Lp.Milp.root_bound want

let qsuite name tests = (name, List.map (fun t -> QCheck_alcotest.to_alcotest t) tests)

(* ------------------------------------------------------------------ *)
(* Exact cuts: Qd.Acc, Cutgen and Presolve against their references    *)
(* ------------------------------------------------------------------ *)

(* The Chvátal–Gomory derivation as it stood on the plain {!Lp.Qd} fold
   (a fresh bignum per add and mul, the floor found from [Qd.to_float]),
   kept verbatim as the reference [Lp.Cutgen.cg_of_multipliers] must
   reproduce bit for bit. The one edit: the floor is a parameter, so a
   test can watch every floor the reference takes or swap in an exact
   one. *)
module Ref_cg = struct
  open Lp

  let viol_eps = 1e-6
  let lam_drop = 1e-11
  let lam_max = 1e7

  (* Integral float [f] with [f <= q < f+1], found by correcting the float
     floor with exact comparisons; [None] if the candidate refuses to
     converge (pathological magnitudes). *)
  let qfloor q =
    let ok f = Qd.leq (Qd.of_float f) q && Qd.lt q (Qd.of_float (f +. 1.0)) in
    let rec adj f k =
      if k > 4 then None
      else if ok f then Some f
      else adj (if Qd.lt q (Qd.of_float f) then f -. 1.0 else f +. 1.0) (k + 1)
    in
    let f0 = Float.floor (Qd.to_float q) in
    if Float.is_finite f0 then adj f0 0 else None

  (* ------------------------------------------------------------------ *)
  (* Chvátal–Gomory separation                                           *)
  (* ------------------------------------------------------------------ *)

  (* One CG candidate from a multiplier suggestion [lam] (length = rows of
     [raw], which may already include earlier cuts). Returns [None] when
     the clamped aggregation cannot be rounded validly or yields nothing
     violated. *)
  let cg_of_multipliers ?(qfloor = qfloor) (raw : Model.raw) ~lb ~ub ~x lam =
    let m = Array.length raw.rows in
    let n = raw.n in
    (* Move into the sign cone the audit enforces: >= 0 on [<=] rows,
       <= 0 on [>=] rows, free on [=] rows; drop noise. A wrong-sign
       multiplier is frac-shifted by an integer (Gomory's trick: adding
       an integer multiple of a row keeps the aggregation's fractional
       structure when the row data is integral, and the final violation
       check filters the cases where it is not) rather than clamped,
       which would break the tableau-row identity outright. *)
    let ok_scale = ref true in
    let lam =
      Array.mapi
        (fun i l ->
          let l =
            match raw.senses.(i) with
            | Model.Le -> if l < 0.0 then l -. Float.floor l else l
            | Model.Ge -> if l > 0.0 then l -. Float.ceil l else l
            | Model.Eq -> l
          in
          if Float.abs l < lam_drop then 0.0
          else begin
            if Float.abs l > lam_max || not (Float.is_finite l) then
              ok_scale := false;
            l
          end)
        lam
    in
    if not !ok_scale then None
    else begin
      let support = ref [] in
      for i = m - 1 downto 0 do
        if lam.(i) <> 0.0 then support := (i, lam.(i)) :: !support
      done;
      match !support with
      | [] -> None
      | support ->
          (* Exact aggregation over the cited rows. *)
          let abar = Array.make n Qd.zero in
          let t = ref Qd.zero in
          List.iter
            (fun (i, l) ->
              let ql = Qd.of_float l in
              Array.iter
                (fun (j, c) ->
                  abar.(j) <- Qd.add abar.(j) (Qd.mul ql (Qd.of_float c)))
                raw.rows.(i);
              t := Qd.add !t (Qd.mul ql (Qd.of_float raw.rhs.(i))))
            support;
          (* Bound-shifted rounding (the generalization CERT109
             re-derives): each integer column rounds to floor(abar_j)
             (charged to its finite lower bound) or ceil(abar_j) (charged
             to its finite upper bound), whichever keeps more violation at
             the LP point; continuous columns are dropped against the
             bound that makes the dropped term a relaxation. The exact
             rhs correction is delta = sum_j (c_j - abar_j)·bound_j, so
             the rounded rhs is floor(t + delta) — fractional bound
             charges are what lets the cut bite even when t itself is
             integral (binaries parked at their upper bounds). *)
          let terms = ref [] in
          let delta = ref Qd.zero in
          let valid = ref true in
          (try
             for j = n - 1 downto 0 do
               let a = abar.(j) in
               if not (Qd.is_zero a) then begin
                 let charge cq bound =
                   delta := Qd.add !delta (Qd.mul (Qd.sub cq a) (Qd.of_float bound))
                 in
                 if raw.integer.(j) then (
                   match qfloor a with
                   | None ->
                       valid := false;
                       raise Exit
                   | Some f ->
                       if Qd.equal (Qd.of_float f) a then
                         (* already integral: keep exactly, no charge *)
                         (if f <> 0.0 then terms := (j, f) :: !terms)
                       else begin
                         let af = Qd.to_float a in
                         let can_dn = Float.is_finite lb.(j) in
                         let can_up = Float.is_finite ub.(j) in
                         (* score = c_j·x_j - (c_j - abar_j)·bound_j, the
                            column's contribution to (violation at x) *)
                         let s_dn =
                           if can_dn then (f *. x.(j)) -. ((f -. af) *. lb.(j))
                           else Float.neg_infinity
                         and s_up =
                           if can_up then
                             ((f +. 1.0) *. x.(j)) -. ((f +. 1.0 -. af) *. ub.(j))
                           else Float.neg_infinity
                         in
                         if (not can_dn) && not can_up then begin
                           valid := false;
                           raise Exit
                         end;
                         let c, bound =
                           if s_up > s_dn then (f +. 1.0, ub.(j))
                           else (f, lb.(j))
                         in
                         charge (Qd.of_float c) bound;
                         if c <> 0.0 then terms := (j, c) :: !terms
                       end)
                 else begin
                   (* continuous: drop the column (c_j = 0); the dropped
                      term -abar_j·x_j maxes at lb when abar_j > 0, at ub
                      when abar_j < 0 — that bound must be finite *)
                   let bound = if Qd.sign a > 0 then lb.(j) else ub.(j) in
                   if not (Float.is_finite bound) then begin
                     valid := false;
                     raise Exit
                   end;
                   charge Qd.zero bound
                 end
               end
             done
           with Exit -> ());
          if not !valid then None
          else
            let t' = Qd.add !t !delta in
            match qfloor t' with
            | None -> None
            | Some d ->
                if Qd.equal (Qd.of_float d) t' then
                  None (* integral shifted rhs: no rounding gain *)
                else
                  let terms = Array.of_list !terms in
                  if Array.length terms = 0 then None
                  else begin
                    let viol =
                      Array.fold_left
                        (fun acc (j, c) -> acc +. (c *. x.(j)))
                        (-.d) terms
                    in
                    if viol > viol_eps then
                      Some
                        {
                          Cert.cut_terms = terms;
                          cut_rhs = d;
                          cut_deriv = Cert.Cg (Array.of_list support);
                        }
                    else None
                  end
    end
end

let two53 = 9007199254740992.0

(* A double drawn to stress exact arithmetic: any 53-bit mantissa at a
   small, large, tiny or subnormal exponent, small integers and halves
   (exact ties), zero, and the neighbourhood of ±2^53. *)
let gen_double rs =
  let sign v = if Random.State.bool rs then -.v else v in
  let mant () = 1.0 +. Random.State.float rs 1.0 in
  match Random.State.int rs 10 with
  | 0 -> 0.0
  | 1 -> sign (float_of_int (Random.State.int rs 20))
  | 2 -> sign (float_of_int (Random.State.int rs 40) /. 2.0)
  | 3 -> sign (Float.ldexp (mant ()) (Random.State.int rs 2000 - 1000))
  | 4 -> sign (Float.ldexp (Random.State.float rs 1.0) (-1022 - Random.State.int rs 40))
  | 5 -> sign (two53 +. float_of_int (Random.State.int rs 9 - 4))
  | 6 -> sign (Float.ldexp (mant ()) (Random.State.int rs 60 - 5))
  | _ -> sign (Float.ldexp (mant ()) (Random.State.int rs 40 - 20))

let qd_floor_ok q f =
  let open Lp.Qd in
  leq (of_float f) q && lt q (add (of_float f) (of_int 1))

(* [v] is [q] rounded to the nearest double, ties to even. *)
let correctly_rounded q v =
  let open Lp.Qd in
  if Float.is_finite v then begin
    let dist u = let d = sub q (of_float u) in if sign d < 0 then neg d else d in
    let d0 = dist v in
    let beats u =
      (not (Float.is_finite u))
      ||
      let du = dist u in
      lt d0 du || (equal d0 du && Int64.logand (Int64.bits_of_float v) 1L = 0L)
    in
    beats (Float.pred v) && beats (Float.succ v)
    && (Float.abs v < Float.max_float
       || lt (if sign q < 0 then neg q else q)
            (add (of_float Float.max_float) (of_float (Float.ldexp 1.0 970))))
  end
  else
    (* overflow: |q| reaches max_float plus half its last place *)
    let lim = add (of_float Float.max_float) (of_float (Float.ldexp 1.0 970)) in
    if v > 0.0 then geq q lim else leq q (neg lim)

let check_acc_reads what acc q =
  let module A = Lp.Qd.Acc in
  let open Lp.Qd in
  if not (equal (A.to_qd acc) q) then
    Alcotest.failf "%s: value %a, expected %a" what pp (A.to_qd acc) pp q;
  Alcotest.(check int) (what ^ ": sign") (sign q) (A.sign acc);
  Alcotest.(check bool) (what ^ ": zero") (is_zero q) (A.is_zero acc);
  Alcotest.(check bool) (what ^ ": integral") (is_integer q) (A.is_integer acc);
  (match A.floor acc with
  | Some f ->
      if not (qd_floor_ok q f && f >= -.two53 && f < two53) then
        Alcotest.failf "%s: floor %h wrong for %a" what f pp q
  | None ->
      if lt q (of_float two53) && geq q (of_float (-.two53)) then
        Alcotest.failf "%s: no floor for %a" what pp q);
  let v = A.to_float acc in
  if not (correctly_rounded q v) then
    Alcotest.failf "%s: to_float %h not the rounding of %a" what v pp q

(* Random sums of double products (and of a second register scaled by a
   double) against the same fold on {!Lp.Qd}. *)
let test_acc_vs_qd () =
  let module A = Lp.Qd.Acc in
  let rs = Random.State.make [| 2024 |] in
  let acc = A.create () and src = A.create () in
  for case = 1 to 3000 do
    A.clear acc;
    A.clear src;
    let q = ref Lp.Qd.zero and qs = ref Lp.Qd.zero in
    for _ = 1 to Random.State.int rs 4 do
      let a = gen_double rs and b = gen_double rs in
      A.add_prod src a b;
      qs := Lp.Qd.add !qs (Lp.Qd.mul (Lp.Qd.of_float a) (Lp.Qd.of_float b))
    done;
    (* up to 600 writes, past the deferred-carry limit *)
    let writes = if case mod 50 = 0 then 600 else 1 + Random.State.int rs 12 in
    for _ = 1 to writes do
      if Random.State.int rs 5 = 0 then begin
        let f = gen_double rs in
        A.add_scaled acc src f;
        q := Lp.Qd.add !q (Lp.Qd.mul !qs (Lp.Qd.of_float f))
      end
      else begin
        let a = gen_double rs and b = gen_double rs in
        A.add_prod acc a b;
        q := Lp.Qd.add !q (Lp.Qd.mul (Lp.Qd.of_float a) (Lp.Qd.of_float b))
      end;
      (* cancellation: sometimes subtract what is there back out *)
      if Random.State.int rs 40 = 0 then begin
        A.add_scaled acc src 1.0;
        A.add_scaled acc src (-1.0)
      end
    done;
    check_acc_reads (Printf.sprintf "case %d" case) acc !q
  done;
  (* fixed edge values: floors at the ends of the range, exact ties,
     subnormal products, overflow *)
  let edges =
    [
      [ (two53, 1.0) ];
      [ (two53, 1.0); (-0.5, 1.0) ];
      [ (two53, -1.0) ];
      [ (two53, -1.0); (-0.5, 1.0) ];
      [ (two53, -1.0); (0.5, 1.0) ];
      [ (two53, 1.0); (1.0, 1.0) ];
      [ (two53, 1.0); (3.0, 1.0) ];
      [ (two53, -1.0); (-1.0, 1.0) ];
      [ (two53, 1.0); (1.0, 1.0); (Float.ldexp 1.0 (-1074), 0.5) ];
      [ (Float.ldexp 1.0 (-1074), Float.ldexp 1.0 (-1074)) ];
      [ (Float.ldexp 1.0 (-1074), 1.0); (Float.ldexp 1.0 (-1073), -0.25) ];
      [ (Float.max_float, Float.max_float); (-.Float.max_float, Float.max_float) ];
      [ (Float.max_float, 1.0); (Float.ldexp 1.0 970, 1.0) ];
      [ (-0.0, 3.0) ];
    ]
  in
  (* 600 equal products of all-ones mantissas at every limb alignment:
     without the periodic carry propagation a limb would overflow *)
  let carries =
    List.init 26 (fun s ->
        let v = Float.ldexp (Float.pred 2.0) s in
        List.init 600 (fun _ -> (v, Float.pred 2.0)))
  in
  List.iter
    (fun terms ->
      A.clear acc;
      let q =
        List.fold_left
          (fun q (a, b) ->
            A.add_prod acc a b;
            Lp.Qd.add q (Lp.Qd.mul (Lp.Qd.of_float a) (Lp.Qd.of_float b)))
          Lp.Qd.zero terms
      in
      check_acc_reads "edge" acc q)
    (edges @ carries);
  (* non-finite inputs are rejected, as Qd.of_float rejects them *)
  Alcotest.check_raises "infinity" (Invalid_argument "Qd.Acc: non-finite")
    (fun () -> A.add_prod acc 1.0 infinity);
  Alcotest.check_raises "nan" (Invalid_argument "Qd.Acc: non-finite")
    (fun () -> A.add_scaled acc src Float.nan)

(* A random CG input: rows of every sense with integral and fractional
   coefficients, 0/1, general, and infinite bounds, right-hand sides
   near ±2^53 now and then, and multipliers from 1e-11 to 1e7 of either
   sign. *)
let gen_cg_input rs =
  let n = 1 + Random.State.int rs 7 and m = 1 + Random.State.int rs 5 in
  let coef () =
    match Random.State.int rs 6 with
    | 0 -> Random.State.float rs 20.0 -. 10.0
    | 1 -> float_of_int (Random.State.int rs 7 - 3) /. 3.0
    | _ -> float_of_int (Random.State.int rs 11 - 5)
  in
  let rows =
    Array.init m (fun _ ->
        let k = 1 + Random.State.int rs n in
        let cols = List.init k (fun _ -> Random.State.int rs n) in
        let cols = List.sort_uniq compare cols in
        Array.of_list (List.map (fun j -> (j, coef ())) cols))
  in
  let senses =
    Array.init m (fun _ ->
        match Random.State.int rs 3 with
        | 0 -> Lp.Model.Le
        | 1 -> Lp.Model.Ge
        | _ -> Lp.Model.Eq)
  in
  let rhs =
    Array.init m (fun _ ->
        match Random.State.int rs 8 with
        | 0 ->
            (if Random.State.bool rs then 1.0 else -1.0)
            *. (two53 -. float_of_int (Random.State.int rs 8))
        | 1 -> Random.State.float rs 30.0 -. 15.0
        | _ -> float_of_int (Random.State.int rs 21 - 10))
  in
  let integer = Array.init n (fun _ -> Random.State.int rs 4 > 0) in
  let lb = Array.make n 0.0 and ub = Array.make n 1.0 in
  for j = 0 to n - 1 do
    match Random.State.int rs 5 with
    | 0 | 1 -> ()
    | 2 ->
        lb.(j) <- float_of_int (Random.State.int rs 10 - 5);
        ub.(j) <- lb.(j) +. float_of_int (Random.State.int rs 10)
    | 3 ->
        lb.(j) <- (if Random.State.bool rs then neg_infinity else 0.0);
        ub.(j) <- infinity
    | _ ->
        lb.(j) <- neg_infinity;
        ub.(j) <- float_of_int (Random.State.int rs 10)
  done;
  let x =
    Array.init n (fun j ->
        let lo = if Float.is_finite lb.(j) then lb.(j) else -5.0 in
        let hi = if Float.is_finite ub.(j) then ub.(j) else lo +. 10.0 in
        lo +. Random.State.float rs (hi -. lo))
  in
  let lam =
    Array.init m (fun _ ->
        let s = if Random.State.bool rs then 1.0 else -1.0 in
        match Random.State.int rs 6 with
        | 0 -> 0.0
        | 1 -> s *. (10.0 ** (Random.State.float rs 18.0 -. 11.0))
        | 2 -> s *. float_of_int (Random.State.int rs 4) /. 2.0
        | _ -> s *. Random.State.float rs 1.0)
  in
  let raw =
    { Lp.Model.n; lb = Array.copy lb; ub = Array.copy ub; integer;
      obj = Array.make n 0.0; rows; senses; rhs }
  in
  (raw, lb, ub, x, lam)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_cut (a : Lp.Cert.cut) (b : Lp.Cert.cut) =
  let same_terms t u =
    Array.length t = Array.length u
    && Array.for_all2 (fun (j, v) (k, w) -> j = k && same_float v w) t u
  in
  same_terms a.cut_terms b.cut_terms
  && same_float a.cut_rhs b.cut_rhs
  &&
  match (a.cut_deriv, b.cut_deriv) with
  | Lp.Cert.Cg l, Lp.Cert.Cg l' -> same_terms l l'

let pp_cut = function
  | None -> "None"
  | Some (c : Lp.Cert.cut) ->
      String.concat " "
        (Array.to_list
           (Array.map (fun (j, v) -> Printf.sprintf "%d:%h" j v) c.cut_terms))
      ^ Printf.sprintf " <= %h" c.cut_rhs

(* [Some ⌊q⌋] when [-2^53 <= ⌊q⌋ < 2^53], else [None]: the floor the
   derivation means, found with exact comparisons only. *)
let exact_floor q =
  let open Lp.Qd in
  if lt q (of_float (-.two53)) || geq q (of_float two53) then None
  else begin
    let f = ref (int_of_float (Float.floor (to_float q))) in
    let lim = 1 lsl 53 in
    f := Int.max (-lim) (Int.min (lim - 1) !f);
    while lt q (of_int !f) do decr f done;
    while leq (of_int (!f + 1)) q do incr f done;
    Some (float_of_int !f)
  end

(* Every candidate against the reference. Where each floor the reference
   took is the exact one, the two agree bit for bit. The reference's
   floor starts from [Qd.to_float], which truncates, so at |q| >= 2^50 it
   can miss an in-range floor, and [f +. 1.0] rounds past 2^53, so it can
   return a floor below -2^53; on those candidates the derivation must
   equal the reference run with the exact floor. *)
let test_cg_vs_reference () =
  let rs = Random.State.make [| 77 |] in
  let cuts = ref 0 and nones = ref 0 and off_floors = ref 0 in
  for case = 1 to 20000 do
    let raw, lb, ub, x, lam = gen_cg_input rs in
    let got = Lp.Cutgen.cg_of_multipliers raw ~lb ~ub ~x lam in
    let off = ref false in
    let watched q =
      let f = Ref_cg.qfloor q in
      if f <> exact_floor q then begin
        off := true;
        if Lp.Qd.lt (Lp.Qd.of_float (-.Float.ldexp 1.0 50)) q
           && Lp.Qd.lt q (Lp.Qd.of_float (Float.ldexp 1.0 50))
        then
          Alcotest.failf "case %d: reference floor of %a is off" case Lp.Qd.pp q
      end;
      f
    in
    let want = Ref_cg.cg_of_multipliers ~qfloor:watched raw ~lb ~ub ~x lam in
    let want =
      if !off then begin
        incr off_floors;
        Ref_cg.cg_of_multipliers ~qfloor:exact_floor raw ~lb ~ub ~x lam
      end
      else want
    in
    (match (got, want) with
    | None, None -> incr nones
    | Some g, Some w when same_cut g w -> incr cuts
    | _ ->
        Alcotest.failf "case %d: got %s, reference %s" case (pp_cut got)
          (pp_cut want))
  done;
  (* the inputs must exercise both outcomes, and the off floors must
     stay the rare, large-magnitude exception *)
  Alcotest.(check bool)
    (Printf.sprintf "%d cuts, %d rejections, %d off floors" !cuts !nones
       !off_floors)
    true
    (!cuts > 1000 && !nones > 1000 && !off_floors < 200)

(* One separation pass over [gen_cg_input]'s inputs: three rounds on one
   [seen], at [x], at [x] with some columns moved, and at [x] again, where
   every fractional integer column's candidate aggregates with the same
   [lam] (odd columns get none). Whatever the memo hands back must be
   what [cg_of_multipliers] derives afresh, in column order. *)
let test_cg_memo () =
  let rs = Random.State.make [| 41 |] in
  let hits = ref 0 and moved_cuts = ref 0 in
  for case = 1 to 3000 do
    let raw, lb, ub, x, lam = gen_cg_input rs in
    let n = raw.Lp.Model.n in
    let moved =
      Array.mapi
        (fun j v ->
          if Random.State.bool rs then v
          else
            let lo = if Float.is_finite lb.(j) then lb.(j) else -5.0 in
            let hi = if Float.is_finite ub.(j) then ub.(j) else lo +. 10.0 in
            lo +. Random.State.float rs (hi -. lo))
        x
    in
    let multipliers c f =
      c mod 2 = 0
      && begin
           for i = Array.length lam - 1 downto 0 do
             if lam.(i) <> 0.0 then f i lam.(i)
           done;
           true
         end
    in
    let seen = Lp.Cutgen.seen () in
    List.iteri
      (fun round x ->
        let got =
          List.rev
            (Lp.Cutgen.cg_cuts seen raw ~lb ~ub ~x ~multipliers
               ~budget:(fun () -> false))
        in
        let want =
          List.filter_map
            (fun c ->
              if raw.Lp.Model.integer.(c) && c mod 2 = 0
                 && Float.abs (x.(c) -. Float.round x.(c)) > 0.005
              then Lp.Cutgen.cg_of_multipliers raw ~lb ~ub ~x lam
              else None)
            (List.init n Fun.id)
        in
        if not (List.equal same_cut got want) then
          Alcotest.failf "case %d round %d: %d cuts, fresh derivations %d" case
            round (List.length got) (List.length want);
        if round = 1 then moved_cuts := !moved_cuts + List.length got;
        if round = 2 then hits := !hits + List.length got)
      [ x; moved; x ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d cuts at the moved point, %d from the memo" !moved_cuts
       !hits)
    true
    (!moved_cuts > 100 && !hits > 100)

(* [Presolve.tighten] as it stood, re-folding the row for every term's
   coefficient and rest activity, kept verbatim as the reference the
   one-summary-per-row-view scan must reproduce event for event. *)
module Ref_presolve = struct
  open Lp

  let eps = 1e-9

  (* ------------------------------------------------------------------ *)
  (* Exact activity helpers                                              *)
  (* ------------------------------------------------------------------ *)

  let qone = Qd.of_int 1

  (* Minimum activity of [row] over the box, excluding column [skip].
     [None] means -infinity (an unbounded column contributes). Exact. *)
  let min_activity_rest ~lb ~ub ~skip row =
    let acc = ref (Some Qd.zero) in
    Array.iter
      (fun (k, c) ->
        if k <> skip && c <> 0.0 then
          match !acc with
          | None -> ()
          | Some s ->
              let b = if c > 0.0 then lb.(k) else ub.(k) in
              if Float.is_finite b then
                acc := Some (Qd.add s (Qd.mul (Qd.of_float c) (Qd.of_float b)))
              else acc := None)
      row;
    !acc

  (* Float twin of the above, for cheap candidate scanning. *)
  let min_activity_rest_f ~lb ~ub ~skip row =
    let acc = ref 0.0 in
    Array.iter
      (fun (k, c) ->
        if k <> skip && c <> 0.0 then
          acc := !acc +. (c *. if c > 0.0 then lb.(k) else ub.(k)))
      row;
    !acc

  (* The audit's CERT111 validity condition for one row-implied event, in
     exact arithmetic (see Analyze.Audit): with the row in [<=] form
     [c·x <= d], minimum rest-activity [ma], and coefficient [cj] on the
     tightened variable:
     - upper bound [u] on an integer column: [cj·(u+1) + ma > d] and [u]
       integral — any integer point above [u] violates the row;
     - upper bound [u] on a continuous column: [cj·u + ma >= d];
     - lower bounds mirror with [cj < 0] and [u-1]/[u]. *)
  let event_valid_exact ~integer ~cj ~ma ~d ~hi v =
    let qv = Qd.of_float v
    and qc = Qd.of_float cj
    and qd = Qd.of_float d in
    if integer && not (Qd.is_integer qv) then false
    else
      let shifted =
        if not integer then qv
        else if hi then Qd.add qv qone
        else Qd.sub qv qone
      in
      let lhs = Qd.add (Qd.mul qc shifted) ma in
      if integer then Qd.lt qd lhs else Qd.geq lhs qd

  (* ------------------------------------------------------------------ *)
  (* Certificate-logged bound tightening                                 *)
  (* ------------------------------------------------------------------ *)

  (* One [<=]-form view of row [i]: [Some (c, d)] with the terms scaled by
     [dir] = +1 or -1. [Le] rows expose the +1 view, [Ge] rows the -1
     view, [Eq] rows both. *)
  let le_views (raw : Model.raw) i =
    match raw.senses.(i) with
    | Model.Le -> [ 1.0 ]
    | Model.Ge -> [ -1.0 ]
    | Model.Eq -> [ 1.0; -1.0 ]

  let tighten ?(max_passes = 10) (raw : Model.raw) =
    let n = raw.n in
    let lb = Array.copy raw.lb and ub = Array.copy raw.ub in
    let events = ref [] in
    let emit e = events := e :: !events in
    let changed = ref false in
    (* Integrality rounding of fractional model bounds (t_row = -1). *)
    for j = 0 to n - 1 do
      if raw.integer.(j) then begin
        (if Float.is_finite ub.(j) then
           let f = Float.floor ub.(j) in
           if f < ub.(j) && f >= lb.(j) -. eps then begin
             emit { Cert.t_var = j; t_hi = true; t_new = f; t_row = -1 };
             ub.(j) <- f;
             changed := true
           end);
        if Float.is_finite lb.(j) then
          let c = Float.ceil lb.(j) in
          if c > lb.(j) && c <= ub.(j) +. eps then begin
            emit { Cert.t_var = j; t_hi = false; t_new = c; t_row = -1 };
            lb.(j) <- c;
            changed := true
          end
      end
    done;
    (* Try to install [v0] as the new [hi]/[lo] bound of [j], implied by
       row [i] in the [<=]-form view [row_v] (terms already scaled) with
       coefficient [cj]. Verifies the exact condition before emitting;
       nudges the candidate toward validity a few times when float
       rounding put it a hair on the wrong side. *)
    let try_bound ~i ~j ~cj ~d ~row_v ~hi v0 =
      let integer = raw.integer.(j) in
      let improves v =
        if hi then v < ub.(j) -. (eps *. (1.0 +. Float.abs ub.(j)))
        else v > lb.(j) +. (eps *. (1.0 +. Float.abs lb.(j)))
      in
      let inside v = if hi then v >= lb.(j) -. eps else v <= ub.(j) +. eps in
      let v0 = if integer then (if hi then Float.floor v0 else Float.ceil v0) else v0 in
      if improves v0 && inside v0 then
        match min_activity_rest ~lb ~ub ~skip:j row_v with
        | None -> ()
        | Some ma ->
            let step v k =
              (* relax the candidate toward validity: a larger ub / smaller
                 lb stays implied whenever the tighter value was *)
              if integer then if hi then v +. float_of_int k else v -. float_of_int k
              else
                let h = Float.abs v *. 1e-12 +. 1e-12 in
                if hi then v +. (float_of_int k *. h) else v -. (float_of_int k *. h)
            in
            let rec attempt k =
              if k > 3 then ()
              else
                let v = step v0 k in
                if not (improves v) then ()
                else if event_valid_exact ~integer ~cj ~ma ~d ~hi v then begin
                  emit { Cert.t_var = j; t_hi = hi; t_new = v; t_row = i };
                  if hi then ub.(j) <- v else lb.(j) <- v;
                  changed := true
                end
                else attempt (k + 1)
            in
            attempt 0
    in
    let pass () =
      changed := false;
      Array.iteri
        (fun i row ->
          List.iter
            (fun dir ->
              let d = dir *. raw.rhs.(i) in
              (* view-space row: terms scaled by [dir] *)
              let row_v =
                if dir = 1.0 then row
                else Array.map (fun (k, c) -> (k, -.c)) row
              in
              Array.iter
                (fun (j, _) ->
                  let cj =
                    (* view-space coefficient of [j] *)
                    Array.fold_left
                      (fun acc (k, c) -> if k = j then acc +. c else acc)
                      0.0 row_v
                  in
                  if cj <> 0.0 then begin
                    let ma_f = min_activity_rest_f ~lb ~ub ~skip:j row_v in
                    if Float.is_finite ma_f then
                      try_bound ~i ~j ~cj ~d ~row_v ~hi:(cj > 0.0)
                        ((d -. ma_f) /. cj)
                  end)
                row)
            (le_views raw i))
        raw.rows;
      !changed
    in
    let p = ref 0 in
    while !p < max_passes && pass () do
      incr p
    done;
    (lb, ub, List.rev !events)
end

(* Random models for [tighten]: mixed senses, integral, fractional and
   widely scaled coefficients, a column listed twice now and then, and
   0/1, general, one-sided and free columns. *)
let gen_presolve_model rs =
  let n = 1 + Random.State.int rs 8 and m = 1 + Random.State.int rs 6 in
  let rows =
    Array.init m (fun _ ->
        let scale = 10.0 ** float_of_int (Random.State.int rs 13 - 6) in
        let k = 1 + Random.State.int rs (n + 1) in
        Array.init k (fun _ ->
            let c =
              match Random.State.int rs 4 with
              | 0 -> Random.State.float rs 8.0 -. 4.0
              | 1 -> 0.0
              | _ -> float_of_int (Random.State.int rs 9 - 4)
            in
            (Random.State.int rs n, c *. scale)))
  in
  let senses =
    Array.init m (fun _ ->
        match Random.State.int rs 3 with
        | 0 -> Lp.Model.Le
        | 1 -> Lp.Model.Ge
        | _ -> Lp.Model.Eq)
  in
  let rhs =
    Array.map
      (fun row ->
        let s = Array.fold_left (fun s (_, c) -> s +. Float.abs c) 0.0 row in
        ((Random.State.float rs 2.0 -. 0.5) *. s)
        +. float_of_int (Random.State.int rs 5 - 2))
      rows
  in
  let integer = Array.init n (fun _ -> Random.State.bool rs) in
  let lb = Array.make n 0.0 and ub = Array.make n 1.0 in
  for j = 0 to n - 1 do
    match Random.State.int rs 6 with
    | 0 | 1 -> ()
    | 2 ->
        lb.(j) <- Random.State.float rs 10.0 -. 5.0;
        ub.(j) <- lb.(j) +. Random.State.float rs 20.0
    | 3 -> ub.(j) <- infinity
    | 4 -> lb.(j) <- neg_infinity
    | _ ->
        lb.(j) <- neg_infinity;
        ub.(j) <- infinity
  done;
  { Lp.Model.n; lb; ub; integer; obj = Array.make n 0.0; rows; senses; rhs }

(* x0 + x1 - x2 <= 10 with x1 >= 1e16 and x2 <= 1e16: the row-order sum
   of all three activities rounds x0's 1 away (1 + 1e16 = 1e16), so the
   whole-row sum minus x0's term reads -1 where x0's rest activity is 0.
   Only the interval's slack keeps x0's tightening to 10. *)
let cancelling_row =
  {
    Lp.Model.n = 3;
    lb = [| 1.0; 1e16; 0.0 |];
    ub = [| 10.5; infinity; 1e16 |];
    integer = [| false; false; false |];
    obj = [| 0.0; 0.0; 0.0 |];
    rows = [| [| (0, 1.0); (1, 1.0); (2, -1.0) |] |];
    senses = [| Lp.Model.Le |];
    rhs = [| 10.0 |];
  }

let test_presolve_vs_reference () =
  let rs = Random.State.make [| 4242 |] in
  let events = ref 0 in
  for case = 0 to 5000 do
    let raw = if case = 0 then cancelling_row else gen_presolve_model rs in
    let lb, ub, ev = Lp.Presolve.tighten raw in
    let lb', ub', ev' = Ref_presolve.tighten raw in
    let same a b = Array.for_all2 same_float a b in
    let same_event (e : Lp.Cert.tighten) (f : Lp.Cert.tighten) =
      e.t_var = f.t_var && e.t_hi = f.t_hi && e.t_row = f.t_row
      && same_float e.t_new f.t_new
    in
    if not (same lb lb' && same ub ub' && List.length ev = List.length ev'
            && List.for_all2 same_event ev ev')
    then Alcotest.failf "case %d: %d events, reference %d" case
        (List.length ev) (List.length ev');
    events := !events + List.length ev
  done;
  Alcotest.(check bool) (Printf.sprintf "%d events" !events) true (!events > 2000)

(* ------------------------------------------------------------------ *)
(* Lp.Model: row normalization and the variable arrays                 *)
(* ------------------------------------------------------------------ *)

(* Row normalization as it stood on a per-row [Hashtbl], kept verbatim
   as the reference [Lp.Model]'s sort-and-merge must reproduce bit for
   bit: each variable's coefficients summed from [0.0] in list order,
   exact zeros dropped, sorted by variable. *)
let ref_normalize_terms terms =
  let tbl = Hashtbl.create (List.length terms) in
  List.iter
    (fun (c, v) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (prev +. c))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0.0 then acc else (v, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Term lists over a few variables, unsorted, with repeats: coefficients
   that cancel to exactly 0 (a value and its negation), [-0.0] and
   [0.0], and decimals whose sum depends on the order of the additions. *)
let terms_gen =
  QCheck.Gen.(
    int_range 1 8 >>= fun nv ->
    list_size (int_range 0 24)
      (pair
         (oneof
            [
              map float_of_int (int_range (-3) 3);
              oneofl [ -0.0; 0.0; 0.1; 0.2; 0.3; -0.1; -0.3; 1e-17; -1e16; 1e16 ];
              float_range (-10.0) 10.0;
            ])
         (int_range 0 (nv - 1)))
    >>= fun terms ->
    (* append the negation of some prefix terms, so sums cancel *)
    int_range 0 (List.length terms) >|= fun k ->
    (nv, terms @ List.filteri (fun i _ -> i < k) (List.map (fun (c, v) -> (-.c, v)) terms)))

let same_terms got want =
  List.length got = List.length want
  && List.for_all2 (fun (c, v) (v', c') -> v = v' && same_float c c') got want

let model_rows_normalize =
  QCheck.Test.make ~name:"Model.rows = Hashtbl normalization" ~count:1000
    (QCheck.make
       ~print:(fun (nv, terms) ->
         Printf.sprintf "%d vars: %s" nv
           (String.concat " " (List.map (fun (c, v) -> Printf.sprintf "%h*x%d" c v) terms)))
       terms_gen)
    (fun (nv, terms) ->
      let m = Lp.Model.create () in
      let xs = Array.init nv (fun i -> Lp.Model.add_var m (lazy (Printf.sprintf "x%d" i))) in
      let increasing = List.sort_uniq (fun (_, a) (_, b) -> Int.compare a b) terms in
      let terms = List.map (fun (c, v) -> (c, xs.(v))) terms in
      Lp.Model.add_le m terms 1.0;
      Lp.Model.add_eq m (List.rev terms) 0.0;
      (* strictly increasing by variable: stored without a sort *)
      let increasing = List.map (fun (c, v) -> (c, xs.(v))) increasing in
      Lp.Model.add_ge m increasing 0.0;
      Lp.Model.set_objective m terms;
      let index = List.map (fun (c, v) -> (c, Lp.Model.var_index v)) in
      let want l = ref_normalize_terms (index l) in
      let rows = Lp.Model.rows m in
      let _, r0, _, _ = rows.(0) and _, r1, _, _ = rows.(1) and _, r2, _, _ = rows.(2) in
      let raw = Lp.Model.to_raw m in
      same_terms (index r0) (want terms)
      && same_terms (index r1) (want (List.rev terms))
      && same_terms (index r2) (want increasing)
      && same_terms (index (Lp.Model.objective_terms m)) (want terms)
      && same_terms
           (List.map (fun (v, c) -> (c, v)) (Array.to_list raw.Lp.Model.rows.(0)))
           (want terms))

(* Nothing on the solver path reads a name: a model whose every name
   raises when forced solves with presolve, cuts, certificates and the
   audit, and [check] forces only the name of the variable it reports. *)
let test_names_unforced () =
  let m = Lp.Model.create () in
  let var i ~ub =
    Lp.Model.add_var m ~integer:true ~ub
      (lazy (failwith (Printf.sprintf "name of x%d forced" i)))
  in
  let xs = Array.init 4 (fun i -> var i ~ub:5.0) in
  let row i = Some (lazy (failwith (Printf.sprintf "name of row %d forced" i))) in
  let t cs = List.map2 (fun c x -> (c, x)) cs (Array.to_list xs) in
  (* LP optimum x0 + x1 = 1.5, x2 + x3 = 2.5: presolve rounds the upper
     bounds and Chvátal–Gomory cuts round both sums down *)
  Lp.Model.add_le m ?name:(row 0) (t [ 2.0; 2.0; 0.0; 0.0 ]) 3.0;
  Lp.Model.add_le m ?name:(row 1) (t [ 0.0; 0.0; 2.0; 2.0 ]) 5.0;
  Lp.Model.add_ge m ?name:(row 2) (t [ 1.0; 0.0; 1.0; 0.0 ]) 1.0;
  Lp.Model.set_objective m (t [ -1.0; -1.1; -1.2; -1.3 ]);
  List.iter
    (fun certificates ->
      let r =
        Lp.Milp.solve ~time_limit:10.0 ~domains:1 ~cuts:true ~presolve:true
          ~certificates ~incumbent:[| 1.0; 0.0; 0.0; 0.0 |] m
      in
      Alcotest.(check bool) "optimal" true (r.Lp.Milp.status = Lp.Milp.Optimal);
      Alcotest.(check bool) "a cut round" true (r.Lp.Milp.stats.Lp.Milp.cut_rounds > 0);
      match r.Lp.Milp.cert with
      | None -> ()
      | Some cert ->
          Alcotest.(check bool) "presolve events" true (cert.Lp.Cert.presolve <> []);
          Alcotest.(check int) "audit errors" 0
            (List.length (Analyze.Diag.errors (Analyze.Audit.check_result m r))))
    [ false; true ];
  Alcotest.check_raises "check names the variable at fault"
    (Failure "name of x2 forced") (fun () ->
      ignore
        (Lp.Model.check m
           ~values:(fun v -> if Lp.Model.var_index v = 2 then 9.0 else 0.0)
           ()))

(* A model of several thousand variables: every accessor returns what
   was added, [fix] narrows one variable only, and [check]'s error names
   the variable or row at fault. *)
let test_model_large () =
  let n = 5000 in
  let m = Lp.Model.create ~name:"large" () in
  let lb i = float_of_int ((i mod 7) - 3) in
  let ub i = if i mod 5 = 0 then infinity else lb i +. float_of_int (1 + (i mod 4)) in
  let integer i = i mod 3 = 0 in
  let xs =
    Array.init n (fun i ->
        Lp.Model.add_var m ~integer:(integer i) ~lb:(lb i) ~ub:(ub i)
          (lazy (Printf.sprintf "v%d" i)))
  in
  (* x_i + x_{i+1} <= lb_i + lb_{i+1} + 1, every other row named *)
  for i = 0 to n - 2 do
    let name = if i mod 2 = 0 then Some (lazy (Printf.sprintf "pair%d" i)) else None in
    Lp.Model.add_le m ?name [ (1.0, xs.(i)); (1.0, xs.(i + 1)) ] (lb i +. lb (i + 1) +. 1.0)
  done;
  Lp.Model.set_objective m (List.init n (fun i -> (float_of_int (i mod 11), xs.(n - 1 - i))));
  Alcotest.(check int) "vars" n (Lp.Model.num_vars m);
  Alcotest.(check int) "rows" (n - 1) (Lp.Model.num_constraints m);
  Array.iteri
    (fun i x ->
      if Lp.Model.bounds m x <> (lb i, ub i) then Alcotest.failf "bounds of v%d" i;
      if Lp.Model.is_integer m x <> integer i then Alcotest.failf "is_integer v%d" i;
      if Lp.Model.var_name m x <> Printf.sprintf "v%d" i then Alcotest.failf "name v%d" i;
      if Lp.Model.var_of_index m i <> x then Alcotest.failf "index v%d" i)
    xs;
  let obj = Lp.Model.objective_terms m in
  Alcotest.(check int) "objective drops zeros" (n - ((n + 10) / 11)) (List.length obj);
  ignore
    (List.fold_left
       (fun prev (c, v) ->
         let j = Lp.Model.var_index v in
         if j <= prev then Alcotest.fail "objective terms out of order";
         if c <> float_of_int ((n - 1 - j) mod 11) then
           Alcotest.failf "objective coefficient of v%d" j;
         j)
       (-1) obj);
  Lp.Model.fix m xs.(2500) (-1.0);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "fixed" (-1.0, -1.0)
    (Lp.Model.bounds m xs.(2500));
  Alcotest.(check (pair (float 0.0) (float 0.0))) "neighbour untouched"
    (lb 2501, ub 2501) (Lp.Model.bounds m xs.(2501));
  let raw = Lp.Model.to_raw m in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "to_raw sees the fix" (-1.0, -1.0)
    (raw.Lp.Model.lb.(2500), raw.Lp.Model.ub.(2500));
  (* every variable at its lower bound, v2500 at its fixed value, is
     feasible *)
  let point = Array.init n (fun i -> if i = 2500 then -1.0 else lb i) in
  let check p = Lp.Model.check m ~values:(fun v -> p.(Lp.Model.var_index v)) () in
  (match check point with
  | Ok () -> ()
  | Error e -> Alcotest.failf "feasible point rejected: %s" e);
  let expect what moves prefix =
    let p = Array.copy point in
    List.iter (fun (i, x) -> p.(i) <- x) moves;
    match check p with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error e ->
        let l = String.length prefix in
        if String.length e < l || String.sub e 0 l <> prefix then
          Alcotest.failf "%s: %S does not start %S" what e prefix
  in
  expect "out of bounds" [ (4321, ub 4321 +. 1.0) ] "variable v4321 = ";
  expect "off the fix" [ (2500, lb 2500) ] "variable v2500 = ";
  expect "fractional" [ (3999, lb 3999 +. 0.5) ] "variable v3999 = ";
  expect "violated row" [ (4001, lb 4001 +. 1.0); (4002, lb 4002 +. 1.0) ] "row4001: ";
  expect "violated named row" [ (4000, lb 4000 +. 1.0); (4001, lb 4001 +. 1.0) ] "pair4000: "

(* --- cold rebuilds refill the tableau they replace --------------------- *)

(* Six columns, rows of all three senses with non-dyadic coefficients,
   and nonzero lower bounds. The slack basis violates several rows, so
   the dual phase follows the steepest-edge weights, and x0 (cost -1.3,
   no upper bound) runs the dual phase at cost 0. *)
let rebuild_raw () =
  let m = Lp.Model.create () in
  let bounds =
    [| (0.0, infinity); (0.0, 4.0); (1.0, 5.0); (0.0, 3.0); (0.0, infinity);
       (-1.0, 2.0) |]
  in
  let x =
    Array.mapi
      (fun i (lb, ub) -> Lp.Model.add_var m ~lb ~ub (lazy (Printf.sprintf "x%d" i)))
      bounds
  in
  let t = List.map (fun (c, i) -> (c, x.(i))) in
  Lp.Model.add_ge m (t [ (0.3, 0); (1.1, 1); (-0.7, 2); (1.0, 3) ]) 1.7;
  Lp.Model.add_le m (t [ (1.0, 0); (1.0, 2); (0.6, 4) ]) 6.1;
  Lp.Model.add_ge m (t [ (1.9, 1); (0.2, 3); (1.0, 4); (-0.5, 5) ]) 2.3;
  Lp.Model.add_eq m (t [ (1.0, 0); (-1.0, 1); (0.8, 5) ]) 0.9;
  Lp.Model.add_le m (t [ (0.45, 0); (1.0, 2); (1.0, 3); (1.3, 4) ]) 7.7;
  Lp.Model.add_ge m (t [ (1.0, 1); (1.0, 3); (1.0, 4) ]) 1.25;
  Lp.Model.set_objective m
    (t [ (-1.3, 0); (0.7, 1); (-0.9, 2); (1.1, 3); (0.4, 4); (-0.2, 5) ]);
  Lp.Model.to_raw m

let rebuild_cuts =
  [| ([| (0, 1.0); (2, 1.0) |], 3.1); ([| (1, 1.0); (4, 0.5) |], 1.9);
     ([| (0, 0.7); (3, 1.0); (5, -1.0) |], 2.2) |]

(* [raw] with [cuts] appended as [<=] rows, the system [add_rows] leaves
   in the state *)
let with_rows (raw : Lp.Model.raw) cuts =
  { raw with
    Lp.Model.rows = Array.append raw.Lp.Model.rows (Array.map fst cuts);
    senses = Array.append raw.senses (Array.make (Array.length cuts) Lp.Model.Le);
    rhs = Array.append raw.rhs (Array.map snd cuts) }

let same_solve what (want : Lp.Simplex.result) (got : Lp.Simplex.result) =
  let h = Printf.sprintf "%h" in
  Alcotest.(check string) (what ^ ": status") (status_name want.status)
    (status_name got.status);
  Alcotest.(check int) (what ^ ": iterations") want.iterations got.iterations;
  Alcotest.(check string) (what ^ ": objective") (h want.objective)
    (h got.objective);
  Alcotest.(check (array string)) (what ^ ": x") (Array.map h want.x)
    (Array.map h got.x)

(* Drive a state into a cold rebuild for [reason], with or without cut
   rows grown into the tableau by capacity first ([grown]), and require
   the rebuilding resolve to be a fresh [Simplex.solve] of the same
   system, bit for bit. Every rebuild reuses the tableau it replaces. *)
let rebuild_case reason ~grown () =
  let raw = rebuild_raw () in
  let lb = Array.copy raw.lb and ub = Array.copy raw.ub in
  (* x0 fixed at 1 sits at its upper bound (its cost is negative) *)
  if reason = "dual_infeasible" then (lb.(0) <- 1.0; ub.(0) <- 1.0);
  let _, st = Lp.Simplex.solve_state ~lb ~ub raw in
  let raw =
    if grown then begin
      Lp.Simplex.add_rows st rebuild_cuts;
      with_rows raw rebuild_cuts
    end
    else raw
  in
  (match reason with
  | "stale_basis" ->
      (* a repair stopped by an expired deadline leaves no basis *)
      lb.(1) <- 2.5;
      ub.(3) <- 0.25;
      let deadline = Resilience.Deadline.of_budget 0.0 in
      let r = Lp.Simplex.resolve ~deadline ~lb ~ub st in
      Alcotest.(check string) "stopped by the deadline" "time-limit"
        (status_name r.status)
  | "periodic" ->
      for _ = 1 to 255 do
        ignore (Lp.Simplex.resolve ~lb ~ub st)
      done;
      lb.(1) <- 2.5
  | "dual_infeasible" ->
      (* a warm resolve first, then x0 unfixed: with no upper bound it
         falls to its lower one, where its reduced cost has the wrong
         sign *)
      lb.(1) <- 0.5;
      ignore (Lp.Simplex.resolve ~lb ~ub st);
      Alcotest.(check bool) "warm before" true (Lp.Simplex.last_resolve_warm st);
      lb.(0) <- raw.lb.(0);
      ub.(0) <- raw.ub.(0)
  | _ -> assert false);
  let value name = Obs.Counter.value (Obs.Counter.get name) in
  let cold = value "simplex.resolve_cold"
  and why = value ("simplex.resolve_cold." ^ reason) in
  let got = Lp.Simplex.resolve ~lb ~ub st in
  Alcotest.(check bool) "cold" false (Lp.Simplex.last_resolve_warm st);
  Alcotest.(check (pair int int)) ("one rebuild for " ^ reason) (cold + 1, why + 1)
    (value "simplex.resolve_cold", value ("simplex.resolve_cold." ^ reason));
  same_solve reason (Lp.Simplex.solve ~lb ~ub raw) got

(* The same drive for a column the system itself fixes (x3 at 1.5), which
   the tableau stores out: a warm resolve first, then a box that moves x3
   off that value. It has no slot to move in, so the resolve rebuilds
   cold under [unfixed], storing it, and equals a fresh [Simplex.solve]
   bit for bit. *)
let unfixed_case ~grown () =
  let raw = rebuild_raw () in
  let fix a = Array.mapi (fun j v -> if j = 3 then 1.5 else v) a in
  let raw = { raw with lb = fix raw.lb; ub = fix raw.ub } in
  let lb = Array.copy raw.lb and ub = Array.copy raw.ub in
  let value name = Obs.Counter.value (Obs.Counter.get name) in
  let cells = value "simplex.build_cells" in
  let _, st = Lp.Simplex.solve_state ~lb ~ub raw in
  Alcotest.(check int) "six rows over five stored columns" (6 * 5)
    (value "simplex.build_cells" - cells);
  let raw =
    if grown then begin
      Lp.Simplex.add_rows st rebuild_cuts;
      with_rows raw rebuild_cuts
    end
    else raw
  in
  lb.(1) <- 0.5;
  ignore (Lp.Simplex.resolve ~lb ~ub st);
  Alcotest.(check bool) "warm before" true (Lp.Simplex.last_resolve_warm st);
  lb.(3) <- 0.0;
  ub.(3) <- 3.0;
  let cold = value "simplex.resolve_cold"
  and why = value "simplex.resolve_cold.unfixed" in
  let cells = value "simplex.build_cells" in
  let got = Lp.Simplex.resolve ~lb ~ub st in
  Alcotest.(check bool) "cold" false (Lp.Simplex.last_resolve_warm st);
  Alcotest.(check (pair int int)) "one rebuild for unfixed" (cold + 1, why + 1)
    (value "simplex.resolve_cold", value "simplex.resolve_cold.unfixed");
  Alcotest.(check int) "x3 stored again"
    ((if grown then 9 else 6) * 6)
    (value "simplex.build_cells" - cells);
  same_solve "unfixed" (Lp.Simplex.solve ~lb ~ub raw) got

(* --- columns the system fixes are stored out ------------------------- *)

(* Property: a random LP (non-dyadic coefficients, both row senses) whose
   system fixes some columns at nonzero values, so that its tableau
   stores them out, gives the same bits as the same LP whose system
   leaves those columns in [0, 4] and whose calls' bounds fix them, so
   that they stay stored: [solve], then [solve_state] and a chain of
   [resolve]s under tightenings of the other columns, each optionally
   preceded by an [add_rows] cut over every column. Status, iterations,
   objective, [x], duals and basis statuses agree after every call. *)
let stored_out_inert =
  let gen =
    QCheck.Gen.(
      let coef = map (fun i -> float_of_int (i - 50) /. 7.0) (int_bound 100) in
      let third = map (fun i -> float_of_int i /. 3.0) in
      let* n = int_range 2 7 in
      let* m = int_range 1 6 in
      let* obj = list_repeat n coef in
      let* rows = list_repeat m (list_repeat n coef) in
      let* rhs = list_repeat m (third (int_bound 30)) in
      let* fixed = list_repeat n (opt ~ratio:0.4 (third (int_range 1 12))) in
      let cut =
        let* terms = list_repeat n coef in
        let* rhs = third (int_bound 30) in
        return (terms, rhs)
      in
      let* steps =
        list_size (int_range 1 6)
          (pair (triple (int_bound (n - 1)) bool (third (int_bound 12))) (opt cut))
      in
      return (n, obj, rows, rhs, fixed, steps))
  in
  QCheck.Test.make ~name:"stored-out columns are inert" ~count:300
    (QCheck.make gen) (fun (n, obj, rows, rhs, fixed, steps) ->
      let m = Lp.Model.create () in
      let xs = List.init n (fun i -> Lp.Model.add_var m ~ub:4.0 (lazy (Printf.sprintf "x%d" i))) in
      List.iteri
        (fun i (row, b) ->
          let terms = List.map2 (fun c x -> (c, x)) row xs in
          if i mod 2 = 0 then Lp.Model.add_le m terms b
          else Lp.Model.add_ge m terms (-.b))
        (List.combine rows rhs);
      Lp.Model.set_objective m (List.map2 (fun c x -> (c, x)) obj xs);
      let free = Lp.Model.to_raw m in
      let fixed = Array.of_list fixed in
      let fix a = Array.mapi (fun j v -> Option.value fixed.(j) ~default:v) a in
      let sys = { free with lb = fix free.lb; ub = fix free.ub } in
      let lb = Array.copy sys.lb and ub = Array.copy sys.ub in
      let same (a : Lp.Simplex.result) (b : Lp.Simplex.result) =
        a.status = b.status && a.iterations = b.iterations
        && same_float a.objective b.objective
        && Array.for_all2 same_float a.x b.x
      in
      let same_state sa sb =
        (match (Lp.Simplex.duals sa, Lp.Simplex.duals sb) with
        | Some u, Some v -> Array.for_all2 same_float u v
        | None, None -> true
        | _ -> false)
        && List.for_all
             (fun j -> Lp.Simplex.basis_status sa j = Lp.Simplex.basis_status sb j)
             (List.init n Fun.id)
      in
      let ra, sa = Lp.Simplex.solve_state sys in
      let rb, sb = Lp.Simplex.solve_state ~lb ~ub free in
      same (Lp.Simplex.solve sys) (Lp.Simplex.solve ~lb ~ub free)
      && same ra rb && same_state sa sb
      && List.for_all
           (fun (((j, _, _) as step), cut) ->
             Option.iter
               (fun (terms, rhs) ->
                 let row =
                   [| (Array.of_list
                         (List.filter (fun (_, c) -> c <> 0.0) (List.mapi (fun j c -> (j, c)) terms)),
                       rhs) |]
                 in
                 Lp.Simplex.add_rows sa row;
                 Lp.Simplex.add_rows sb row)
               cut;
             if fixed.(j) = None then tighten lb ub step;
             let ra = Lp.Simplex.resolve ~lb ~ub sa in
             let rb = Lp.Simplex.resolve ~lb ~ub sb in
             same ra rb && same_state sa sb
             && Lp.Simplex.last_resolve_warm sa = Lp.Simplex.last_resolve_warm sb)
           steps)

(* --- recompute_beta against the column scan it replaced ---------------- *)

(* [recompute_beta] before it read the nonzero nonbasic columns off the
   slots, verbatim: every column scanned in increasing index. *)
let old_recompute_beta (t : Simplex_src.tab) =
  let open Simplex_src in
  let sc = scratch t in
  let k = ref 0 in
  for j = 0 to t.cols - 1 do
    match t.stat.(j) with
    | Basic _ -> ()
    | At_lower | At_upper ->
        let x = value t j in
        if x <> 0.0 then begin
          sc.nz.(!k) <- t.slot.(j);
          sc.nzv.(!k) <- x;
          incr k
        end
  done;
  for i = 0 to t.m - 1 do
    let row = t.a.(i) in
    let acc = ref t.b.(i) in
    for p = 0 to !k - 1 do
      let aij = row.(sc.nz.(p)) in
      if aij <> 0.0 then acc := !acc -. (aij *. sc.nzv.(p))
    done;
    t.beta.(i) <- !acc
  done

(* Property: on the tableau after a solve and after every resolve of a
   random tightening chain (non-dyadic coefficients, both row senses,
   bounds that park columns at nonzero values in permuted slots), the
   new [recompute_beta] writes the same bits as the old one. *)
let recompute_beta_matches_scan =
  let gen =
    QCheck.Gen.(
      let coef = map (fun i -> float_of_int (i - 50) /. 7.0) (int_bound 100) in
      let third = map (fun i -> float_of_int i /. 3.0) in
      let* n = int_range 2 7 in
      let* m = int_range 1 6 in
      let* obj = list_repeat n coef in
      let* rows = list_repeat m (list_repeat n coef) in
      let* rhs = list_repeat m (third (int_bound 30)) in
      let* steps =
        list_size (int_range 1 6) (triple (int_bound (n - 1)) bool (third (int_bound 12)))
      in
      return (n, obj, rows, rhs, steps))
  in
  QCheck.Test.make ~name:"recompute_beta = the column scan" ~count:300
    (QCheck.make gen) (fun (n, obj, rows, rhs, steps) ->
      let m = Lp.Model.create () in
      let xs = List.init n (fun i -> Lp.Model.add_var m ~ub:4.0 (lazy (Printf.sprintf "x%d" i))) in
      List.iteri
        (fun i (row, b) ->
          let terms = List.map2 (fun c x -> (c, x)) row xs in
          if i mod 2 = 0 then Lp.Model.add_le m terms b
          else Lp.Model.add_ge m terms (-.b))
        (List.combine rows rhs);
      Lp.Model.set_objective m (List.map2 (fun c x -> (c, x)) obj xs);
      let raw = Lp.Model.to_raw m in
      let _, st = Simplex_src.solve_state raw in
      let agree () =
        match st.Simplex_src.t with
        | None -> true
        | Some t ->
            old_recompute_beta t;
            let want = Array.sub t.beta 0 t.m in
            Simplex_src.recompute_beta t;
            Array.for_all2 same_float want (Array.sub t.beta 0 t.m)
      in
      let lb = Array.copy raw.lb and ub = Array.copy raw.ub in
      agree ()
      && List.for_all
           (fun step ->
             tighten lb ub step;
             ignore (Simplex_src.resolve ~lb ~ub st);
             agree ())
           steps)

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
          Alcotest.test_case "cycling dual repair" `Quick test_dual_cycling;
        ] );
      ( "milp",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "integer general" `Quick test_milp_integer_general;
          Alcotest.test_case "branch priority breaks ties" `Quick
            test_milp_branch_priority_ties;
          Alcotest.test_case "infeasible" `Quick test_milp_infeasible;
          Alcotest.test_case "incumbent" `Quick test_milp_incumbent;
          Alcotest.test_case "bad incumbent" `Quick test_milp_bad_incumbent;
          Alcotest.test_case "objective constant" `Quick test_objective_constant;
          Alcotest.test_case "time limit keeps incumbent" `Quick
            test_milp_time_limit_returns_feasible;
          Alcotest.test_case "capped root reports no bound" `Quick
            test_capped_root_bound;
          Alcotest.test_case "budget spent in the cut loop" `Quick
            test_budget_in_cut_loop;
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
      ( "sparse-kernel",
        [
          Alcotest.test_case "dense pivot row" `Quick test_kernel_dense_row;
          Alcotest.test_case "singleton pivot row" `Quick
            test_kernel_singleton_row;
          Alcotest.test_case "add_rows then warm resolves" `Quick
            test_kernel_add_rows_warm;
          Alcotest.test_case "singleton entering column" `Quick
            test_kernel_singleton_column;
          Alcotest.test_case "dense entering column" `Quick
            test_kernel_dense_column;
          Alcotest.test_case "add_rows past the scratch length" `Quick
            test_kernel_add_rows_grow;
          Alcotest.test_case "degenerate ratio ties" `Quick
            test_kernel_ratio_ties;
        ] );
      ( "condensed",
        [
          Alcotest.test_case "unit basic columns" `Quick
            test_condensed_unit_columns;
          Alcotest.test_case "add_rows drops artificials" `Quick
            test_condensed_add_rows_artificial;
        ] );
      ( "golden",
        [ Alcotest.test_case "solve path" `Quick test_golden_solve_path ] );
      ( "presolve-cuts",
        [
          Alcotest.test_case "presolve tighten" `Quick test_presolve_tighten;
          Alcotest.test_case "cg separation" `Quick test_cutgen_cg;
          Alcotest.test_case "round selection" `Quick test_round_selection;
          QCheck_alcotest.to_alcotest select_matches_reference;
          Alcotest.test_case "add_rows warm" `Quick test_add_rows_warm;
          Alcotest.test_case "cuts A/B parity" `Quick test_milp_cuts_ab_parity;
        ] );
      ( "exact cuts",
        [
          Alcotest.test_case "accumulator vs Qd folds" `Quick test_acc_vs_qd;
          Alcotest.test_case "cg vs reference" `Quick test_cg_vs_reference;
          Alcotest.test_case "cg memo" `Quick test_cg_memo;
          Alcotest.test_case "presolve vs reference" `Quick
            test_presolve_vs_reference;
        ] );
      qsuite "lp-random" [ lp_never_beaten_by_grid ];
      qsuite "milp-random" [ milp_matches_brute_force ];
      qsuite "resolve-random" [ resolve_equals_cold_solve ];
      ( "rebuild",
        List.concat_map
          (fun reason ->
            List.map
              (fun grown ->
                Alcotest.test_case
                  (Printf.sprintf "%s%s" reason (if grown then " after add_rows" else ""))
                  `Quick (rebuild_case reason ~grown))
              [ false; true ])
          [ "stale_basis"; "periodic"; "dual_infeasible" ]
        @ List.map
            (fun grown ->
              Alcotest.test_case
                ("unfixed" ^ if grown then " after add_rows" else "")
                `Quick (unfixed_case ~grown))
            [ false; true ]
        @ snd (qsuite "" [ recompute_beta_matches_scan; stored_out_inert ]) );
      ( "model",
        Alcotest.test_case "several thousand variables" `Quick test_model_large
        :: Alcotest.test_case "names stay unforced" `Quick test_names_unforced
        :: snd (qsuite "" [ model_rows_normalize ]) );
      ( "steepest-edge",
        Alcotest.test_case "steepest row leaves first" `Quick
          test_steepest_row_leaves_first
        :: snd (qsuite "" [ edge_weights_exact ]) );
    ]
