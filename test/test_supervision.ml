(* Solve supervision (DESIGN.md §3i): checkpoint/resume, worker-crash
   recovery, and the stall watchdog — plus the resilience-v2 satellites
   (wall-clock budgets at every domain count, bounded cascade retries).

   The load-bearing property throughout: recovery, watchdog requeues and
   resume only permute exploration order, so for solves that terminate by
   exhausting the tree the status, objective and incumbent are identical
   to an uninterrupted run's. *)

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps
let status_str s = Fmt.str "%a" Lp.Milp.pp_status s

let with_fault spec f =
  Resilience.Fault.clear ();
  (match Resilience.Fault.arm spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm %s: %s" spec e);
  Fun.protect ~finally:Resilience.Fault.clear f

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* Identical result triple — the "invisible to results" contract. *)
let check_same_result name (base : Lp.Milp.result) (r : Lp.Milp.result) =
  Alcotest.(check string)
    (name ^ ": status") (status_str base.status) (status_str r.status);
  (match base.status with
  | Lp.Milp.Optimal | Lp.Milp.Feasible ->
      if not (feq base.objective r.objective) then
        Alcotest.failf "%s: objective %.9g vs %.9g" name base.objective
          r.objective
  | _ -> ());
  if base.status = Lp.Milp.Optimal then
    Array.iteri
      (fun j v ->
        if not (feq v r.x.(j)) then
          Alcotest.failf "%s: x.(%d) = %.9g vs %.9g" name j v r.x.(j))
      base.x

(* --- models ---------------------------------------------------------- *)

(* The byte-identical-incumbent checks need a UNIQUE optimum: the solver
   fathoms at [bound >= best - 1e-9], so a subtree holding a tied
   alternative optimum can be pruned or explored depending on order, and
   kills/requeues/resume legitimately permute that order. The 2^i * 1e-6
   value perturbation gives every subset a distinct objective (subset
   sums of distinct powers of two are unique), well above the solver's
   1e-9 acceptance tolerance. *)
let knapsack ?(n = 12) () =
  let values =
    Array.init n (fun i ->
        float_of_int (5 + ((i * 7) mod 11)) +. Float.ldexp 1e-6 i)
  in
  let weights =
    Array.init n (fun i -> float_of_int (2 + ((i * 5) mod 7)))
  in
  let cap = Array.fold_left ( +. ) 0.0 weights /. 2.0 in
  let m = Lp.Model.create () in
  let xs =
    Array.mapi (fun i _ -> Lp.Model.bool_var m (Printf.sprintf "x%d" i)) values
  in
  Lp.Model.add_le m
    (Array.to_list (Array.mapi (fun i x -> (weights.(i), x)) xs))
    cap;
  Lp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (-.values.(i), x)) xs));
  m

(* LP-feasible but integer-infeasible parity instance: sum 2 x_i = odd.
   Every node's LP stays feasible until deep in the tree, so the search
   is enormous — the instance exists to keep all domains busy for the
   whole budget of the wall-clock test. *)
let parity_wall ?(n = 34) () =
  let m = Lp.Model.create () in
  let xs =
    Array.init n (fun i -> Lp.Model.bool_var m (Printf.sprintf "p%d" i))
  in
  Lp.Model.add_eq m
    (Array.to_list (Array.map (fun x -> (2.0, x)) xs))
    (float_of_int n +. 1.0);
  Lp.Model.set_objective m (Array.to_list (Array.map (fun x -> (1.0, x)) xs));
  m

(* --- satellite: wall-clock budget at every domain count --------------- *)

(* Regression for the resilience-v2 clock fix: the budget used to run on
   [Sys.time] CPU seconds, which accumulate across domains — at
   --domains 4 a 1 s budget expired after ~0.25 s of wall time. The
   budget must now mean wall seconds at any domain count (±10%). *)
let check_wall_budget domains =
  let budget = 1.0 in
  let r =
    Lp.Milp.solve ~time_limit:budget ~node_limit:max_int ~domains
      (parity_wall ())
  in
  (* the instance is unsolvable in 1 s: the stop must be the budget *)
  (match r.Lp.Milp.status with
  | Lp.Milp.Unknown | Lp.Milp.Feasible -> ()
  | s ->
      Alcotest.failf "parity wall solved (%s) — budget never engaged"
        (status_str s));
  let e = r.Lp.Milp.stats.Lp.Milp.elapsed in
  if e < 0.9 *. budget || e > 1.1 *. budget then
    Alcotest.failf "budget %.1fs at %d domains ran %.3fs (outside ±10%%)"
      budget domains e

let test_wall_budget_1_domain () = check_wall_budget 1
let test_wall_budget_4_domains () = check_wall_budget 4

let test_cpu_vs_wall_metric () =
  let r =
    Lp.Milp.solve ~time_limit:1.0 ~node_limit:max_int ~domains:4
      (parity_wall ())
  in
  let s = r.Lp.Milp.stats in
  Alcotest.(check bool) "cpu_s recorded" true (s.Lp.Milp.cpu_s > 0.0);
  (* 4 busy domains burn CPU faster than the wall clock ticks — the two
     metrics must be decoupled (this is exactly the old bug's
     signature). Only observable with real parallelism: on a single-core
     host the domains time-slice and CPU tracks the wall. *)
  if Domain.recommended_domain_count () >= 2 then
    Alcotest.(check bool)
      (Printf.sprintf "cpu %.2fs exceeds wall %.2fs under 4 domains"
         s.Lp.Milp.cpu_s s.Lp.Milp.elapsed)
      true
      (s.Lp.Milp.cpu_s > s.Lp.Milp.elapsed)

(* The host-independent half of the metric check: a solve wedged by
   [milp.stall] sleeps until its budget expires, so it burns far less
   CPU than wall time on any host, loaded or idle, with any core count.
   A [cpu_s] that copied [elapsed] fails here. *)
let test_cpu_below_wall_when_wedged () =
  let r =
    with_fault "milp.stall@1" (fun () ->
        Lp.Milp.solve ~time_limit:0.5 ~cuts:false ~domains:1 (knapsack ()))
  in
  let s = r.Lp.Milp.stats in
  Alcotest.(check bool)
    (Printf.sprintf "cpu %.3fs well below wall %.3fs while wedged"
       s.Lp.Milp.cpu_s s.Lp.Milp.elapsed)
    true
    (s.Lp.Milp.elapsed >= 0.4 && s.Lp.Milp.cpu_s < 0.5 *. s.Lp.Milp.elapsed)

(* --- checkpoint format ------------------------------------------------ *)

(* Root cover cuts close the knapsack at (or one dive past) the root,
   so every test whose premise is a multi-node tree — node-limit
   interrupts, faults armed at node 2 — pins [~cuts:false]. The tests
   exercise supervision mechanics, which are downstream of (and
   orthogonal to) root cut preparation. *)

(* Run a solve that stops mid-tree and leaves a checkpoint file behind. *)
let checkpointed_solve ?(certificates = false) ?(node_limit = 8) ?(domains = 1)
    ?(model = fun () -> knapsack ()) ~path () =
  let sink =
    {
      Lp.Milp.ck_path = path;
      ck_every_s = 3600.0;  (* node trigger + forced final write only *)
      ck_every_nodes = Some 2;
      ck_meta = Obs.Json.Obj [ ("origin", Obs.Json.String "test") ];
    }
  in
  Lp.Milp.solve ~time_limit:60.0 ~node_limit ~certificates ~cuts:false
    ~domains ~checkpoint:sink (model ())

let read_ck path =
  match Lp.Checkpoint.read ~path with
  | Ok ck -> ck
  | Error e -> Alcotest.failf "read %s: %s" path e

let check_roundtrip domains =
  let p1 = tmp "pipesyn_ck_rt.json" in
  let p2 = tmp "pipesyn_ck_rt2.json" in
  let r = checkpointed_solve ~certificates:true ~domains ~path:p1 () in
  Alcotest.(check bool) "snapshots were written" true
    (r.Lp.Milp.stats.Lp.Milp.checkpoints > 0);
  let ck = read_ck p1 in
  (* in-memory JSON round-trip *)
  (match Lp.Checkpoint.of_json (Lp.Checkpoint.to_json ck) with
  | Error e -> Alcotest.failf "of_json (to_json ck): %s" e
  | Ok ck' ->
      Alcotest.(check bool) "to_json/of_json identity" true
        (compare ck ck' = 0));
  (* on-disk round-trip: floats travel as hex strings, so this is
     bit-exact including infinities and NaN *)
  Lp.Checkpoint.write ~path:p2 ck;
  let ck2 = read_ck p2 in
  Alcotest.(check bool) "write/read identity" true (compare ck ck2 = 0);
  (* spot-check the payload is a real mid-solve frontier *)
  Alcotest.(check bool) "open frontier" true (ck.Lp.Checkpoint.frontier <> []);
  Alcotest.(check bool) "nodes done recorded" true
    (ck.Lp.Checkpoint.nodes_done > 0);
  (* the cut solve only has an incumbent if a dive completed before the
     node limit; when it does, the snapshot must carry it *)
  if r.Lp.Milp.status = Lp.Milp.Feasible then
    Alcotest.(check bool) "incumbent captured" true
      (ck.Lp.Checkpoint.incumbent <> None);
  Alcotest.(check bool) "pseudocost tables present" true
    (Array.length ck.Lp.Checkpoint.pc > 0);
  Alcotest.(check bool) "certificate prefix present" true
    (ck.Lp.Checkpoint.certs_on && ck.Lp.Checkpoint.cert_nodes <> []);
  Sys.remove p1;
  Sys.remove p2

(* A one-domain frontier, and a four-domain one that holds stolen
   subtrees. *)
let test_checkpoint_roundtrip () = List.iter check_roundtrip [ 1; 4 ]

let test_checkpoint_rejects_torn () =
  let p = tmp "pipesyn_ck_torn.json" in
  ignore (checkpointed_solve ~path:p ());
  let ck = read_ck p in
  (* the registered fault tears the write mid-file, in place *)
  with_fault "milp.checkpoint_torn" (fun () -> Lp.Checkpoint.write ~path:p ck);
  (match Lp.Checkpoint.read ~path:p with
  | Ok _ -> Alcotest.fail "torn checkpoint accepted"
  | Error _ -> ());
  (* manual corruption of a valid file must also be rejected *)
  Lp.Checkpoint.write ~path:p ck;
  let ic = open_in_bin p in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin p in
  output_string oc (String.sub contents 0 (String.length contents / 2));
  close_out oc;
  (match Lp.Checkpoint.read ~path:p with
  | Ok _ -> Alcotest.fail "truncated checkpoint accepted"
  | Error _ -> ());
  Sys.remove p

let test_checkpoint_fingerprint_mismatch () =
  let p = tmp "pipesyn_ck_fp.json" in
  ignore (checkpointed_solve ~path:p ());
  let ck = read_ck p in
  Alcotest.check_raises "resume against a different model"
    (Invalid_argument
       "Milp.solve: checkpoint fingerprint does not match the model")
    (fun () -> ignore (Lp.Milp.solve ~resume:ck (parity_wall ~n:6 ())));
  Sys.remove p

(* --- checkpoint/resume equivalence ------------------------------------ *)

let audit_clean name model (r : Lp.Milp.result) =
  match Analyze.Diag.errors (Analyze.Engine.check_audit model r) with
  | [] -> ()
  | errs ->
      Alcotest.failf "%s: %d audit errors: %s" name (List.length errs)
        (String.concat "; "
           (List.map (fun d -> Fmt.str "%a" Analyze.Diag.pp d) errs))

(* Interrupt [model] mid-solve at [interrupt] domains, then rehydrate
   the checkpoint at [resume] domains and run to completion. At 2 or 4
   interrupting domains the final checkpoint folds several workers'
   closed-node logs: each entry must appear once, and the unsolved-
   pruned count must be the interrupted result's. *)
let check_resume ~model ~node_limit ~clean ~interrupt ~resume p =
  let name = Printf.sprintf "resume %d -> %d domains" interrupt resume in
  let cut =
    checkpointed_solve ~certificates:true ~node_limit ~domains:interrupt ~model
      ~path:p ()
  in
  Alcotest.(check bool) (name ^ ": interrupted before optimality") true
    (cut.Lp.Milp.status <> Lp.Milp.Optimal);
  let ck = read_ck p in
  let ids =
    List.map (fun (n : Lp.Cert.node) -> n.Lp.Cert.id) ck.Lp.Checkpoint.cert_nodes
  in
  Alcotest.(check int) (name ^ ": checkpoint node ids are unique")
    (List.length ids) (List.length (List.sort_uniq compare ids));
  Alcotest.(check int) (name ^ ": checkpoint lp_limited")
    cut.Lp.Milp.stats.Lp.Milp.lp_limited ck.Lp.Checkpoint.lp_limited;
  let resumed =
    Lp.Milp.solve ~time_limit:60.0 ~certificates:true ~cuts:false
      ~domains:resume ~resume:ck (model ())
  in
  check_same_result name clean resumed;
  Alcotest.(check bool) (name ^ ": cumulative node count") true
    (resumed.Lp.Milp.stats.Lp.Milp.nodes > ck.Lp.Checkpoint.nodes_done);
  (* the resumed certificate (checkpoint prefix + new nodes) must audit
     clean in exact rational arithmetic *)
  audit_clean name (model ()) resumed

let test_resume_equivalence () =
  let exhaustive model =
    let clean =
      Lp.Milp.solve ~time_limit:60.0 ~certificates:true ~cuts:false (model ())
    in
    Alcotest.(check string) "clean solve is exhaustive" "optimal"
      (status_str clean.Lp.Milp.status);
    clean
  in
  let p = tmp "pipesyn_ck_resume.json" in
  (* A one-domain checkpoint resumed at 1, 2 and 4 domains: the wider
     resumes load one pseudocost table into several workers and spread
     a one-domain frontier over the shared deque. *)
  let model () = knapsack () in
  let clean = exhaustive model in
  List.iter
    (fun resume ->
      check_resume ~model ~node_limit:6 ~clean ~interrupt:1 ~resume p)
    [ 1; 2; 4 ];
  (* Checkpoints taken at 2 and 4 domains, whose frontiers hold stolen
     subtrees, resumed at every domain count. *)
  let model () = knapsack ~n:16 () in
  let clean = exhaustive model in
  List.iter
    (fun interrupt ->
      List.iter
        (fun resume ->
          check_resume ~model ~node_limit:40 ~clean ~interrupt ~resume p)
        [ 1; 2; 4 ])
    [ 1; 2; 4 ];
  Sys.remove p

let test_resume_completed_checkpoint () =
  (* A checkpoint of an exhausted solve has an empty frontier; resuming
     it returns the finished result without exploring anything. *)
  let p = tmp "pipesyn_ck_done.json" in
  let full = checkpointed_solve ~node_limit:200_000 ~path:p () in
  Alcotest.(check string) "solve ran to optimality" "optimal"
    (status_str full.Lp.Milp.status);
  let ck = read_ck p in
  Alcotest.(check bool) "empty frontier" true (ck.Lp.Checkpoint.frontier = []);
  let resumed = Lp.Milp.solve ~time_limit:60.0 ~resume:ck (knapsack ()) in
  check_same_result "resume of a finished solve" full resumed;
  Alcotest.(check int) "no new nodes" full.Lp.Milp.stats.Lp.Milp.nodes
    resumed.Lp.Milp.stats.Lp.Milp.nodes;
  Sys.remove p

(* A checkpoint whose frontier is the unprocessed root — what a budget
   stop inside the root LP leaves behind. Built from a mid-tree snapshot
   by rewinding every closed-node field to the fresh-solve state; with
   presolve off the root box is the model's own. The resume must be the
   uninterrupted solve: the root's reduced-cost fixings (a seeded
   incumbent makes them fire) have to reach every worker's box and the
   certificate's root box. *)
let test_resume_root_only () =
  let p = tmp "pipesyn_ck_root.json" in
  let sink =
    { Lp.Milp.ck_path = p; ck_every_s = 3600.0; ck_every_nodes = None;
      ck_meta = Obs.Json.Null }
  in
  ignore
    (Lp.Milp.solve ~time_limit:60.0 ~node_limit:6 ~certificates:true
       ~cuts:false ~presolve:false ~checkpoint:sink (knapsack ()));
  let ck = read_ck p in
  Sys.remove p;
  let raw = Lp.Model.to_raw (knapsack ()) in
  let ck =
    { ck with
      Lp.Checkpoint.frontier = [ Lp.Node.root ]; next_nid = 1; nodes_done = 0;
      lp_limited = 0; fixed_vars = 0; root_bound = neg_infinity;
      root_lb = Array.copy raw.Lp.Model.lb;
      root_ub = Array.copy raw.Lp.Model.ub; incumbent = None;
      first_incumbent_s = Float.nan; elapsed_s = 0.0; pc = [||];
      cert_nodes = []; fixes = []; root_duals = None }
  in
  let seed =
    (Lp.Milp.solve ~time_limit:60.0 ~cuts:false ~presolve:false (knapsack ()))
      .Lp.Milp.x
  in
  let solve ?resume domains =
    Lp.Milp.solve ~time_limit:60.0 ~certificates:true ~cuts:false
      ~presolve:false ~incumbent:seed ~domains ?resume (knapsack ())
  in
  List.iter
    (fun domains ->
      let name = Printf.sprintf "root-only resume @ %d domains" domains in
      let clean = solve domains in
      Alcotest.(check bool) (name ^ ": root fixing fires") true
        (clean.Lp.Milp.stats.Lp.Milp.fixed_vars > 0);
      let resumed = solve ~resume:ck domains in
      check_same_result name clean resumed;
      if domains = 1 then begin
        Alcotest.(check int) (name ^ ": nodes")
          clean.Lp.Milp.stats.Lp.Milp.nodes resumed.Lp.Milp.stats.Lp.Milp.nodes;
        Alcotest.(check int) (name ^ ": pivots")
          clean.Lp.Milp.stats.Lp.Milp.lp_iterations
          resumed.Lp.Milp.stats.Lp.Milp.lp_iterations
      end;
      audit_clean name (knapsack ()) resumed)
    [ 1; 2; 4 ]

(* [pipesyn resume] hands the solver both the warm start and the
   checkpoint. The checkpoint's incumbent wins and is the only one
   installed; the discarded seed is still validated. *)
let test_resume_installs_one_incumbent () =
  let p = tmp "pipesyn_ck_inc.json" in
  ignore (checkpointed_solve ~node_limit:16 ~path:p ());
  let ck = read_ck p in
  Sys.remove p;
  let ck_obj =
    match ck.Lp.Checkpoint.incumbent with
    | Some (_, obj) -> obj
    | None -> Alcotest.fail "checkpoint carries no incumbent"
  in
  let n = (Lp.Model.to_raw (knapsack ())).Lp.Model.n in
  let seeded = ref [] in
  Obs.Log.enable ();
  Obs.Log.set_sink
    (Some
       (fun e ->
         let arg k = List.assoc_opt k e.Obs.Log.l_args in
         if
           e.Obs.Log.l_name = "milp.incumbent"
           && arg "seeded" = Some (Obs.Json.Bool true)
         then seeded := arg "objective" :: !seeded));
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_sink None;
      Obs.Log.disable ();
      Obs.Log.clear ())
    (fun () ->
      ignore
        (Lp.Milp.solve ~time_limit:60.0 ~cuts:false
           ~incumbent:(Array.make n 0.0) ~resume:ck (knapsack ())));
  Alcotest.(check (list (option string)))
    "one seeded incumbent, the checkpoint's"
    [ Some (Obs.Json.to_string (Obs.Json.Float ck_obj)) ]
    (List.map (Option.map Obs.Json.to_string) !seeded);
  Alcotest.check_raises "a discarded seed is still validated"
    (Invalid_argument "Milp.solve: incumbent length mismatch") (fun () ->
      ignore
        (Lp.Milp.solve ~cuts:false ~incumbent:[| 0.0 |] ~resume:ck
           (knapsack ())))

(* --- worker-crash recovery -------------------------------------------- *)

(* A worker killed at node N: the supervisor replays its leased subtree;
   the final result is identical to the fault-free solve at every domain
   count (byte-identical incumbent, not merely equal objective). *)
let check_kill_recovery ~fault domains =
  let clean =
    Lp.Milp.solve ~time_limit:60.0 ~cuts:false ~domains (knapsack ())
  in
  let faulted =
    with_fault fault (fun () ->
        Lp.Milp.solve ~time_limit:60.0 ~cuts:false ~domains (knapsack ()))
  in
  check_same_result
    (Printf.sprintf "%s @ %d domains" fault domains)
    clean faulted

let test_worker_kill_all_domains () =
  List.iter (fun d -> check_kill_recovery ~fault:"milp.worker_kill@2" d) [ 1; 2; 4 ]

let test_steal_drop_parallel () =
  List.iter (fun d -> check_kill_recovery ~fault:"milp.steal_drop@1" d) [ 2; 4 ]

let test_recovery_counted () =
  let r =
    with_fault "milp.worker_kill@2" (fun () ->
        Lp.Milp.solve ~time_limit:60.0 ~cuts:false ~domains:2 (knapsack ()))
  in
  Alcotest.(check bool) "recovery recorded in stats" true
    (r.Lp.Milp.stats.Lp.Milp.recoveries >= 1)

let test_death_budget_exhausted () =
  (* Always-on kills exceed the per-slot death budget (3); the failure
     must then propagate as an exception rather than loop forever. *)
  match
    with_fault "milp.worker_kill" (fun () ->
        Lp.Milp.solve ~time_limit:60.0 ~cuts:false ~domains:1 (knapsack ()))
  with
  | _ -> Alcotest.fail "expected Worker_killed to propagate"
  | exception Lp.Milp.Worker_killed -> ()

(* --- stall watchdog --------------------------------------------------- *)

let check_stall_recovery domains =
  let clean =
    Lp.Milp.solve ~time_limit:60.0 ~cuts:false ~domains (knapsack ())
  in
  let r =
    with_fault "milp.stall@2" (fun () ->
        Lp.Milp.solve ~time_limit:60.0 ~cuts:false ~domains
          ~stall_window:0.05 (knapsack ()))
  in
  check_same_result
    (Printf.sprintf "stall recovery @ %d domains" domains)
    clean r;
  Alcotest.(check bool) "watchdog escalations recorded" true
    (r.Lp.Milp.stats.Lp.Milp.stalls >= 1);
  Alcotest.(check bool) "cancelled node requeued and replayed" true
    (r.Lp.Milp.stats.Lp.Milp.recoveries >= 1)

let test_stall_watchdog_sequential () = check_stall_recovery 1
let test_stall_watchdog_parallel () = check_stall_recovery 2

let test_stall_without_watchdog_hits_budget () =
  (* With the watchdog off, a wedged worker is only unwedged by the
     global budget — the stop must still be clean and on time. *)
  let r =
    with_fault "milp.stall@1" (fun () ->
        Lp.Milp.solve ~time_limit:0.5 ~cuts:false ~domains:1 (knapsack ()))
  in
  (match r.Lp.Milp.status with
  | Lp.Milp.Feasible | Lp.Milp.Unknown -> ()
  | s -> Alcotest.failf "expected a budget stop, got %s" (status_str s));
  let e = r.Lp.Milp.stats.Lp.Milp.elapsed in
  Alcotest.(check bool)
    (Printf.sprintf "budget respected while wedged (%.2fs)" e)
    true (e <= 0.7)

(* --- cascade bounded retry -------------------------------------------- *)

let test_cascade_retry_then_success () =
  let calls = ref 0 in
  let step =
    {
      Resilience.Cascade.slabel = "flaky";
      budget = None;
      retries = 2;
      retry_on = [ "exception" ];
      run =
        (fun _ ->
          incr calls;
          if !calls < 3 then failwith "transient" else Ok !calls);
    }
  in
  match Resilience.Cascade.run ~deadline:Resilience.Deadline.none [ step ] with
  | Error _ -> Alcotest.fail "cascade failed"
  | Ok o ->
      Alcotest.(check int) "third try succeeded" 3 o.Resilience.Cascade.value;
      Alcotest.(check int) "both failures in the trail" 2
        (List.length o.Resilience.Cascade.trail);
      Alcotest.(check (list int)) "retry indices recorded" [ 0; 1 ]
        (List.map
           (fun a -> a.Resilience.Cascade.retry)
           o.Resilience.Cascade.trail)

let test_cascade_retry_class_gated () =
  (* A failure reason outside [retry_on] must degrade immediately. *)
  let calls = ref 0 in
  let steps =
    [
      {
        Resilience.Cascade.slabel = "wrong-class";
        budget = None;
        retries = 5;
        retry_on = [ "exception" ];
        run =
          (fun _ ->
            incr calls;
            Error ("unknown", "not retryable"));
      };
      {
        Resilience.Cascade.slabel = "fallback";
        budget = None;
        retries = 0;
        retry_on = [];
        run = (fun _ -> Ok 99);
      };
    ]
  in
  match Resilience.Cascade.run ~deadline:Resilience.Deadline.none steps with
  | Error _ -> Alcotest.fail "cascade failed"
  | Ok o ->
      Alcotest.(check int) "fell through to the fallback" 99
        o.Resilience.Cascade.value;
      Alcotest.(check int) "first rung ran exactly once" 1 !calls

let test_cascade_retry_bounded () =
  (* Retries are bounded by [retries]: a permanently failing rung runs
     1 + retries times, then the cascade degrades. *)
  let calls = ref 0 in
  let steps =
    [
      {
        Resilience.Cascade.slabel = "always-down";
        budget = None;
        retries = 2;
        retry_on = [ "exception" ];
        run =
          (fun _ ->
            incr calls;
            failwith "permanent");
      };
      {
        Resilience.Cascade.slabel = "fallback";
        budget = None;
        retries = 0;
        retry_on = [];
        run = (fun _ -> Ok 1);
      };
    ]
  in
  match Resilience.Cascade.run ~deadline:Resilience.Deadline.none steps with
  | Error _ -> Alcotest.fail "cascade failed"
  | Ok o ->
      Alcotest.(check int) "1 + retries tries" 3 !calls;
      Alcotest.(check int) "all tries in the trail" 3
        (List.length o.Resilience.Cascade.trail)

let () =
  Alcotest.run "supervision"
    [
      ( "wall-budget",
        [
          Alcotest.test_case "1 domain" `Slow test_wall_budget_1_domain;
          Alcotest.test_case "4 domains" `Slow test_wall_budget_4_domains;
          Alcotest.test_case "cpu vs wall metric" `Slow test_cpu_vs_wall_metric;
          Alcotest.test_case "cpu below wall while wedged" `Quick
            test_cpu_below_wall_when_wedged;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip identity" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "rejects torn files" `Quick
            test_checkpoint_rejects_torn;
          Alcotest.test_case "fingerprint mismatch" `Quick
            test_checkpoint_fingerprint_mismatch;
        ] );
      ( "resume",
        [
          Alcotest.test_case "equivalence + audit @ 1/2/4 domains" `Slow
            test_resume_equivalence;
          Alcotest.test_case "resume of a finished solve" `Quick
            test_resume_completed_checkpoint;
          Alcotest.test_case "root-only checkpoint @ 1/2/4 domains" `Quick
            test_resume_root_only;
          Alcotest.test_case "one incumbent install" `Quick
            test_resume_installs_one_incumbent;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "worker_kill @ 1/2/4 domains" `Slow
            test_worker_kill_all_domains;
          Alcotest.test_case "steal_drop @ 2/4 domains" `Slow
            test_steal_drop_parallel;
          Alcotest.test_case "recoveries counted" `Quick test_recovery_counted;
          Alcotest.test_case "death budget bounds replay" `Quick
            test_death_budget_exhausted;
        ] );
      ( "stall-watchdog",
        [
          Alcotest.test_case "sequential" `Quick test_stall_watchdog_sequential;
          Alcotest.test_case "parallel" `Quick test_stall_watchdog_parallel;
          Alcotest.test_case "budget stop while wedged" `Quick
            test_stall_without_watchdog_hits_budget;
        ] );
      ( "cascade-retry",
        [
          Alcotest.test_case "retry then success" `Quick
            test_cascade_retry_then_success;
          Alcotest.test_case "failure class gated" `Quick
            test_cascade_retry_class_gated;
          Alcotest.test_case "bounded" `Quick test_cascade_retry_bounded;
        ] );
    ]
