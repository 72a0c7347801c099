(* Determinism of the parallel branch-and-bound (DESIGN.md Sec. 3g): an
   exhaustive (non-budget-truncated) solve must return identical status,
   objective and incumbent vector for domains = 1, 2 and 4 — the shared
   incumbent's tie-breaking makes the result independent of exploration
   order. Also covered here: pinned work counters of one-domain solves
   (the golden cases below), that the solver reads no [PIPESYN_DOMAINS]
   from the environment, and the end-to-end fault-injection matrix re-run
   with four worker domains. *)

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps
let status_str s = Fmt.str "%a" Lp.Milp.pp_status s
let dom_counts = [ 1; 2; 4 ]

(* Solve [build ()] at every domain count and assert status / objective /
   incumbent parity against the sequential run. [build] must return a
   fresh model each call ([Lp.Model.t] is consumed by the solve). *)
let check_deterministic ?(time_limit = 60.0) name build =
  let solve d = Lp.Milp.solve ~time_limit ~domains:d (build ()) in
  let base = solve 1 in
  Alcotest.(check int)
    (Printf.sprintf "%s: sequential run reports 1 domain" name)
    1 base.Lp.Milp.stats.Lp.Milp.domains;
  List.iter
    (fun d ->
      let r = solve d in
      Alcotest.(check string)
        (Printf.sprintf "%s: status @ %d domains" name d)
        (status_str base.Lp.Milp.status)
        (status_str r.Lp.Milp.status);
      Alcotest.(check int)
        (Printf.sprintf "%s: stats.domains @ %d domains" name d)
        d r.Lp.Milp.stats.Lp.Milp.domains;
      (match base.Lp.Milp.status with
      | Lp.Milp.Optimal | Lp.Milp.Feasible ->
          if not (feq base.Lp.Milp.objective r.Lp.Milp.objective) then
            Alcotest.failf "%s: objective %.9g @ 1 domain vs %.9g @ %d" name
              base.Lp.Milp.objective r.Lp.Milp.objective d
      | _ -> ());
      if base.Lp.Milp.status = Lp.Milp.Optimal then
        Array.iteri
          (fun j v ->
            if not (feq v r.Lp.Milp.x.(j)) then
              Alcotest.failf "%s: incumbent x.(%d) = %.9g @ 1 domain vs %.9g @ %d"
                name j v r.Lp.Milp.x.(j) d)
          base.Lp.Milp.x)
    (List.tl dom_counts)

(* --- hand-built integer programs ------------------------------------ *)

let knapsack () =
  let values = [| 10.0; 13.0; 7.0; 8.0; 5.0; 9.0 |] in
  let weights = [| 5.0; 6.0; 3.0; 4.0; 2.0; 5.0 |] in
  let m = Lp.Model.create () in
  let xs =
    Array.mapi (fun i _ -> Lp.Model.bool_var m (Printf.sprintf "x%d" i)) values
  in
  Lp.Model.add_le m
    (Array.to_list (Array.mapi (fun i x -> (weights.(i), x)) xs))
    12.0;
  Lp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (-.values.(i), x)) xs));
  m

(* Symmetric assignment with many optima — exercises the lexicographic
   incumbent tie-break, not just the objective comparison. *)
let symmetric_cover () =
  let m = Lp.Model.create () in
  let xs = Array.init 6 (fun i -> Lp.Model.bool_var m (Printf.sprintf "s%d" i)) in
  (* pick exactly 3 of 6 identical items *)
  Lp.Model.add_eq m (Array.to_list (Array.map (fun x -> (1.0, x)) xs)) 3.0;
  Lp.Model.set_objective m
    (Array.to_list (Array.map (fun x -> (1.0, x)) xs));
  m

let infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m "x" in
  let y = Lp.Model.bool_var m "y" in
  Lp.Model.add_ge m [ (1.0, x); (1.0, y) ] 3.0;
  Lp.Model.set_objective m [ (1.0, x); (1.0, y) ];
  m

let general_integer () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~integer:true ~ub:10.0 "x" in
  let y = Lp.Model.add_var m ~integer:true ~ub:10.0 "y" in
  let z = Lp.Model.add_var m ~integer:true ~ub:10.0 "z" in
  Lp.Model.add_le m [ (2.0, x); (3.0, y); (1.0, z) ] 12.0;
  Lp.Model.add_ge m [ (1.0, x); (1.0, y) ] 2.0;
  Lp.Model.set_objective m [ (-3.0, x); (-5.0, y); (-1.0, z) ];
  m

let test_knapsack () = check_deterministic "knapsack" knapsack
let test_symmetric () = check_deterministic "symmetric cover" symmetric_cover
let test_infeasible () = check_deterministic "infeasible" infeasible
let test_general_integer () = check_deterministic "general integer" general_integer

(* --- benchmark-kernel formulations ---------------------------------- *)

let device = Fpga.Device.make ~t_clk:10.0 ()
let delays = Fpga.Delays.default

let kernel_model ?(mapped = false) build () =
  let g = build () in
  let cfg : Mams.Formulation.config =
    {
      device;
      delays;
      resources = Fpga.Resource.unlimited;
      ii = 1;
      max_latency = 6;
      alpha = 0.5;
      beta = 0.5;
      cut_delay =
        (if mapped then Mams.Formulation.mapped_delay ~device ~delays
         else Mams.Formulation.additive_delay ~delays);
    }
  in
  let cuts = if mapped then Cuts.enumerate ~k:4 g else Cuts.trivial_only g in
  let f = Mams.Formulation.build cfg g cuts in
  Mams.Formulation.model f

let small_recurrence () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let cell = Ir.Builder.feedback b ~width:4 ~init:0L ~dist:1 in
  let t1 = Ir.Builder.xor_ b x cell in
  let t2 = Ir.Builder.not_ b t1 in
  Ir.Builder.drive b ~cell t1;
  Ir.Builder.output b t2;
  Ir.Builder.finish b

let test_kernel_recurrence () =
  check_deterministic "recurrence formulation"
    (kernel_model ~mapped:true small_recurrence)

let test_kernel_rs () =
  check_deterministic "RS kernel formulation"
    (kernel_model (fun () -> Benchmarks.Rs.kernel ~width:2 ()))

let test_kernel_clz () =
  check_deterministic "CLZ formulation"
    (kernel_model (fun () -> Benchmarks.Clz.build ~width:4 ()))

(* --- exactness golden at one domain ---------------------------------- *)

(* Pinned single-domain solves: status, objective (as %h), nodes, pivots,
   warm hits, recoveries and the gap of every incumbent note, for the
   GFMUL and RS MILP-map formulations and the knapsack (cuts off). Each
   runs fault-free, under worker kills at the 1st/2nd/5th node, under a
   torn first checkpoint write and under injected simplex cycling at the
   3rd LP, plus an interrupt at node 8 whose checkpoint is resumed. Every
   solve writes a checkpoint every 4 nodes, so the torn write lands. The
   resumed solve counts both legs, so its nodes and pivots include the
   interrupted run's.

   These numbers are exploration-order facts, not results: any change to
   the node order, branching rule or node-LP path at one domain moves
   them. A change meant to leave the engine's order alone must pass this
   unedited.

   Left out because when they fire depends on wall time, not on the node
   count: the [milp.stall] fault and every [~stall_window] (watchdog)
   case. *)

let golden_ck =
  Filename.concat (Filename.get_temp_dir_name ()) "pipesyn_golden_ck.json"

let golden_sink =
  {
    Lp.Milp.ck_path = golden_ck;
    ck_every_s = 3600.0;
    ck_every_nodes = Some 4;
    ck_meta = Obs.Json.Null;
  }

(* [gaps] are the [gap] args of the solve's ["milp.incumbent"] events,
   in emission order. *)
let fingerprint ~gaps (r : Lp.Milp.result) =
  let s = r.Lp.Milp.stats in
  let gaps = List.map (Printf.sprintf "%h") gaps in
  Printf.sprintf "%s obj=%h nodes=%d pivots=%d warm=%d recoveries=%d gaps=[%s]"
    (status_str r.Lp.Milp.status) r.Lp.Milp.objective s.Lp.Milp.nodes
    s.Lp.Milp.lp_iterations s.Lp.Milp.warm_hits s.Lp.Milp.recoveries
    (String.concat " " gaps)

let golden_solve ?cuts ?fault ?node_limit ?resume build =
  Obs.reset ();
  Resilience.Fault.clear ();
  Option.iter
    (fun f ->
      match Resilience.Fault.arm f with
      | Ok () -> ()
      | Error e -> Alcotest.failf "arm %s: %s" f e)
    fault;
  let gaps = ref [] in
  Obs.Log.enable ();
  Obs.Log.set_sink
    (Some
       (fun e ->
         if e.Obs.Log.l_name = "milp.incumbent" then
           match List.assoc_opt "gap" e.Obs.Log.l_args with
           | Some (Obs.Json.Float g) -> gaps := g :: !gaps
           | _ -> Alcotest.fail "milp.incumbent without a float gap"));
  Fun.protect
    ~finally:(fun () ->
      Resilience.Fault.clear ();
      Obs.Log.set_sink None;
      Obs.Log.disable ();
      Obs.Log.clear ())
  @@ fun () ->
  let r =
    Lp.Milp.solve ~time_limit:60.0 ?node_limit ~domains:1 ?cuts
      ~checkpoint:golden_sink ?resume (build ())
  in
  fingerprint ~gaps:(List.rev !gaps) r

let golden_faults =
  [
    "milp.worker_kill@1";
    "milp.worker_kill@2";
    "milp.worker_kill@5";
    "milp.checkpoint_torn@1";
    "simplex.cycle@3";
  ]

(* [(case, fingerprint)] for one fixture, in a fixed case order. *)
let golden_run ?cuts build =
  let clean = ("clean", golden_solve ?cuts build) in
  let faulted =
    List.map (fun f -> (f, golden_solve ?cuts ~fault:f build)) golden_faults
  in
  let stopped = golden_solve ?cuts ~node_limit:8 build in
  let ck =
    match Lp.Checkpoint.read ~path:golden_ck with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "read %s: %s" golden_ck e
  in
  let resumed = golden_solve ?cuts ~resume:ck build in
  Sys.remove golden_ck;
  (clean :: faulted) @ [ ("stop@8", stopped); ("resume@8", resumed) ]

let check_golden name ?cuts build expected =
  let got = golden_run ?cuts build in
  List.iter2
    (fun (case, want) (case', have) ->
      assert (case = case');
      Alcotest.(check string) (Printf.sprintf "%s %s" name case) want have)
    expected got

(* The registry's GFMUL and RS graphs under the mapped delay model. *)
let gfmul_map =
  kernel_model ~mapped:true (fun () -> Benchmarks.Gfmul.build ~width:4 ())

let rs_map =
  kernel_model ~mapped:true (fun () -> Benchmarks.Rs.full ~width:4 ~taps:4 ())

let golden_gfmul =
  [
    ( "clean",
      "optimal obj=0x1.4p+3 nodes=28 pivots=1489 warm=26 recoveries=0 gaps=[0x1.1111111111126p-4]" );
    ( "milp.worker_kill@1",
      "optimal obj=0x1.4p+3 nodes=11 pivots=672 warm=10 recoveries=1 gaps=[0x1.11111111116p-4]" );
    ( "milp.worker_kill@2",
      "optimal obj=0x1.4p+3 nodes=16 pivots=1206 warm=14 recoveries=1 gaps=[0x1.1111111111126p-4]" );
    ( "milp.worker_kill@5",
      "optimal obj=0x1.4p+3 nodes=8 pivots=1880 warm=6 recoveries=1 gaps=[0x1.1111111111126p-4]" );
    ( "milp.checkpoint_torn@1",
      "optimal obj=0x1.4p+3 nodes=28 pivots=1489 warm=26 recoveries=0 gaps=[0x1.1111111111126p-4]" );
    ( "simplex.cycle@3",
      "optimal obj=0x1.4p+3 nodes=43 pivots=5011 warm=39 recoveries=0 gaps=[0x1.1111111111ff3p-4]" );
    ( "stop@8",
      "feasible obj=0x1.4p+3 nodes=8 pivots=394 warm=8 recoveries=0 gaps=[0x1.1111111111126p-4]" );
    ( "resume@8",
      "optimal obj=0x1.4p+3 nodes=16 pivots=1455 warm=6 recoveries=0 gaps=[nan]" );
  ]

let golden_rs =
  [
    ( "clean",
      "optimal obj=0x1.3000000000001p+4 nodes=21 pivots=504 warm=17 recoveries=0 gaps=[0x1.d5b5ce960f042p-4]" );
    ( "milp.worker_kill@1",
      "optimal obj=0x1.3000000000001p+4 nodes=21 pivots=504 warm=17 recoveries=1 gaps=[0x1.d5b5ce960f042p-4]" );
    ( "milp.worker_kill@2",
      "optimal obj=0x1.3000000000002p+4 nodes=29 pivots=735 warm=21 recoveries=1 gaps=[0x1.d5b5ce960f04ep-4]" );
    ( "milp.worker_kill@5",
      "optimal obj=0x1.3p+4 nodes=24 pivots=914 warm=18 recoveries=1 gaps=[0x1.d5b5ce960f036p-4]" );
    ( "milp.checkpoint_torn@1",
      "optimal obj=0x1.3000000000001p+4 nodes=21 pivots=504 warm=17 recoveries=0 gaps=[0x1.d5b5ce960f042p-4]" );
    ( "simplex.cycle@3",
      "optimal obj=0x1.3000000000002p+4 nodes=21 pivots=496 warm=17 recoveries=0 gaps=[0x1.19589297dfeebp-3 0x1.d5b5ce960f04ep-4]" );
    ( "stop@8",
      "unknown obj=infinity nodes=8 pivots=158 warm=7 recoveries=0 gaps=[]" );
    ( "resume@8",
      "optimal obj=0x1.3p+4 nodes=22 pivots=535 warm=10 recoveries=0 gaps=[0x1.d5b5ce960f036p-4]" );
  ]

let golden_knapsack =
  [
    ( "clean",
      "optimal obj=-0x1.ap+4 nodes=25 pivots=34 warm=19 recoveries=0 gaps=[0x1.47ae147ae147bp-4 0x0p+0]" );
    ( "milp.worker_kill@1",
      "optimal obj=-0x1.ap+4 nodes=25 pivots=34 warm=19 recoveries=1 gaps=[0x1.47ae147ae147bp-4 0x0p+0]" );
    ( "milp.worker_kill@2",
      "optimal obj=-0x1.ap+4 nodes=25 pivots=35 warm=18 recoveries=1 gaps=[0x1.47ae147ae147bp-4 0x0p+0]" );
    ( "milp.worker_kill@5",
      "optimal obj=-0x1.ap+4 nodes=25 pivots=34 warm=18 recoveries=1 gaps=[0x1.47ae147ae147bp-4 0x0p+0]" );
    ( "milp.checkpoint_torn@1",
      "optimal obj=-0x1.ap+4 nodes=25 pivots=34 warm=19 recoveries=0 gaps=[0x1.47ae147ae147bp-4 0x0p+0]" );
    ( "simplex.cycle@3",
      "feasible obj=-0x1.ap+4 nodes=25 pivots=34 warm=18 recoveries=0 gaps=[0x1.d1745d1745d17p-3 0x1p-3 0x1.eb851eb851eb8p-5 0x0p+0]" );
    ( "stop@8",
      "feasible obj=-0x1.9p+4 nodes=8 pivots=12 warm=6 recoveries=0 gaps=[0x1.47ae147ae147bp-4]" );
    ( "resume@8",
      "optimal obj=-0x1.ap+4 nodes=25 pivots=34 warm=12 recoveries=0 gaps=[nan 0x0p+0]" );
  ]

let test_golden_gfmul () = check_golden "GFMUL" gfmul_map golden_gfmul
let test_golden_rs () = check_golden "RS" rs_map golden_rs

let test_golden_knapsack () =
  check_golden "knapsack" ~cuts:false knapsack golden_knapsack

(* --- random MILPs (qcheck) ------------------------------------------ *)

let parallel_matches_sequential =
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
  QCheck.Test.make ~name:"random binary MILP agrees across domain counts"
    ~count:40 (QCheck.make gen) (fun (n, obj, rows, rhs) ->
      let build () =
        let m = Lp.Model.create () in
        let xs =
          List.init n (fun i -> Lp.Model.bool_var m (Printf.sprintf "b%d" i))
        in
        List.iter2
          (fun row b ->
            Lp.Model.add_le m (List.map2 (fun c x -> (c, x)) row xs) b)
          rows rhs;
        Lp.Model.set_objective m (List.map2 (fun c x -> (c, x)) obj xs);
        m
      in
      let base = Lp.Milp.solve ~time_limit:20.0 ~domains:1 (build ()) in
      List.for_all
        (fun d ->
          let r = Lp.Milp.solve ~time_limit:20.0 ~domains:d (build ()) in
          r.Lp.Milp.status = base.Lp.Milp.status
          && (base.Lp.Milp.status <> Lp.Milp.Optimal
             || feq base.Lp.Milp.objective r.Lp.Milp.objective))
        (List.tl dom_counts))

(* --- PIPESYN_DOMAINS ------------------------------------------------- *)

(* The domain count is an argument only: an exported PIPESYN_DOMAINS, which
   the bench harness reads for itself, leaves a default solve at one
   domain. *)
let test_env_ignored () =
  Unix.putenv "PIPESYN_DOMAINS" "3";
  let r =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "PIPESYN_DOMAINS" "")
      (fun () -> Lp.Milp.solve ~time_limit:30.0 (knapsack ()))
  in
  Alcotest.(check int) "PIPESYN_DOMAINS=3 ignored" 1
    r.Lp.Milp.stats.Lp.Milp.domains

(* --- fault matrix under four domains --------------------------------- *)

(* Rows that wait out their whole budget get a short one: a stalled solve
   always does, and with a torn checkpoint or a techmap timeout so do the
   four kernels whose solve is still open at 1 s. On 0.2 s each of them
   ends with the same MILP status and degradation trail. *)
let budget ~fault (e : Benchmarks.Registry.entry) =
  match fault with
  | "milp.stall" -> 0.2
  | ("techmap.timeout" | "milp.checkpoint_torn")
    when List.mem e.name [ "CLZ"; "XORR"; "MT"; "AES" ] ->
      0.2
  | _ -> 1.0

(* Re-run of test_resilience's end-to-end matrix at four domains: every
   registered fault point, armed always-on, against each benchmark
   kernel's Milp-map cascade — the run must still end in a verified
   (schedule, cover), and a run that ends on a MILP solve must report
   four domains in its metrics row. Faults now fire from worker domains
   too (simplex.cycle in particular), so this exercises the fault-hit
   lock and cross-domain exception containment. Returns whether the run
   ended on a MILP solve. *)
let run_with_fault ~fault (e : Benchmarks.Registry.entry) =
  Resilience.Fault.clear ();
  (match Resilience.Fault.arm fault with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "arm %s: %s" fault msg);
  let g = e.build () in
  let device = Fpga.Device.make ~t_clk:e.t_clk () in
  let setup =
    {
      (Mams.Flow.default_setup ~device) with
      resources = e.resources;
      time_limit = budget ~fault e;
      domains = Some 4;
    }
  in
  let r = Mams.Flow.run setup Mams.Flow.Milp_map g in
  Resilience.Fault.clear ();
  match r with
  | Error msg -> Alcotest.failf "%s + %s: no result: %s" e.name fault msg
  | Ok r ->
      let ctx =
        {
          Sched.Verify.device;
          delays = setup.Mams.Flow.delays;
          resources = setup.Mams.Flow.resources;
        }
      in
      (match
         Sched.Verify.check ctx g r.Mams.Flow.cover r.Mams.Flow.schedule
       with
      | Ok () -> ()
      | Error errs ->
          Alcotest.failf "%s + %s: verify failed: %s" e.name fault
            (String.concat "; " errs));
      let milp = r.Mams.Flow.solve.Mams.Flow.milp_stats <> None in
      if milp then
        Alcotest.(check (option string))
          (Fmt.str "%s + %s: row domains" e.name fault)
          (Some "4")
          (Option.map Obs.Json.to_string
             (Obs.Json.member "domains" r.Mams.Flow.metrics));
      milp

let test_fault_matrix_4_domains () =
  let milp_rows =
    List.concat_map
      (fun (fault, _) ->
        List.filter (run_with_fault ~fault) Benchmarks.Registry.all)
      Resilience.Fault.points
  in
  Alcotest.(check bool) "some runs end on a MILP solve" true (milp_rows <> [])

let qsuite name tests =
  (name, List.map (fun t -> QCheck_alcotest.to_alcotest t) tests)

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "symmetric cover" `Quick test_symmetric;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "general integer" `Quick test_general_integer;
          Alcotest.test_case "recurrence kernel" `Quick test_kernel_recurrence;
          Alcotest.test_case "RS kernel" `Quick test_kernel_rs;
          Alcotest.test_case "CLZ kernel" `Quick test_kernel_clz;
        ] );
      ( "golden",
        [
          Alcotest.test_case "GFMUL MILP-map" `Slow test_golden_gfmul;
          Alcotest.test_case "RS MILP-map" `Slow test_golden_rs;
          Alcotest.test_case "knapsack" `Quick test_golden_knapsack;
        ] );
      qsuite "determinism-random" [ parallel_matches_sequential ];
      ( "env",
        [ Alcotest.test_case "PIPESYN_DOMAINS" `Quick test_env_ignored ] );
      ( "faults",
        [
          Alcotest.test_case "matrix @ 4 domains" `Slow
            test_fault_matrix_4_domains;
        ] );
    ]
