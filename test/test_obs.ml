(* Tests for the instrumentation layer: counter/span semantics, JSON
   round-trips, and — the critical invariant — that instrumentation is
   purely additive: a fully instrumented flow yields the same QoR as a
   re-run with all counters reset. *)

let test_counter_accumulate_reset () =
  Obs.reset ();
  let c = Obs.Counter.get "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.incr ~by:41 c;
  Alcotest.(check int) "accumulates" 42 (Obs.Counter.value c);
  Alcotest.(check bool) "same name, same counter" true
    (Obs.Counter.value (Obs.Counter.get "test.counter") = 42);
  Alcotest.(check bool) "snapshot contains it" true
    (List.mem_assoc "test.counter" (Obs.counters ()));
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c);
  Alcotest.(check bool) "zero counters dropped from snapshot" false
    (List.mem_assoc "test.counter" (Obs.counters ()))

(* Stress: the probe domain folds the counter registry while solver
   domains insert new names. In each round a second domain creates
   5,000 fresh counters while this one lists them in a loop; no listing
   may show a name twice, and afterwards every name is listed exactly
   once. An unlocked fold can list a name twice while the table
   resizes. *)
let test_counter_registry_concurrent () =
  Obs.reset ();
  let n = 5_000 in
  for round = 0 to 9 do
    let prefix = Printf.sprintf "test.stress.%d." round in
    let listed () =
      List.filter_map
        (fun (k, _) ->
          if String.starts_with ~prefix k then Some k else None)
        (Obs.counters ())
    in
    let d =
      Domain.spawn (fun () ->
          for i = 0 to n - 1 do
            Obs.Counter.incr (Obs.Counter.get (prefix ^ string_of_int i))
          done)
    in
    let rec poll () =
      let names = listed () in
      let k = List.length names in
      Alcotest.(check int) "no name listed twice" k
        (List.length (List.sort_uniq compare names));
      if k < n then poll ()
    in
    poll ();
    Domain.join d;
    let names = listed () in
    Alcotest.(check int) "every name listed" n (List.length names);
    Alcotest.(check int) "every name listed once" n
      (List.length (List.sort_uniq compare names))
  done;
  Obs.reset ()

(* Busy-wait so elapsed wall time (the clock spans use) tracks the burn
   duration closely in a single thread. *)
let burn secs =
  let t0 = Sys.time () in
  while Sys.time () -. t0 < secs do
    ignore (Sys.opaque_identity 1)
  done

(* [name]'s span total as {!Obs.snapshot} reports it; 0 when absent. *)
let total name =
  Option.value ~default:0.0 (List.assoc_opt (name ^ ".s") (Obs.snapshot ()))

(* A span entered while another span of the same name is open must not
   add the inner interval again (the outer span already covers it). The
   spans burn 20 ms + 20 ms of CPU time, so the total is at least 40 ms;
   a double count adds the inner 20 ms again, past the wall time of the
   whole call, which bounds a correct total (with 1 ms for the clock
   reads). Both bounds hold however loaded the host is. A raise inside
   nested spans still unwinds the depth. *)
let test_timer_nested_no_double_count () =
  Obs.reset ();
  let t0 = Obs.Clock.wall () in
  Obs.span "test.nested" (fun () ->
      burn 0.02;
      Obs.span "test.nested" (fun () -> burn 0.02));
  let wall = Obs.Clock.wall () -. t0 in
  let e = total "test.nested" in
  Alcotest.(check bool)
    (Printf.sprintf "outermost-exit accumulation only (%.4fs, wall %.4fs)" e
       wall)
    true
    (e >= 0.04 && e <= wall +. 0.001);
  (try
     Obs.span "test.nested" (fun () ->
         Obs.span "test.nested" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let before = total "test.nested" in
  let t0 = Obs.Clock.wall () in
  Obs.span "test.nested" (fun () -> burn 0.01);
  let wall = Obs.Clock.wall () -. t0 in
  let added = total "test.nested" -. before in
  Alcotest.(check bool)
    (Printf.sprintf "depth recovered after raise (+%.4fs, wall %.4fs)" added
       wall)
    true
    (added >= 0.01 && added <= wall +. 0.001)

(* Totals accrue with tracing off, a raise still records its interval,
   and {!Obs.reset} zeroes them. *)
let test_timer_spans () =
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  Obs.reset ();
  let v = Obs.span "test.timer" (fun () -> burn 0.002; 1000) in
  Alcotest.(check int) "span returns the result" 1000 v;
  let e = total "test.timer" in
  Alcotest.(check bool) "total accrues with tracing off" true (e > 0.0);
  Alcotest.(check int) "no trace events while tracing is off" 0
    (Obs.Trace.num_events ());
  (try Obs.span "test.timer" (fun () -> burn 0.002; failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "span recorded on raise" true (total "test.timer" > e);
  Obs.reset ();
  Alcotest.(check bool) "reset zeroes the total" false
    (List.mem_assoc "test.timer.s" (Obs.snapshot ()))

(* While tracing, a span also records its B/E pair; {!Obs.reset} leaves
   the trace buffer alone. *)
let test_span_traced () =
  Obs.reset ();
  Obs.Trace.enable ();
  Obs.span ~cat:"t" "test.traced" (fun () -> burn 0.002);
  Alcotest.(check int) "one B/E pair" 2 (Obs.Trace.num_events ());
  Alcotest.(check bool) "total accrues while tracing" true
    (total "test.traced" > 0.0);
  Obs.reset ();
  Alcotest.(check int) "reset keeps the trace buffer" 2
    (Obs.Trace.num_events ());
  Alcotest.(check bool) "reset zeroes the total" true
    (total "test.traced" = 0.0);
  Obs.Trace.disable ();
  Obs.Trace.clear ()

let test_json_roundtrip_values () =
  let j =
    Obs.Json.(
      Obj
        [
          ("s", String "quote \" backslash \\ newline \n tab \t");
          ("i", Int (-42));
          ("f", Float 3.25);
          ("b", Bool true);
          ("n", Null);
          ("l", List [ Int 1; Float 0.5; String "x" ]);
          ("o", Obj [ ("nested", Bool false) ]);
        ])
  in
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j' ->
      Alcotest.(check string) "round-trips" (Obs.Json.to_string j)
        (Obs.Json.to_string j')

let test_json_nonfinite_floats () =
  Alcotest.(check string) "nan is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_rejects_garbage () =
  let bad s =
    match Obs.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "truncated object" true (bad "{\"a\": 1");
  Alcotest.(check bool) "trailing garbage" true (bad "{} x");
  Alcotest.(check bool) "bare word" true (bad "flase")

let sample_metrics =
  {
    Obs.Metrics.name = "GFMUL";
    method_ = "MILP-map";
    lut = 24;
    ff = 0;
    slack = 1.4;
    solve_s = Some 5.04;
    bnb_nodes = Some 55;
    lp_pivots = Some 1234;
    cuts_total = 195;
    first_incumbent_s = 0.8;
    final_gap = 0.02;
    status = "feasible";
    objective = 12.5;
    domains = 4;
    nodes_per_s = 10.9;
    cert_nodes = 55;
    audit_errors = Some 0;
    milp_cuts = 7;
    gap_closed_root = 0.25;
    checkpoints = 2;
    recoveries = 1;
    stalls = 0;
    gc_minor_words = 123456.0;
    gc_major_words = 7890.0;
    diagnostics = [];
    degradation = [];
  }

let test_metrics_roundtrip () =
  let s = Obs.Json.to_string (Obs.Metrics.to_json sample_metrics) in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      match Obs.Metrics.of_json j with
      | Error e -> Alcotest.failf "of_json failed: %s" e
      | Ok m ->
          Alcotest.(check bool) "round-trips" true (m = sample_metrics))

(* A v3-era record (no convergence fields) must still parse; the new
   fields default to nan rather than failing the load, and the legacy
   "solve_s": 0.0 / "bnb_nodes": 0 heuristic encoding normalizes to
   None (a real solve always explores at least the root node). *)
let test_metrics_v3_compat () =
  let s =
    {|{"name":"X","method":"HLS Tool","lut":1,"ff":2,"slack":0.5,
       "solve_s":0.0,"bnb_nodes":0,"cuts_total":3,"status":"heuristic"}|}
  in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      match Obs.Metrics.of_json j with
      | Error e -> Alcotest.failf "of_json failed: %s" e
      | Ok m ->
          Alcotest.(check (option (float 0.0)))
            "legacy 0.0 solve_s normalizes to None" None
            m.Obs.Metrics.solve_s;
          Alcotest.(check (option int))
            "legacy 0 bnb_nodes normalizes to None" None
            m.Obs.Metrics.bnb_nodes;
          Alcotest.(check (option int)) "lp_pivots defaults to None" None
            m.Obs.Metrics.lp_pivots;
          Alcotest.(check (float 0.0)) "gc_minor_words defaults to 0" 0.0
            m.Obs.Metrics.gc_minor_words;
          Alcotest.(check bool) "first_incumbent_s defaults to nan" true
            (Float.is_nan m.Obs.Metrics.first_incumbent_s);
          Alcotest.(check bool) "final_gap defaults to nan" true
            (Float.is_nan m.Obs.Metrics.final_gap);
          Alcotest.(check int) "cert_nodes defaults to 0" 0
            m.Obs.Metrics.cert_nodes;
          Alcotest.(check (option int)) "audit_errors defaults to None"
            None m.Obs.Metrics.audit_errors;
          Alcotest.(check int) "milp_cuts defaults to 0" 0
            m.Obs.Metrics.milp_cuts;
          Alcotest.(check bool) "gap_closed_root defaults to nan" true
            (Float.is_nan m.Obs.Metrics.gap_closed_root);
          Alcotest.(check int) "checkpoints defaults to 0" 0
            m.Obs.Metrics.checkpoints;
          Alcotest.(check int) "recoveries defaults to 0" 0
            m.Obs.Metrics.recoveries;
          Alcotest.(check int) "stalls defaults to 0" 0
            m.Obs.Metrics.stalls)

let test_metrics_file_shape () =
  Obs.reset ();
  Obs.Counter.incr ~by:7 (Obs.Counter.get "test.file_counter");
  let s = Obs.Json.to_string (Obs.Metrics.file ~results:[ sample_metrics ]) in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      Alcotest.(check bool) "schema_version present" true
        (Obs.Json.member "schema_version" j
        = Some (Obs.Json.Int Obs.Metrics.schema_version));
      (match Obs.Json.member "obs" j with
      | Some (Obs.Json.Obj kvs) ->
          Alcotest.(check bool) "obs snapshot embedded" true
            (List.mem_assoc "test.file_counter" kvs)
      | _ -> Alcotest.fail "missing obs object");
      (match Obs.Json.member "results" j with
      | Some (Obs.Json.List [ r ]) ->
          Alcotest.(check bool) "result name" true
            (Obs.Json.member "name" r = Some (Obs.Json.String "GFMUL"))
      | _ -> Alcotest.fail "missing results list");
      Obs.reset ()

(* A full instrumented flow: metrics are populated (bnb_nodes > 0 for the
   MILP), and a reset + re-run yields byte-identical QoR — instrumentation
   never perturbs scheduling or covering. *)
let test_flow_metrics_end_to_end () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let setup =
    { (Mams.Flow.default_setup ~device:Fpga.Device.figure1) with
      delays = Fpga.Delays.make ~logic:2.0 ~arith_base:1.6 ~arith_per_bit:0.2 ();
      time_limit = 30.0 }
  in
  let run () =
    match Mams.Flow.run setup Mams.Flow.Milp_map g with
    | Ok r -> r
    | Error e -> Alcotest.failf "flow failed: %s" e
  in
  Obs.reset ();
  let r1 = run () in
  let m = Mams.Flow.metrics ~name:"RS-kernel" r1 in
  Alcotest.(check string) "name stamped" "RS-kernel" m.Obs.Metrics.name;
  Alcotest.(check string) "method" "MILP-map" m.Obs.Metrics.method_;
  Alcotest.(check bool) "bnb_nodes > 0" true
    (match m.Obs.Metrics.bnb_nodes with Some n -> n > 0 | None -> false);
  Alcotest.(check bool) "cuts_total > 0" true (m.Obs.Metrics.cuts_total > 0);
  Alcotest.(check bool) "solve_s >= 0" true
    (match m.Obs.Metrics.solve_s with Some s -> s >= 0.0 | None -> false);
  Alcotest.(check bool) "lp_pivots > 0" true
    (match m.Obs.Metrics.lp_pivots with Some p -> p > 0 | None -> false);
  Alcotest.(check int) "lut mirrors qor" r1.Mams.Flow.qor.Sched.Qor.luts
    m.Obs.Metrics.lut;
  Alcotest.(check int) "ff mirrors qor" r1.Mams.Flow.qor.Sched.Qor.ffs
    m.Obs.Metrics.ff;
  (* global counters were fed by the run *)
  Alcotest.(check bool) "milp nodes counted" true
    (Obs.Counter.value (Obs.Counter.get "milp.bnb_nodes") > 0);
  Alcotest.(check bool) "cuts enumerated counted" true
    (Obs.Counter.value (Obs.Counter.get "cuts.enumerated") > 0);
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " timed") true (total phase > 0.0))
    [ "milp.solve"; "cuts.enumerate"; "techmap.map"; "analyze" ];
  Alcotest.(check bool) "incumbents counted" true
    (Obs.Counter.value (Obs.Counter.get "milp.incumbents") > 0);
  (* reset + re-run: identical QoR and schedule *)
  Obs.reset ();
  let r2 = run () in
  Alcotest.(check bool) "identical qor" true
    (r1.Mams.Flow.qor = r2.Mams.Flow.qor);
  Alcotest.(check bool) "identical schedule cycles" true
    (r1.Mams.Flow.schedule.Sched.Schedule.cycle
    = r2.Mams.Flow.schedule.Sched.Schedule.cycle);
  Alcotest.(check bool) "identical cover roots" true
    (Sched.Cover.roots r1.Mams.Flow.cover = Sched.Cover.roots r2.Mams.Flow.cover)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter accumulate/reset" `Quick
            test_counter_accumulate_reset;
          Alcotest.test_case "timer spans" `Quick test_timer_spans;
          Alcotest.test_case "timer nested spans don't double-count" `Quick
            test_timer_nested_no_double_count;
          Alcotest.test_case "span traced only while tracing" `Quick
            test_span_traced;
          Alcotest.test_case "counter registry under concurrent inserts"
            `Quick test_counter_registry_concurrent;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip_values;
          Alcotest.test_case "non-finite floats" `Quick
            test_json_nonfinite_floats;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "record round-trip" `Quick test_metrics_roundtrip;
          Alcotest.test_case "v3 record compat" `Quick test_metrics_v3_compat;
          Alcotest.test_case "file shape" `Quick test_metrics_file_shape;
          Alcotest.test_case "flow end-to-end" `Quick
            test_flow_metrics_end_to_end;
        ] );
    ]
