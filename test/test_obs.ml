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

let keys = function
  | Obs.Json.Obj kvs -> List.map fst kvs
  | _ -> Alcotest.fail "row is not an object"

(* The committed baseline is a file the current schema wrote; every row
   the flow writes now must carry its keys in its order. *)
let baseline_keys () =
  let path =
    List.find Sys.file_exists
      [ "../bench/baseline.json"; "bench/baseline.json" ]
  in
  let s = In_channel.with_open_text path In_channel.input_all in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok j -> (
      Alcotest.(check bool) "baseline is the current schema" true
        (Obs.Json.member "schema_version" j
        = Some (Obs.Json.Int Obs.Metrics.schema_version));
      match Obs.Json.member "results" j with
      | Some (Obs.Json.List (r :: rows)) ->
          List.iter
            (fun r' ->
              Alcotest.(check (list string)) "baseline rows agree" (keys r)
                (keys r'))
            rows;
          keys r
      | _ -> Alcotest.failf "%s: no results" path)

let test_row_keys () =
  let expected = baseline_keys () in
  let e = Benchmarks.Registry.find "GFMUL" in
  let g = e.build () in
  let setup =
    { (Mams.Flow.default_setup ~device:(Fpga.Device.make ~t_clk:e.t_clk ()))
      with resources = e.resources; time_limit = 10.0; domains = Some 1 }
  in
  let row ?(audit = false) m =
    match Mams.Flow.run { setup with audit } m g with
    | Ok r -> Mams.Flow.metrics ~name:"GFMUL" r
    | Error e -> Alcotest.failf "flow failed: %s" e
  in
  let field k j =
    match Obs.Json.member k j with
    | Some v -> Obs.Json.to_string v
    | None -> Alcotest.failf "no %S" k
  in
  let check what j =
    Alcotest.(check (list string)) (what ^ " keys") expected (keys j)
  in
  let heuristic = row Mams.Flow.Hls_tool in
  check "heuristic" heuristic;
  List.iter
    (fun k ->
      Alcotest.(check string) ("heuristic " ^ k) "null" (field k heuristic))
    [ "solve_s"; "bnb_nodes"; "lp_pivots"; "objective" ];
  let map = row Mams.Flow.Milp_map in
  check "MILP-map" map;
  Alcotest.(check string) "MILP-map status" "\"optimal\"" (field "status" map);
  Alcotest.(check string) "no audit" "null" (field "audit_errors" map);
  let audited = row ~audit:true Mams.Flow.Milp_map in
  check "audited MILP-map" audited;
  Alcotest.(check string) "audit_errors" "0" (field "audit_errors" audited);
  let error = Mams.Flow.error_metrics ~name:"GFMUL" Mams.Flow.Milp_map in
  check "error" error;
  Alcotest.(check string) "error status" "\"error\"" (field "status" error)

let test_metrics_file_shape () =
  Obs.reset ();
  Obs.Counter.incr ~by:7 (Obs.Counter.get "test.file_counter");
  let row = Mams.Flow.error_metrics ~name:"GFMUL" Mams.Flow.Milp_map in
  let s = Obs.Json.to_string (Obs.Metrics.file ~results:[ row ]) in
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
  let field k =
    match Obs.Json.member k m with
    | Some v -> v
    | None -> Alcotest.failf "no %S" k
  in
  let positive k =
    match field k with
    | Obs.Json.Int n -> n > 0
    | Obs.Json.Float f -> f >= 0.0
    | _ -> false
  in
  Alcotest.(check bool) "name stamped" true
    (field "name" = Obs.Json.String "RS-kernel");
  Alcotest.(check bool) "method" true
    (field "method" = Obs.Json.String "MILP-map");
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " populated") true (positive k))
    [ "bnb_nodes"; "cuts_total"; "solve_s"; "lp_pivots" ];
  Alcotest.(check bool) "lut mirrors qor" true
    (field "lut" = Obs.Json.Int r1.Mams.Flow.qor.Sched.Qor.luts);
  Alcotest.(check bool) "ff mirrors qor" true
    (field "ff" = Obs.Json.Int r1.Mams.Flow.qor.Sched.Qor.ffs);
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
          Alcotest.test_case "row keys match baseline" `Quick test_row_keys;
          Alcotest.test_case "file shape" `Quick test_metrics_file_shape;
          Alcotest.test_case "flow end-to-end" `Quick
            test_flow_metrics_end_to_end;
        ] );
    ]
