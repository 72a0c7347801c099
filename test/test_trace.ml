(* Tests for the structured trace layer (Obs.Trace): buffer semantics,
   Chrome/native export round-trips, well-formedness of everything the
   instrumented flow emits, and — the load-bearing invariant — that
   tracing never changes flow results, with or without injected faults. *)

let reset_trace () =
  Obs.Trace.disable ();
  Obs.Trace.clear ()

(* Print [j], re-parse it and analyze it, as `pipesyn explain' reads a
   written file. *)
let analyze_json j =
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Error e -> Alcotest.failf "export did not re-parse: %s" e
  | Ok j -> (
      match Obs.Trace.Analysis.analyze j with
      | Error e -> Alcotest.failf "analyze rejected the export: %s" e
      | Ok r -> r)

(* Export the live buffer and analyze it. Any trace the repo emits must
   survive this loop with zero errors. *)
let analyze_current () = analyze_json (Obs.Trace.export_chrome ())

(* The log's NDJSON lines, each printed and re-parsed, analyzed. *)
let analyze_log () =
  analyze_json (Obs.Json.List (Obs.Log.to_lines ()))

let test_disabled_is_inert () =
  reset_trace ();
  Obs.Trace.begin_span "x";
  Obs.emit "tick" [];
  Obs.Trace.end_span ();
  let v = Obs.span "s" (fun () -> 42) in
  Alcotest.(check int) "span returns the thunk's value" 42 v;
  Alcotest.(check int) "no events recorded" 0 (Obs.Trace.num_events ());
  Alcotest.(check bool) "reports disabled" false (Obs.Trace.enabled ())

let test_nesting_and_roundtrip () =
  reset_trace ();
  Obs.Trace.enable ();
  Obs.span ~cat:"t" "outer" (fun () ->
      Obs.emit ~cat:"t" "tick" [ ("k", Obs.Json.Int 1) ];
      Obs.span ~cat:"t" "inner" (fun () -> ()));
  Obs.span ~cat:"t" "second" (fun () -> ());
  Alcotest.(check int) "3 B + 3 E + 1 i" 7 (Obs.Trace.num_events ());
  let r = analyze_current () in
  Alcotest.(check (list string)) "well-formed" [] r.Obs.Trace.Analysis.r_errors;
  Alcotest.(check int) "spans" 3 r.Obs.Trace.Analysis.r_spans;
  Alcotest.(check int) "instants" 1 r.Obs.Trace.Analysis.r_instants;
  let names =
    List.map (fun s -> s.Obs.Trace.Analysis.sp_name) r.Obs.Trace.Analysis.r_phases
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " in phase breakdown") true (List.mem n names))
    [ "outer"; "inner"; "second" ];
  reset_trace ()

let test_exception_closes_span () =
  reset_trace ();
  Obs.Trace.enable ();
  (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  let r = analyze_current () in
  Alcotest.(check (list string)) "well-formed after raise" []
    r.Obs.Trace.Analysis.r_errors;
  Alcotest.(check int) "span recorded" 1 r.Obs.Trace.Analysis.r_spans;
  reset_trace ()

let test_disable_closes_open_spans () =
  reset_trace ();
  Obs.Trace.enable ();
  Obs.Trace.begin_span "left-open";
  Obs.Trace.begin_span "also-open";
  Obs.Trace.disable ();
  let r = analyze_current () in
  Alcotest.(check (list string)) "disable closed them" []
    r.Obs.Trace.Analysis.r_errors;
  Alcotest.(check int) "both spans present" 2 r.Obs.Trace.Analysis.r_spans;
  Obs.Trace.clear ()

(* The cap drops whole new spans/instants, deterministically, and never
   the E of a B that made it into the buffer — so a truncated trace is
   still well-formed. *)
let test_cap_drops_deterministically () =
  reset_trace ();
  Obs.Trace.enable ~cap:16 ();
  Obs.Trace.begin_span "survivor";
  for i = 0 to 29 do
    Obs.emit "tick" [ ("i", Obs.Json.Int i) ]
  done;
  Obs.Trace.end_span ();
  (* 1 B + 15 recorded instants fill the cap; the survivor's E is still
     written (buffer may exceed the cap by the open depth). *)
  Alcotest.(check int) "buffer at cap plus closing E" 17
    (Obs.Trace.num_events ());
  Alcotest.(check int) "drops counted" 15 (Obs.Trace.dropped ());
  (* a span opened after the cap is dropped wholesale *)
  Obs.span "late" (fun () -> Obs.emit "late-tick" []);
  Alcotest.(check int) "late span dropped" 17 (Obs.Trace.num_events ());
  let r = analyze_current () in
  Alcotest.(check (list string)) "truncated trace is well-formed" []
    r.Obs.Trace.Analysis.r_errors;
  Alcotest.(check int) "one recorded span" 1 r.Obs.Trace.Analysis.r_spans;
  reset_trace ()

let test_native_export_shape () =
  reset_trace ();
  Obs.Trace.enable ();
  Obs.span "s" (fun () -> Obs.emit "i" []);
  let s = Obs.Json.to_string (Obs.Trace.export_native ()) in
  (match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "native export did not re-parse: %s" e
  | Ok j ->
      Alcotest.(check bool) "schema tag" true
        (Obs.Json.member "schema" j
        = Some (Obs.Json.String "pipesyn-trace-v1"));
      Alcotest.(check bool) "clock tag" true
        (Obs.Json.member "clock" j = Some (Obs.Json.String "wall-s"));
      (match Obs.Json.member "events" j with
      | Some (Obs.Json.List evs) ->
          Alcotest.(check int) "B + E + i" 3 (List.length evs)
      | _ -> Alcotest.fail "missing events list"));
  reset_trace ()

let test_summary_shape () =
  reset_trace ();
  Obs.Trace.enable ();
  Obs.span "s" (fun () ->
      Obs.emit "milp.incumbent"
        [ ("objective", Obs.Json.Float 12.0); ("gap", Obs.Json.Float 0.25) ]);
  let j = Obs.Trace.summary () in
  Alcotest.(check bool) "enabled flag" true
    (Obs.Json.member "enabled" j = Some (Obs.Json.Bool true));
  Alcotest.(check bool) "spans counted" true
    (Obs.Json.member "spans" j = Some (Obs.Json.Int 1));
  Alcotest.(check bool) "instants counted" true
    (Obs.Json.member "instants" j = Some (Obs.Json.Int 1));
  Alcotest.(check bool) "first incumbent extracted" true
    (match Obs.Json.member "first_incumbent_s" j with
    | Some (Obs.Json.Float _) -> true
    | _ -> false);
  reset_trace ()

(* --- end-to-end: the instrumented flow emits a well-formed trace --- *)

let flow_setup ?(time_limit = 30.0) () =
  {
    (Mams.Flow.default_setup ~device:Fpga.Device.figure1) with
    delays = Fpga.Delays.make ~logic:2.0 ~arith_base:1.6 ~arith_per_bit:0.2 ();
    time_limit;
  }

let run_flow setup g =
  match Mams.Flow.run setup Mams.Flow.Milp_map g with
  | Ok r -> r
  | Error e -> Alcotest.failf "flow failed: %s" e

let test_flow_trace_end_to_end () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let setup = flow_setup () in
  Obs.reset ();
  reset_trace ();
  Obs.Trace.enable ();
  let r = run_flow setup g in
  let rep = analyze_current () in
  Obs.Trace.disable ();
  Alcotest.(check (list string)) "flow trace is well-formed" []
    rep.Obs.Trace.Analysis.r_errors;
  let names =
    List.map
      (fun s -> s.Obs.Trace.Analysis.sp_name)
      rep.Obs.Trace.Analysis.r_phases
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span present") true (List.mem n names))
    [ "flow.run"; "flow.solve"; "milp.solve"; "cuts.enumerate"; "techmap.map" ];
  (* one milp.node instant per explored B&B node *)
  let stats =
    match r.Mams.Flow.solve.Mams.Flow.milp_stats with
    | Some s -> s
    | None -> Alcotest.fail "no MILP stats"
  in
  (match rep.Obs.Trace.Analysis.r_tree with
  | None -> Alcotest.fail "no B&B tree stats in trace"
  | Some t ->
      Alcotest.(check int) "tree nodes match bnb_nodes" stats.Lp.Milp.nodes
        t.Obs.Trace.Analysis.tr_nodes;
      Alcotest.(check bool) "statuses histogram non-empty" true
        (t.Obs.Trace.Analysis.tr_statuses <> []));
  (* the warm-start seed guarantees at least one incumbent event *)
  Alcotest.(check bool) "convergence timeline non-empty" true
    (rep.Obs.Trace.Analysis.r_timeline <> []);
  (* the convergence fields are populated for a MILP flow *)
  Alcotest.(check bool) "first_incumbent_s finite" true
    (Float.is_finite stats.Lp.Milp.first_incumbent_s);
  reset_trace ()

(* Both views of one MILP-map run tell the same story: the same
   incumbent (objective, gap) sequence and the same stop record. The
   views' epochs differ by the time between their enables, so the last
   improvement's time agrees only to that offset. *)
let test_trace_and_log_agree () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  Obs.reset ();
  reset_trace ();
  Obs.Log.clear ();
  Obs.Trace.enable ();
  Obs.Log.enable ();
  let r = run_flow (flow_setup ()) g in
  Obs.Trace.disable ();
  Obs.Log.disable ();
  let open Obs.Trace.Analysis in
  let t = analyze_current () and l = analyze_log () in
  Obs.Log.clear ();
  reset_trace ();
  Alcotest.(check (list string)) "trace well-formed" [] t.r_errors;
  Alcotest.(check (list string)) "log well-formed" [] l.r_errors;
  let incumbents r = List.map (fun p -> (p.gp_obj, p.gp_gap)) r.r_timeline in
  let points = Alcotest.(list (pair (float 0.0) (float 0.0))) in
  Alcotest.check points "same incumbents" (incumbents t) (incumbents l);
  Alcotest.(check bool) "some incumbent" true (t.r_timeline <> []);
  let solve r =
    Option.map
      (fun s -> ((s.sv_nodes, s.sv_pivots), (s.sv_gap, s.sv_elapsed)))
      r.r_stop.st_solve
  in
  let solves =
    Alcotest.(option (pair (pair int int) (pair (float 0.0) (float 0.0))))
  in
  Alcotest.check solves "same milp.done" (solve t) (solve l);
  Alcotest.(check (option int)) "nodes are the solve's nodes"
    (Option.map
       (fun s -> s.Lp.Milp.nodes)
       r.Mams.Flow.solve.Mams.Flow.milp_stats)
    (Option.map (fun s -> s.sv_nodes) t.r_stop.st_solve);
  Alcotest.(check (option string)) "same status" t.r_stop.st_status
    l.r_stop.st_status;
  Alcotest.(check (option string)) "status is the solve's status"
    (Some
       (Option.fold ~none:"heuristic"
          ~some:(Fmt.str "%a" Lp.Milp.pp_status)
          r.Mams.Flow.solve.Mams.Flow.milp_status))
    t.r_stop.st_status;
  Alcotest.(check (list (pair string string))) "same degradation rungs"
    t.r_stop.st_degraded l.r_stop.st_degraded;
  Alcotest.(check (float 1e-3)) "same last improvement"
    t.r_stop.st_last_incumbent l.r_stop.st_last_incumbent

(* The Metrics [trace] object is the report's projection: the keys of
   schema v4, the report's counts, its timeline to 1e-9 s. *)
let test_summary_is_projection () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  Obs.reset ();
  reset_trace ();
  Obs.Trace.enable ();
  ignore (run_flow (flow_setup ()) g);
  let j = Obs.Trace.summary () and r = analyze_current () in
  reset_trace ();
  let open Obs.Trace.Analysis in
  Alcotest.(check (list string)) "keys"
    [ "enabled"; "events"; "spans"; "instants"; "max_depth"; "dropped";
      "first_incumbent_s"; "gap_trajectory" ]
    (match j with Obs.Json.Obj kvs -> List.map fst kvs | _ -> []);
  let int k = match Obs.Json.member k j with Some (Obs.Json.Int n) -> n | _ -> -1 in
  Alcotest.(check int) "events" r.r_events (int "events");
  Alcotest.(check int) "spans" r.r_spans (int "spans");
  Alcotest.(check int) "instants" r.r_instants (int "instants");
  Alcotest.(check int) "max_depth" r.r_depth (int "max_depth");
  Alcotest.(check int) "dropped" 0 (int "dropped");
  Alcotest.(check bool) "flow.run > cascade > flow.solve > milp.solve" true
    (r.r_depth >= 4);
  let num = function
    | Some v -> Option.value (Obs.Json.number v) ~default:Float.nan
    | None -> Float.nan
  in
  let ts = Alcotest.float 1e-9 in
  Alcotest.check ts "first_incumbent_s" (List.hd r.r_timeline).gp_ts
    (num (Obs.Json.member "first_incumbent_s" j));
  Alcotest.(check (list (pair ts (float 0.0)))) "gap_trajectory"
    (List.map (fun p -> (p.gp_ts, p.gp_gap)) r.r_timeline)
    (match Obs.Json.member "gap_trajectory" j with
    | Some (Obs.Json.List ps) ->
        List.map
          (function
            | Obs.Json.List [ t; g ] -> (num (Some t), num (Some g))
            | _ -> (Float.nan, Float.nan))
          ps
    | _ -> [])

(* A log's framing is checked: the header's schema, the log.end footer
   and its event count; its timestamps and probe samples go through the
   same checks as a trace's. *)
let test_log_framing () =
  Obs.Log.clear ();
  Obs.Log.enable ();
  Obs.emit "a" [];
  Obs.emit "b" [ ("k", Obs.Json.Int 1) ];
  Obs.Log.disable ();
  let lines = Obs.Log.to_lines () in
  Obs.Log.clear ();
  let header = List.hd lines and footer = List.nth lines 3 in
  let a = List.nth lines 1 and b = List.nth lines 2 in
  let errors ls =
    match Obs.Trace.Analysis.analyze (Obs.Json.List ls) with
    | Ok r -> r.Obs.Trace.Analysis.r_errors
    | Error e -> Alcotest.failf "analyze rejected a log: %s" e
  in
  let flagged what ls =
    Alcotest.(check int) (what ^ " is one error") 1 (List.length (errors ls))
  in
  Alcotest.(check (list string)) "intact log" [] (errors lines);
  let r = analyze_log () in
  Alcotest.(check (list string)) "empty log" [] r.Obs.Trace.Analysis.r_errors;
  Alcotest.(check int) "no events after clear" 0 r.Obs.Trace.Analysis.r_events;
  flagged "a wrong schema"
    (Obs.Json.Obj [ ("schema", Obs.Json.String "pipesyn-log-v0") ] :: List.tl lines);
  flagged "no header" (List.tl lines);
  flagged "a missing footer" [ header; a; b ];
  flagged "a footer count that disagrees" [ header; a; footer ];
  let line t name args =
    Obs.Json.Obj
      [ ("t", Obs.Json.Float t); ("level", Obs.Json.String "info");
        ("ev", Obs.Json.String name); ("args", Obs.Json.Obj args) ]
  in
  flagged "a timestamp going backwards" [ header; a; line (-1.0) "b" []; footer ];
  flagged "a probe sample without nodes_per_s"
    [ header; a;
      line 1e3 "probe.sample"
        [ ("heap_words", Obs.Json.Int 1); ("gap", Obs.Json.Null);
          ("incumbent", Obs.Json.Null) ];
      footer ]

(* --- neutrality: tracing must never change flow results ------------- *)

(* Everything result-shaped, minus wall-clock timings. The row's lut,
   ff and status are the qor's and the MILP status's. *)
let fingerprint (r : Mams.Flow.result) =
  ( r.Mams.Flow.qor,
    Array.to_list r.Mams.Flow.schedule.Sched.Schedule.cycle,
    Sched.Cover.roots r.Mams.Flow.cover,
    r.Mams.Flow.solve.Mams.Flow.milp_status,
    List.map
      (fun (a : Resilience.Cascade.attempt) ->
        (a.Resilience.Cascade.label, a.Resilience.Cascade.reason))
      r.Mams.Flow.trail )

let run_neutrality_case ~fault () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  (* A stalled worker busy-waits out its entire solve budget before the
     flow degrades, so that one case gets a small budget (the outcome —
     a deterministic heuristic fallback — is budget-independent). *)
  let time_limit = if fault = Some "milp.stall" then 0.2 else 30.0 in
  let setup = flow_setup ~time_limit () in
  let run_once ~traced =
    Resilience.Fault.clear ();
    (match fault with
    | None -> ()
    | Some f -> (
        match Resilience.Fault.arm f with
        | Ok () -> ()
        | Error e -> Alcotest.failf "cannot arm %s: %s" f e));
    Obs.reset ();
    reset_trace ();
    if traced then Obs.Trace.enable ();
    let r = run_flow setup g in
    Resilience.Fault.clear ();
    reset_trace ();
    r
  in
  let off = fingerprint (run_once ~traced:false) in
  let on = fingerprint (run_once ~traced:true) in
  Alcotest.(check bool)
    (Printf.sprintf "traced run identical (fault=%s)"
       (Option.value ~default:"none" fault))
    true (off = on)

let test_neutrality_no_fault () = run_neutrality_case ~fault:None ()

let test_neutrality_fault_matrix () =
  List.iter
    (fun (name, _doc) -> run_neutrality_case ~fault:(Some name) ())
    Resilience.Fault.points

let () =
  Alcotest.run "trace"
    [
      ( "buffer",
        [
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "nesting + export round-trip" `Quick
            test_nesting_and_roundtrip;
          Alcotest.test_case "exception closes span" `Quick
            test_exception_closes_span;
          Alcotest.test_case "disable closes open spans" `Quick
            test_disable_closes_open_spans;
          Alcotest.test_case "cap drops deterministically" `Quick
            test_cap_drops_deterministically;
          Alcotest.test_case "native export shape" `Quick
            test_native_export_shape;
          Alcotest.test_case "summary shape" `Quick test_summary_shape;
        ] );
      ( "flow",
        [
          Alcotest.test_case "instrumented flow trace" `Quick
            test_flow_trace_end_to_end;
          Alcotest.test_case "trace and log agree" `Quick
            test_trace_and_log_agree;
          Alcotest.test_case "summary is the report's projection" `Quick
            test_summary_is_projection;
        ] );
      ( "log",
        [ Alcotest.test_case "framing checks" `Quick test_log_framing ] );
      ( "neutrality",
        [
          Alcotest.test_case "no fault" `Quick test_neutrality_no_fault;
          Alcotest.test_case "fault matrix" `Slow test_neutrality_fault_matrix;
        ] );
    ]
