(* Tests for the live-telemetry layer (Obs.emit, Obs.Log, Obs.Probe):
   routing of one emission to every sink, NDJSON stream semantics
   (levels, cap drops, well-formed output), probe
   sampling, shortest-round-trip float printing — and the load-bearing
   invariant that running the probe and the log stream together never
   changes flow results, across the fault matrix and domain counts. *)

let reset_log () =
  Obs.Log.set_sink None;
  Obs.Log.disable ();
  Obs.Log.clear ()

(* ------------------------------------------------------------------ *)
(* log stream                                                          *)
(* ------------------------------------------------------------------ *)

let test_log_disabled_is_inert () =
  reset_log ();
  Obs.emit "x" [];
  Obs.emit ~level:Obs.Log.Error "y" [ ("k", Obs.Json.Int 1) ];
  Alcotest.(check int) "no events recorded" 0 (Obs.Log.num_events ());
  Alcotest.(check bool) "reports disabled" false (Obs.Log.enabled ())

let test_log_level_filter () =
  reset_log ();
  Obs.Log.enable ~level:Obs.Log.Warn ();
  Obs.emit ~level:Obs.Log.Debug "d" [];
  Obs.emit ~level:Obs.Log.Info "i" [];
  Obs.emit ~level:Obs.Log.Warn "w" [];
  Obs.emit ~level:Obs.Log.Error "e" [];
  Alcotest.(check int) "only warn and error recorded" 2
    (Obs.Log.num_events ());
  Alcotest.(check int) "sub-level events are filtered, not dropped" 0
    (Obs.Log.dropped ());
  reset_log ()

let test_log_sink_sees_events () =
  reset_log ();
  Obs.Log.enable ();
  let seen = ref [] in
  Obs.Log.set_sink (Some (fun e -> seen := e.Obs.Log.l_name :: !seen));
  Obs.emit "a" [];
  Obs.emit "b" [ ("x", Obs.Json.Float 1.5) ];
  Obs.Log.set_sink (Some (fun _ -> failwith "sink exceptions are swallowed"));
  Obs.emit "c" [];
  Alcotest.(check (list string)) "sink saw a then b" [ "a"; "b" ]
    (List.rev !seen);
  Alcotest.(check int) "c was still recorded" 3 (Obs.Log.num_events ());
  reset_log ()

(* Every line of the NDJSON document — header, events, footer — must
   re-parse individually, even when the cap dropped events. *)
let test_log_ndjson_well_formed_under_drops () =
  reset_log ();
  Obs.Log.enable ~cap:16 ();
  for i = 0 to 99 do
    Obs.emit "tick" [ ("i", Obs.Json.Int i) ]
  done;
  Alcotest.(check int) "buffer at cap" 16 (Obs.Log.num_events ());
  Alcotest.(check int) "drops counted" 84 (Obs.Log.dropped ());
  let lines = Obs.Log.to_lines () in
  Alcotest.(check int) "header + events + footer" 18 (List.length lines);
  List.iter
    (fun l ->
      let s = Obs.Json.to_string l in
      match Obs.Json.of_string s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "NDJSON line did not re-parse: %s: %s" s e)
    lines;
  (match lines with
  | header :: _ ->
      Alcotest.(check bool) "schema tag" true
        (Obs.Json.member "schema" header
        = Some (Obs.Json.String Obs.Log.schema))
  | [] -> Alcotest.fail "no header");
  (match List.rev lines with
  | footer :: _ ->
      Alcotest.(check bool) "footer is log.end" true
        (Obs.Json.member "ev" footer = Some (Obs.Json.String "log.end"));
      Alcotest.(check bool) "footer counts drops" true
        (Obs.Json.member "dropped" footer = Some (Obs.Json.Int 84))
  | [] -> Alcotest.fail "no footer");
  reset_log ()

let test_log_write_file () =
  reset_log ();
  Obs.Log.enable ();
  Obs.emit "one" [];
  Obs.emit "two" [ ("t", Obs.Json.Float 0.25) ];
  let path = Filename.temp_file "pipesyn-log" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Log.write ~path;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per record" 4 (List.length lines);
      List.iter
        (fun s ->
          match Obs.Json.of_string s with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "file line did not parse: %s: %s" s e)
        lines);
  reset_log ()

(* ------------------------------------------------------------------ *)
(* routing: one emit feeds the trace, the log and the sink              *)
(* ------------------------------------------------------------------ *)

let reset_sinks () =
  reset_log ();
  Obs.Trace.disable ();
  Obs.Trace.clear ()

(* Args rendered as JSON text, so they compare with Alcotest. *)
let show_args = List.map (fun (k, v) -> (k, Obs.Json.to_string v))

let args_of j =
  match Obs.Json.member "args" j with
  | Some (Obs.Json.Obj a) -> show_args a
  | _ -> []

(* (name, args) of every trace instant, from the native export. *)
let trace_instants () =
  match Obs.Json.member "events" (Obs.Trace.export_native ()) with
  | Some (Obs.Json.List evs) ->
      List.filter_map
        (fun e ->
          match (Obs.Json.member "ph" e, Obs.Json.member "name" e) with
          | Some (Obs.Json.String "i"), Some (Obs.Json.String n) ->
              Some (n, args_of e)
          | _ -> None)
        evs
  | _ -> Alcotest.fail "native trace export has no events list"

(* (name, args) of every NDJSON event line, footer excluded. *)
let log_events () =
  List.filter_map
    (fun l ->
      match Obs.Json.member "ev" l with
      | Some (Obs.Json.String n) when n <> "log.end" -> Some (n, args_of l)
      | _ -> None)
    (Obs.Log.to_lines ())

let events = Alcotest.(list (pair string (list (pair string string))))

let test_emit_reaches_trace_and_log () =
  reset_sinks ();
  Obs.Trace.enable ();
  Obs.Log.enable ();
  let args = [ ("n", Obs.Json.Int 3); ("tag", Obs.Json.String "x") ] in
  Obs.emit ~cat:"t" "routed" args;
  let want = [ ("routed", show_args args) ] in
  Alcotest.check events "one trace instant" want (trace_instants ());
  Alcotest.check events "one log event, same name and args" want
    (log_events ());
  reset_sinks ()

let test_debug_reaches_trace_only () =
  reset_sinks ();
  Obs.Trace.enable ();
  Obs.Log.enable ~level:Obs.Log.Info ();
  Alcotest.(check bool) "debug recorded while tracing" true
    (Obs.recording ~level:Obs.Log.Debug ());
  Obs.emit ~level:Obs.Log.Debug "dbg" [];
  Alcotest.check events "debug event in the trace" [ ("dbg", []) ]
    (trace_instants ());
  Alcotest.(check int) "info log skips it" 0 (Obs.Log.num_events ());
  Obs.Trace.disable ();
  Alcotest.(check bool) "debug not recorded by an info log alone" false
    (Obs.recording ~level:Obs.Log.Debug ());
  Alcotest.(check bool) "info still recorded" true (Obs.recording ());
  reset_sinks ()

let test_sink_once_per_accepted_event () =
  reset_sinks ();
  Obs.Trace.enable ();
  Obs.Log.enable ~cap:16 ~level:Obs.Log.Warn ();
  let calls = ref 0 in
  Obs.Log.set_sink (Some (fun _ -> incr calls));
  Obs.emit ~level:Obs.Log.Info "below" [];
  for _ = 1 to 20 do
    Obs.emit ~level:Obs.Log.Warn "w" []
  done;
  Obs.emit ~level:Obs.Log.Error "e" [];
  Alcotest.(check int) "sink ran once per accepted event, drops included" 21
    !calls;
  Alcotest.(check int) "log kept the cap" 16 (Obs.Log.num_events ());
  Alcotest.(check int) "trace saw all 22" 22 (List.length (trace_instants ()));
  reset_sinks ()

let test_all_sinks_off () =
  reset_sinks ();
  let calls = ref 0 in
  Obs.Log.set_sink (Some (fun _ -> incr calls));
  Alcotest.(check bool) "recording () is false" false (Obs.recording ());
  Alcotest.(check bool) "even for errors" false
    (Obs.recording ~level:Obs.Log.Error ());
  Obs.emit "x" [ ("k", Obs.Json.Int 1) ];
  Obs.emit ~level:Obs.Log.Error "y" [];
  Alcotest.(check int) "no trace events" 0 (Obs.Trace.num_events ());
  Alcotest.(check int) "no log events" 0 (Obs.Log.num_events ());
  Alcotest.(check int) "sink never called" 0 !calls;
  reset_sinks ()

(* Two spawned domains and this one emit at once. The log and the trace
   are two views of one store, so they agree on the order of what both
   kept, and each view accounts for every event it accepted: kept, or
   dropped at its cap. *)
let test_concurrent_emitters () =
  let per_domain = 2_001 in
  let emit_all d =
    for i = 1 to per_domain do
      Obs.emit ~tid:(d + 1) "conc"
        [ ("d", Obs.Json.Int d); ("i", Obs.Json.Int i) ]
    done
  in
  let run ?cap () =
    reset_sinks ();
    Obs.Trace.enable ?cap ();
    Obs.Log.enable ?cap ();
    let spawned =
      List.init 2 (fun d -> Domain.spawn (fun () -> emit_all (d + 1)))
    in
    emit_all 0;
    List.iter Domain.join spawned;
    let tag =
      match cap with None -> "uncapped" | Some c -> Printf.sprintf "cap %d" c
    in
    Alcotest.check events ("log order is trace order, " ^ tag)
      (trace_instants ()) (log_events ());
    Alcotest.(check int) ("trace kept + dropped, " ^ tag) (3 * per_domain)
      (Obs.Trace.num_events () + Obs.Trace.dropped ());
    Alcotest.(check int) ("log kept + dropped, " ^ tag) (3 * per_domain)
      (Obs.Log.num_events () + Obs.Log.dropped ());
    (match Obs.Trace.Analysis.analyze (Obs.Trace.export_chrome ()) with
    | Ok r ->
        Alcotest.(check (list string)) ("trace well-formed, " ^ tag) []
          r.Obs.Trace.Analysis.r_errors
    | Error e -> Alcotest.failf "analyze rejected the trace: %s" e);
    reset_sinks ()
  in
  run ();
  run ~cap:16 ()

(* The log's state as it reads back, minus the footer's write time. *)
let log_state () =
  let footer l = Obs.Json.member "ev" l = Some (Obs.Json.String "log.end") in
  let line l =
    match l with
    | Obs.Json.Obj kvs when footer l ->
        Obs.Json.to_string (Obs.Json.Obj (List.remove_assoc "t" kvs))
    | l -> Obs.Json.to_string l
  in
  ( (Obs.Log.num_events (), Obs.Log.dropped ()),
    List.map line (Obs.Log.to_lines ()) )

let trace_state () =
  ( (Obs.Trace.num_events (), Obs.Trace.dropped ()),
    [ Obs.Json.to_string (Obs.Trace.export_native ()) ] )

(* One view's enable, clear and disable leave the other view's events,
   counts and export as they were; and the trace refusing events at its
   cap counts no drops against the log. *)
let test_view_lifecycles_independent () =
  let state = Alcotest.(pair (pair int int) (list string)) in
  let case (other, state_of) (op, apply) =
    reset_sinks ();
    Obs.Trace.enable ~cap:16 ();
    Obs.Log.enable ~cap:16 ();
    (* 4 spans of 5 instants: both views hold events and both drop some *)
    for s = 1 to 4 do
      Obs.span "s" (fun () ->
          for i = 1 to 5 do
            Obs.emit "e" [ ("s", Obs.Json.Int s); ("i", Obs.Json.Int i) ]
          done)
    done;
    let before = state_of () in
    apply ();
    Alcotest.check state (Printf.sprintf "%s leaves the %s alone" op other)
      before (state_of ())
  in
  List.iter
    (case ("log", log_state))
    [ ("Trace.enable", fun () -> Obs.Trace.enable ());
      ("Trace.clear", Obs.Trace.clear); ("Trace.disable", Obs.Trace.disable) ];
  List.iter
    (case ("trace", trace_state))
    [ ("Log.enable", fun () -> Obs.Log.enable ());
      ("Log.clear", Obs.Log.clear); ("Log.disable", Obs.Log.disable) ];
  reset_sinks ();
  Obs.Trace.enable ~cap:16 ();
  Obs.Log.enable ();
  for i = 1 to 40 do
    Obs.emit "e" [ ("i", Obs.Json.Int i) ]
  done;
  Alcotest.(check int) "trace dropped past its cap" 24 (Obs.Trace.dropped ());
  Alcotest.(check int) "log kept all 40" 40 (Obs.Log.num_events ());
  Alcotest.(check int) "no drops counted against the log" 0
    (Obs.Log.dropped ());
  reset_sinks ()

(* ------------------------------------------------------------------ *)
(* shortest round-trip float printing                                  *)
(* ------------------------------------------------------------------ *)

(* Timestamps, objectives and GC word counts all travel through
   Json.to_string; parsing the printed form must recover the exact
   float, and simple values must not grow 17-digit tails. *)
let test_float_round_trip_exact () =
  let cases =
    [
      0.0; 1.0; -1.0; 0.1; 0.25; 1e-9; 1.5e300; 4223459.0; 0.36365699768066406;
      Float.pi; 1.0 /. 3.0; Float.max_float; Float.min_float; 1e22; -0.0;
    ]
  in
  List.iter
    (fun f ->
      let s = Obs.Json.to_string (Obs.Json.Float f) in
      match Obs.Json.of_string s with
      | Ok (Obs.Json.Float g) ->
          Alcotest.(check bool)
            (Printf.sprintf "%h survives to_string/of_string (%s)" f s)
            true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | Ok (Obs.Json.Int i) ->
          (* integral floats may print without a fraction; value must match *)
          Alcotest.(check bool)
            (Printf.sprintf "%h parses back equal as int (%s)" f s)
            true
            (float_of_int i = f)
      | Ok _ -> Alcotest.failf "%s parsed to a non-number" s
      | Error e -> Alcotest.failf "%s did not parse: %s" s e)
    cases;
  Alcotest.(check string) "0.1 prints shortest" "0.1"
    (Obs.Json.to_string (Obs.Json.Float 0.1));
  Alcotest.(check string) "1.5 prints shortest" "1.5"
    (Obs.Json.to_string (Obs.Json.Float 1.5))

(* ------------------------------------------------------------------ *)
(* probe                                                               *)
(* ------------------------------------------------------------------ *)

(* Runs the probe at [period_ms] over ~0.1 s of busy work and returns
   the args of every ["probe.sample"] its log sink saw. *)
let probe_samples ~period_ms =
  reset_log ();
  Obs.Log.enable ();
  let samples = ref [] in
  Obs.Log.set_sink
    (Some
       (fun e ->
         if e.Obs.Log.l_name = "probe.sample" then
           samples := e.Obs.Log.l_args :: !samples));
  Obs.Probe.start ~period_ms;
  Alcotest.(check bool) "running" true (Obs.Probe.running ());
  (* burn a little work so the sampler gets scheduled a few times *)
  let t0 = Unix.gettimeofday () in
  let acc = ref 0.0 in
  while Unix.gettimeofday () -. t0 < 0.1 do
    for i = 1 to 10_000 do
      acc := !acc +. float_of_int i
    done
  done;
  Obs.Probe.stop ();
  reset_log ();
  Alcotest.(check bool) "stopped" false (Obs.Probe.running ());
  Alcotest.(check bool) "took samples" true (Obs.Probe.samples () > 0);
  List.rev !samples

let test_probe_samples_and_events () =
  Obs.reset ();
  Obs.Probe.note_incumbent ~objective:12.5 ~gap:0.25;
  let samples = probe_samples ~period_ms:2 in
  Alcotest.(check bool) "samples reached the log sink" true (samples <> []);
  List.iter
    (fun args ->
      List.iter
        (fun k ->
          Alcotest.(check bool) ("sample carries " ^ k) true
            (List.mem_assoc k args))
        [ "heap_words"; "rss_kb"; "minor_words"; "major_words";
          "compactions"; "nodes"; "pivots"; "nodes_per_s"; "pivots_per_s";
          "domain_nodes_per_s" ];
      Alcotest.(check bool) "incumbent from the last note" true
        (List.assoc_opt "incumbent" args = Some (Obs.Json.Float 12.5));
      Alcotest.(check bool) "gap from the last note" true
        (List.assoc_opt "gap" args = Some (Obs.Json.Float 0.25)))
    samples;
  (match Obs.Probe.peak_rss_kb () with
  | Some kb -> Alcotest.(check bool) "peak RSS positive" true (kb > 0)
  | None -> ());
  (* resources section reflects the probe *)
  let j = Obs.Metrics.resources () in
  Alcotest.(check bool) "resources counts probe samples" true
    (match Obs.Json.member "probe_samples" j with
    | Some (Obs.Json.Int n) -> n > 0
    | _ -> false);
  Obs.reset ()

(* A zero period is clamped to 1 ms, as documented, not refused. After
   {!Obs.reset} the samples carry no incumbent. *)
let test_probe_zero_period_clamped () =
  Obs.Probe.note_incumbent ~objective:3.0 ~gap:0.5;
  Obs.reset ();
  let samples = probe_samples ~period_ms:0 in
  Alcotest.(check bool) "samples reached the log sink" true (samples <> []);
  List.iter
    (fun args ->
      Alcotest.(check bool) "reset cleared the incumbent" true
        (match List.assoc_opt "incumbent" args with
        | Some (Obs.Json.Float f) -> Float.is_nan f
        | _ -> false))
    samples;
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* neutrality: telemetry must never change flow results                *)
(* ------------------------------------------------------------------ *)

let flow_setup ?(time_limit = 30.0) ~domains () =
  {
    (Mams.Flow.default_setup ~device:Fpga.Device.figure1) with
    delays = Fpga.Delays.make ~logic:2.0 ~arith_base:1.6 ~arith_per_bit:0.2 ();
    time_limit;
    domains = Some domains;
  }

let run_flow setup g =
  match Mams.Flow.run setup Mams.Flow.Milp_map g with
  | Ok r -> r
  | Error e -> Alcotest.failf "flow failed: %s" e

(* Everything result-shaped, minus wall-clock timings. With several
   solver domains the B&B may break an objective tie either way run to
   run (exploration order races the bound broadcast), landing on a
   different optimal vertex with a last-ulp objective difference — so
   the multi-domain fingerprint keeps only what parallel solve
   guarantees deterministic (status and trail; the objective is
   compared separately with a tolerance), while the single-domain one
   pins the whole result. *)
let fingerprint ~domains (r : Mams.Flow.result) =
  let info = r.Mams.Flow.solve in
  let stable =
    ( info.Mams.Flow.milp_status,
      List.map
        (fun (a : Resilience.Cascade.attempt) ->
          (a.Resilience.Cascade.label, a.Resilience.Cascade.reason))
        r.Mams.Flow.trail )
  in
  let full =
    if domains > 1 then None
    else
      Some
        ( r.Mams.Flow.qor,
          Array.to_list r.Mams.Flow.schedule.Sched.Schedule.cycle,
          Sched.Cover.roots r.Mams.Flow.cover,
          Option.map (fun s -> s.Lp.Milp.nodes) info.Mams.Flow.milp_stats )
  in
  (stable, full, Option.value ~default:Float.nan info.Mams.Flow.milp_objective)

let same_objective a b =
  (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

(* [every_sink] adds the trace and a no-op log sink to the telemetry
   run, so every view of the event stream is on at once. *)
let run_neutrality_case ?(every_sink = false) ~fault ~domains () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  (* A stalled worker busy-waits out its entire solve budget before the
     flow degrades, so that one case gets a small budget (the outcome —
     a deterministic heuristic fallback — is budget-independent). *)
  let time_limit = if fault = Some "milp.stall" then 0.2 else 30.0 in
  let setup = flow_setup ~time_limit ~domains () in
  let run_once ~telemetry =
    Resilience.Fault.clear ();
    (match fault with
    | None -> ()
    | Some f -> (
        match Resilience.Fault.arm f with
        | Ok () -> ()
        | Error e -> Alcotest.failf "cannot arm %s: %s" f e));
    Obs.reset ();
    reset_log ();
    if telemetry then begin
      Obs.Log.enable ();
      Obs.Probe.start ~period_ms:5;
      if every_sink then begin
        Obs.Trace.enable ();
        Obs.Log.set_sink (Some ignore)
      end
    end;
    let r = run_flow setup g in
    Obs.Probe.stop ();
    Resilience.Fault.clear ();
    reset_sinks ();
    r
  in
  let off_s, off_f, off_obj = fingerprint ~domains (run_once ~telemetry:false) in
  let on_s, on_f, on_obj = fingerprint ~domains (run_once ~telemetry:true) in
  let tag =
    Printf.sprintf "(fault=%s, domains=%d)"
      (Option.value ~default:"none" fault)
      domains
  in
  (* structural [compare], not [(=)]: degraded reasons may embed NaN,
     and NaN = NaN is false while compare orders it equal *)
  Alcotest.(check bool)
    ("telemetry run identical " ^ tag)
    true
    (compare (off_s, off_f) (on_s, on_f) = 0);
  Alcotest.(check bool)
    ("objective identical " ^ tag)
    true
    (same_objective off_obj on_obj)

let test_neutrality_no_fault_1d () = run_neutrality_case ~fault:None ~domains:1 ()
let test_neutrality_no_fault_4d () = run_neutrality_case ~fault:None ~domains:4 ()

let test_neutrality_every_sink_1d () =
  run_neutrality_case ~every_sink:true ~fault:None ~domains:1 ()

let test_neutrality_every_sink_4d () =
  run_neutrality_case ~every_sink:true ~fault:None ~domains:4 ()

let test_neutrality_fault_matrix () =
  List.iter
    (fun (name, _doc) ->
      run_neutrality_case ~fault:(Some name) ~domains:1 ();
      run_neutrality_case ~fault:(Some name) ~domains:4 ())
    Resilience.Fault.points

(* The instrumented flow fills the log with well-formed events. *)
let test_flow_log_end_to_end () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let setup = flow_setup ~domains:1 () in
  Obs.reset ();
  reset_log ();
  Obs.Log.enable ();
  let (_ : Mams.Flow.result) = run_flow setup g in
  Alcotest.(check bool) "events recorded" true (Obs.Log.num_events () > 0);
  let names =
    List.filter_map
      (fun l ->
        match Obs.Json.member "ev" l with
        | Some (Obs.Json.String s) -> Some s
        | _ -> None)
      (Obs.Log.to_lines ())
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " event present") true (List.mem n names))
    [ "flow.phase"; "milp.incumbent"; "milp.done" ];
  List.iter
    (fun l ->
      let s = Obs.Json.to_string l in
      match Obs.Json.of_string s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "flow log line did not parse: %s: %s" s e)
    (Obs.Log.to_lines ());
  reset_log ()

let () =
  Alcotest.run "telemetry"
    [
      ( "log",
        [
          Alcotest.test_case "disabled is inert" `Quick
            test_log_disabled_is_inert;
          Alcotest.test_case "level filter" `Quick test_log_level_filter;
          Alcotest.test_case "sink sees events" `Quick
            test_log_sink_sees_events;
          Alcotest.test_case "NDJSON well-formed under drops" `Quick
            test_log_ndjson_well_formed_under_drops;
          Alcotest.test_case "write file" `Quick test_log_write_file;
        ] );
      ( "routing",
        [
          Alcotest.test_case "emit reaches trace and log" `Quick
            test_emit_reaches_trace_and_log;
          Alcotest.test_case "debug reaches trace only" `Quick
            test_debug_reaches_trace_only;
          Alcotest.test_case "sink once per accepted event" `Quick
            test_sink_once_per_accepted_event;
          Alcotest.test_case "all sinks off" `Quick test_all_sinks_off;
          Alcotest.test_case "concurrent emitters" `Quick
            test_concurrent_emitters;
          Alcotest.test_case "view lifecycles independent" `Quick
            test_view_lifecycles_independent;
        ] );
      ( "json",
        [
          Alcotest.test_case "float round-trip exact" `Quick
            test_float_round_trip_exact;
        ] );
      ( "probe",
        [
          Alcotest.test_case "samples and events" `Quick
            test_probe_samples_and_events;
          Alcotest.test_case "zero period is clamped" `Quick
            test_probe_zero_period_clamped;
        ] );
      ( "flow",
        [
          Alcotest.test_case "instrumented flow log" `Quick
            test_flow_log_end_to_end;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "no fault, 1 domain" `Quick
            test_neutrality_no_fault_1d;
          Alcotest.test_case "no fault, 4 domains" `Quick
            test_neutrality_no_fault_4d;
          Alcotest.test_case "every sink, 1 domain" `Quick
            test_neutrality_every_sink_1d;
          Alcotest.test_case "every sink, 4 domains" `Quick
            test_neutrality_every_sink_4d;
          Alcotest.test_case "fault matrix, domains {1,4}" `Slow
            test_neutrality_fault_matrix;
        ] );
    ]
