(* Unit tests of lib/resilience (Deadline / Fault / Cascade) plus the
   end-to-end fault-injection matrix: every registered fault point, armed
   against every registry benchmark, must still yield a Verify-clean
   result with a non-empty degradation trail. *)

let delays = Fpga.Delays.default

(* ------------------------------------------------------------------ *)
(* Deadline                                                            *)
(* ------------------------------------------------------------------ *)

let test_deadline_none () =
  let d = Resilience.Deadline.none in
  Alcotest.(check bool) "never expires" false (Resilience.Deadline.expired d);
  Alcotest.(check bool) "is_none" true (Resilience.Deadline.is_none d);
  Alcotest.(check bool) "infinite remaining" true
    (Resilience.Deadline.remaining d = infinity)

let test_deadline_budget () =
  let d = Resilience.Deadline.of_budget 0.0 in
  Alcotest.(check bool) "zero budget expires" true
    (Resilience.Deadline.expired d);
  let d = Resilience.Deadline.of_budget 1000.0 in
  Alcotest.(check bool) "large budget alive" false
    (Resilience.Deadline.expired d);
  Alcotest.(check bool) "remaining bounded by budget" true
    (Resilience.Deadline.remaining d <= 1000.0)

let test_deadline_clip () =
  let d = Resilience.Deadline.clip Resilience.Deadline.none ~budget:0.0 in
  Alcotest.(check bool) "clip none by zero expires" true
    (Resilience.Deadline.expired d);
  let far = Resilience.Deadline.of_budget 1000.0 in
  let near = Resilience.Deadline.clip far ~budget:0.0 in
  Alcotest.(check bool) "clip far by zero expires" true
    (Resilience.Deadline.expired near);
  (* clipping by a larger budget keeps the tighter original *)
  let still = Resilience.Deadline.clip (Resilience.Deadline.of_budget 1.0) ~budget:1000.0 in
  Alcotest.(check bool) "clip keeps tighter deadline" true
    (Resilience.Deadline.remaining still <= 1.0)

let test_deadline_split () =
  (* With no deadline every phase gets none. *)
  let phases =
    Resilience.Deadline.split Resilience.Deadline.none
      [ ("a", 1.0); ("b", 1.0) ]
  in
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "split of none is none" true
        (Resilience.Deadline.is_none d))
    phases;
  (* Cumulative checkpoints: a at ~1/4 of the budget, b at the end. *)
  let d = Resilience.Deadline.of_budget 100.0 in
  let phases = Resilience.Deadline.split d [ ("a", 1.0); ("b", 3.0) ] in
  let rem name = Resilience.Deadline.remaining (List.assoc name phases) in
  Alcotest.(check bool) "a ends around 25%" true
    (rem "a" > 20.0 && rem "a" <= 25.0);
  Alcotest.(check bool) "b ends at the deadline" true
    (rem "b" > 95.0 && rem "b" <= 100.0);
  Alcotest.(check bool) "checkpoints ordered" true (rem "a" < rem "b")

(* ------------------------------------------------------------------ *)
(* Fault                                                               *)
(* ------------------------------------------------------------------ *)

let test_fault_arm_always () =
  Resilience.Fault.clear ();
  (match Resilience.Fault.arm "milp.timeout" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm failed: %s" e);
  Alcotest.(check (list string)) "armed" [ "milp.timeout" ]
    (Resilience.Fault.armed ());
  Alcotest.(check bool) "fires" true (Resilience.Fault.fires "milp.timeout");
  Alcotest.(check bool) "fires again" true
    (Resilience.Fault.fires "milp.timeout");
  Alcotest.(check bool) "other point silent" false
    (Resilience.Fault.fires "cuts.raise");
  Resilience.Fault.clear ();
  Alcotest.(check bool) "cleared" false
    (Resilience.Fault.fires "milp.timeout")

let test_fault_unknown_point () =
  Resilience.Fault.clear ();
  (match Resilience.Fault.arm "milp.timeout,bogus.point" with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error e ->
      Alcotest.(check bool) "names the point" true
        (String.length e > 0));
  (* nothing armed on error — not even the valid clause *)
  Alcotest.(check (list string)) "nothing armed" []
    (Resilience.Fault.armed ());
  Resilience.Fault.clear ()

let test_fault_nth () =
  Resilience.Fault.clear ();
  (match Resilience.Fault.arm "cuts.raise@2" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm failed: %s" e);
  Alcotest.(check (list bool)) "fires on 2nd hit only"
    [ false; true; false; false ]
    (List.init 4 (fun _ -> Resilience.Fault.fires "cuts.raise"));
  Resilience.Fault.clear ()

let test_fault_prob_deterministic () =
  let sample () =
    Resilience.Fault.clear ();
    (match Resilience.Fault.arm "milp.raise%50:42" with
    | Ok () -> ()
    | Error e -> Alcotest.failf "arm failed: %s" e);
    List.init 32 (fun _ -> Resilience.Fault.fires "milp.raise")
  in
  let a = sample () and b = sample () in
  Alcotest.(check (list bool)) "same seed, same firing pattern" a b;
  Alcotest.(check bool) "50% over 32 hits is mixed" true
    (List.mem true a && List.mem false a);
  let c =
    Resilience.Fault.clear ();
    (match Resilience.Fault.arm "milp.raise%50:43" with
    | Ok () -> ()
    | Error e -> Alcotest.failf "arm failed: %s" e);
    List.init 32 (fun _ -> Resilience.Fault.fires "milp.raise")
  in
  Alcotest.(check bool) "different seed, different pattern" true (a <> c);
  Resilience.Fault.clear ()

let test_fault_points_registered () =
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " registered") true
        (Resilience.Fault.mem name))
    Resilience.Fault.points;
  Alcotest.(check int) "ten points" 10 (List.length Resilience.Fault.points)

(* ------------------------------------------------------------------ *)
(* Cascade                                                             *)
(* ------------------------------------------------------------------ *)

let step label run : int Resilience.Cascade.step =
  { Resilience.Cascade.slabel = label; retries = 0; run }

let test_cascade_first_ok () =
  match
    Resilience.Cascade.run ~deadline:Resilience.Deadline.none
      [ step "a" (fun _ -> Ok 1); step "b" (fun _ -> Alcotest.fail "ran b") ]
  with
  | Ok o ->
      Alcotest.(check int) "value" 1 o.Resilience.Cascade.value;
      Alcotest.(check bool) "empty trail" true (o.Resilience.Cascade.trail = []);
      Alcotest.(check bool) "not degraded" false (Resilience.Cascade.degraded o)
  | Error _ -> Alcotest.fail "cascade failed"

let test_cascade_containment () =
  match
    Resilience.Cascade.run ~deadline:Resilience.Deadline.none
      [
        step "boom" (fun _ -> failwith "kaboom");
        step "fallback" (fun _ -> Ok 7);
      ]
  with
  | Ok o ->
      Alcotest.(check int) "fallback value" 7 o.Resilience.Cascade.value;
      (match o.Resilience.Cascade.trail with
      | [ a ] ->
          Alcotest.(check string) "label" "boom" a.Resilience.Cascade.label;
          Alcotest.(check string) "reason" "exception" a.Resilience.Cascade.reason
      | t -> Alcotest.failf "expected 1 trail entry, got %d" (List.length t));
      Alcotest.(check bool) "degraded" true (Resilience.Cascade.degraded o)
  | Error _ -> Alcotest.fail "cascade failed"

let test_cascade_exhaustion () =
  match
    Resilience.Cascade.run ~deadline:Resilience.Deadline.none
      [
        step "a" (fun _ -> Error ("unknown", "no incumbent"));
        step "b" (fun _ -> failwith "down too");
      ]
  with
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error trail ->
      Alcotest.(check int) "both attempts recorded" 2 (List.length trail);
      Alcotest.(check (list string)) "reasons in order"
        [ "unknown"; "exception" ]
        (List.map (fun a -> a.Resilience.Cascade.reason) trail)

let test_cascade_expired_runs_last () =
  (* An already-expired cascade deadline skips intermediate steps but the
     terminal fallback still runs (with the expired sub-deadline). *)
  let ran_mid = ref false in
  match
    Resilience.Cascade.run ~deadline:(Resilience.Deadline.of_budget 0.0)
      [
        step "mid" (fun _ -> ran_mid := true; Ok 1);
        step "last" (fun dl ->
            Alcotest.(check bool) "sub-deadline expired" true
              (Resilience.Deadline.expired dl);
            Ok 2);
      ]
  with
  | Ok o ->
      Alcotest.(check bool) "mid skipped" false !ran_mid;
      Alcotest.(check int) "last ran" 2 o.Resilience.Cascade.value;
      (match o.Resilience.Cascade.trail with
      | [ a ] ->
          Alcotest.(check string) "skip reason" "timeout"
            a.Resilience.Cascade.reason
      | t -> Alcotest.failf "expected 1 trail entry, got %d" (List.length t))
  | Error _ -> Alcotest.fail "cascade failed"

(* One entry of the metrics row's [degradation] array. *)
let test_attempt_json () =
  let a =
    {
      Resilience.Cascade.label = "milp-map.full";
      reason = "unknown";
      detail = "MILP failed: unknown after 1.0s";
      elapsed = 1.25;
      retry = 1;
    }
  in
  Alcotest.(check string) "degradation entry"
    {|{"label": "milp-map.full", "reason": "unknown", "detail": "MILP failed: unknown after 1.0s", "elapsed_s": 1.25, "retry": 1}|}
    (Obs.Json.to_string (Resilience.Cascade.attempt_to_json a))

(* ------------------------------------------------------------------ *)
(* end-to-end fault matrix                                             *)
(* ------------------------------------------------------------------ *)

(* Some supervision points cannot fire in this configuration — steals
   never happen at 1 domain, no checkpoint sink is configured, and a
   supervised recovery is by design invisible — so only the faults that
   are guaranteed to bite may demand a non-empty trail. Every armed run
   must still come back with an independently verified result. *)
let trail_guaranteed = function
  | "milp.steal_drop" | "milp.checkpoint_torn" | "milp.stall" -> false
  | _ -> true

(* An array of the result's metrics row. *)
let row_list k (r : Mams.Flow.result) =
  match Obs.Json.member k r.Mams.Flow.metrics with
  | Some (Obs.Json.List l) -> l
  | _ -> Alcotest.failf "row has no %S array" k

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
      (* A stalled solve waits out its whole budget before the flow
         degrades, so that row alone gets a short one. *)
      time_limit = (if fault = "milp.stall" then 0.2 else 1.0);
    }
  in
  let r = Mams.Flow.run setup Mams.Flow.Milp_map g in
  Resilience.Fault.clear ();
  match r with
  | Error msg -> Alcotest.failf "%s + %s: no result: %s" e.name fault msg
  | Ok r ->
      if trail_guaranteed fault then begin
        Alcotest.(check bool)
          (Printf.sprintf "%s + %s: non-empty trail" e.name fault)
          true
          (r.Mams.Flow.trail <> []);
        Alcotest.(check bool)
          (Printf.sprintf "%s + %s: degradation serialized" e.name fault)
          true
          (row_list "degradation" r <> [])
      end;
      (* The flow verified already; re-check independently. *)
      let ctx =
        { Sched.Verify.device; delays = setup.Mams.Flow.delays;
          resources = setup.Mams.Flow.resources }
      in
      (match
         Sched.Verify.check ctx g r.Mams.Flow.cover r.Mams.Flow.schedule
       with
      | Ok () -> ()
      | Error errs ->
          Alcotest.failf "%s + %s: verify failed: %s" e.name fault
            (String.concat "; " errs))

let test_fault_matrix () =
  List.iter
    (fun (fault, _) ->
      List.iter (run_with_fault ~fault) Benchmarks.Registry.all)
    Resilience.Fault.points

(* The expected cascade shape for the hardest input: milp.timeout makes
   the MILP attempt report Unknown, so the map-first rung must win. *)
let test_milp_timeout_trail_shape () =
  Resilience.Fault.clear ();
  (match Resilience.Fault.arm "milp.timeout" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm: %s" e);
  let e = Benchmarks.Registry.find "GFMUL" in
  let g = e.build () in
  let device = Fpga.Device.make ~t_clk:e.t_clk () in
  let setup =
    { (Mams.Flow.default_setup ~device) with
      resources = e.resources; time_limit = 1.0 }
  in
  let r = Mams.Flow.run setup Mams.Flow.Milp_map g in
  Resilience.Fault.clear ();
  match r with
  | Error msg -> Alcotest.failf "no result: %s" msg
  | Ok r ->
      let labels =
        List.map (fun a -> a.Resilience.Cascade.label) r.Mams.Flow.trail
      in
      Alcotest.(check (list string)) "the MILP attempt failed unknown"
        [ "milp-map.full" ] labels;
      List.iter
        (fun a ->
          Alcotest.(check string) "reason" "unknown"
            a.Resilience.Cascade.reason)
        r.Mams.Flow.trail;
      let map_first =
        match Mams.Flow.run setup Mams.Flow.Map_heuristic g with
        | Ok m -> m
        | Error msg -> Alcotest.failf "map-first: %s" msg
      in
      Alcotest.(check bool) "map-first rung's design" true
        (r.Mams.Flow.solve.Mams.Flow.milp_status = None
        && r.Mams.Flow.qor = map_first.Mams.Flow.qor);
      Alcotest.(check bool) "requested method kept" true
        (Obs.Json.member "method" r.Mams.Flow.metrics
        = Some (Obs.Json.String "MILP-map"))

(* A degraded MILP-map run lists each diagnostic exactly once, sorted by
   [Diag.compare]: the lint gate's findings (DR has a dead node), the
   exact audit's, and one RES00x entry per trail attempt. *)
let test_degraded_diagnostics () =
  Resilience.Fault.clear ();
  (match Resilience.Fault.arm "milp.raise@1" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm: %s" e);
  let e = Benchmarks.Registry.find "DR" in
  let g = e.build () in
  let device = Fpga.Device.make ~t_clk:e.t_clk () in
  let setup =
    { (Mams.Flow.default_setup ~device) with
      resources = e.resources; time_limit = 2.0; domains = Some 1;
      audit = true }
  in
  let r = Mams.Flow.run setup Mams.Flow.Milp_map g in
  Resilience.Fault.clear ();
  let gate =
    match Mams.Flow.lint setup g with
    | Ok d -> d
    | Error _ -> Alcotest.fail "lint gate failed"
  in
  match r with
  | Error msg -> Alcotest.failf "no result: %s" msg
  | Ok r ->
      let audit =
        match r.Mams.Flow.solve.Mams.Flow.audit_diags with
        | Some d -> d
        | None -> Alcotest.fail "audit did not run"
      in
      let trail = r.Mams.Flow.trail in
      Alcotest.(check bool) "gate findings present" true (gate <> []);
      Alcotest.(check bool) "degraded" true (trail <> []);
      let diags = row_list "diagnostics" r in
      let field k j =
        match Obs.Json.member k j with
        | Some (Obs.Json.String s) -> s
        | _ -> Alcotest.failf "diagnostic without %s" k
      in
      let is_res j = String.starts_with ~prefix:"RES" (field "code" j) in
      (* [Diag.compare] orders by severity, then code, then location; the
         RES entries are all global, so their message breaks the tie. *)
      let key j =
        let rank =
          match field "severity" j with
          | "error" -> 0
          | "warning" -> 1
          | _ -> 2
        in
        (rank, field "code" j, if is_res j then field "message" j else "")
      in
      let keys = List.map key diags in
      Alcotest.(check bool) "sorted by Diag.compare" true
        (keys = List.sort compare keys);
      let res, rest = List.partition is_res diags in
      Alcotest.(check (list string)) "gate and audit findings, each once"
        (List.map Obs.Json.to_string
           (Analyze.Engine.diags_to_json (gate @ audit)))
        (List.map Obs.Json.to_string rest);
      let witness j =
        match Obs.Json.member "witness" j with
        | Some (Obs.Json.List ws) ->
            String.concat "|"
              (List.map (function Obs.Json.String w -> w | _ -> "?") ws)
        | _ -> Alcotest.failf "diagnostic without witness"
      in
      Alcotest.(check (list string)) "one RES entry per trail attempt"
        (List.sort compare
           (List.map (fun a -> a.Resilience.Cascade.detail) trail))
        (List.sort compare (List.map witness res))

let test_no_fault_clean_and_stable () =
  Resilience.Fault.clear ();
  let device = Fpga.Device.figure1 in
  let delays =
    Fpga.Delays.make ~logic:2.0 ~arith_base:1.6 ~arith_per_bit:0.2 ()
  in
  let setup =
    { (Mams.Flow.default_setup ~device) with delays; time_limit = 30.0 }
  in
  let go () =
    let g = Benchmarks.Rs.kernel ~width:2 () in
    match Mams.Flow.run setup Mams.Flow.Milp_map g with
    | Ok r -> r
    | Error e -> Alcotest.failf "flow failed: %s" e
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "empty trail" true (a.Mams.Flow.trail = []);
  Alcotest.(check bool) "empty degradation array" true
    (row_list "degradation" a = []);
  (* QoR parity with the pre-resilience flow (fig1 optimum) and across
     repeated runs. *)
  Alcotest.(check int) "single stage" 0 (Sched.Schedule.latency a.schedule);
  Alcotest.(check int) "recurrence register only" 2 a.Mams.Flow.qor.Sched.Qor.ffs;
  Alcotest.(check bool) "deterministic QoR" true
    (a.Mams.Flow.qor = b.Mams.Flow.qor)

(* Satellite: map_exact reports why it failed instead of silently falling
   back. *)
let test_map_exact_reports_timeout () =
  Resilience.Fault.clear ();
  (match Resilience.Fault.arm "milp.timeout" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm: %s" e);
  let b = Ir.Builder.create () in
  let xs =
    List.init 8 (fun i -> Ir.Builder.input b ~width:4 (Printf.sprintf "x%d" i))
  in
  let out = Ir.Builder.reduce b (fun b x y -> Ir.Builder.xor_ b x y) xs in
  Ir.Builder.output b out;
  let g = Ir.Builder.finish b in
  let device = Fpga.Device.make ~k:4 ~t_clk:20.0 () in
  let sched =
    match
      Sched.Heuristic.schedule ~device ~delays
        ~resources:Fpga.Resource.unlimited ~ii:1 g
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "schedule failed: %a" Sched.Heuristic.pp_error e
  in
  let cuts = Cuts.enumerate ~k:4 g in
  let r = Techmap.map_exact ~time_limit:5.0 ~device ~delays ~cuts g sched in
  Resilience.Fault.clear ();
  match r with
  | Ok _ -> Alcotest.fail "expected a timeout failure"
  | Error f -> (
      match f.Techmap.reason with
      | `Timeout -> ()
      | (`Infeasible | `Unbounded) as r ->
          Alcotest.failf "expected timeout, got %s"
            (Techmap.exact_reason_to_string r))

let () =
  Alcotest.run "resilience"
    [
      ( "deadline",
        [
          Alcotest.test_case "none" `Quick test_deadline_none;
          Alcotest.test_case "of_budget" `Quick test_deadline_budget;
          Alcotest.test_case "clip" `Quick test_deadline_clip;
          Alcotest.test_case "split" `Quick test_deadline_split;
        ] );
      ( "fault",
        [
          Alcotest.test_case "arm always" `Quick test_fault_arm_always;
          Alcotest.test_case "unknown rejected" `Quick test_fault_unknown_point;
          Alcotest.test_case "nth hit" `Quick test_fault_nth;
          Alcotest.test_case "prob deterministic" `Quick
            test_fault_prob_deterministic;
          Alcotest.test_case "points registered" `Quick
            test_fault_points_registered;
        ] );
      ( "cascade",
        [
          Alcotest.test_case "first ok" `Quick test_cascade_first_ok;
          Alcotest.test_case "containment" `Quick test_cascade_containment;
          Alcotest.test_case "exhaustion" `Quick test_cascade_exhaustion;
          Alcotest.test_case "expired runs last" `Quick
            test_cascade_expired_runs_last;
          Alcotest.test_case "attempt json" `Quick test_attempt_json;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "fault matrix x registry" `Slow test_fault_matrix;
          Alcotest.test_case "milp.timeout trail shape" `Quick
            test_milp_timeout_trail_shape;
          Alcotest.test_case "degraded run diagnostics" `Quick
            test_degraded_diagnostics;
          Alcotest.test_case "no fault: clean and stable" `Quick
            test_no_fault_clean_and_stable;
          Alcotest.test_case "map_exact timeout reason" `Quick
            test_map_exact_reports_timeout;
        ] );
    ]
