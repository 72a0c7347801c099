(* Golden tests for the bench-diff regression comparator: identical
   files are clean, injected regressions flag (and only regressions
   exit-worthy), improvements are counted but green, noise sources
   (budget-hit counters, sub-floor times, nulls) are skipped, and a
   file at another schema version or a row without its strings is a
   hard error rather than a guess. *)

(* A row carries only what bench-diff reads; [None] is JSON null. *)
let row ?(name = "GFMUL") ?(method_ = "MILP-map") ?(status = "optimal")
    ?(solve_s = Some 5.0) ?(bnb_nodes = Some 100) ?(lp_pivots = Some 2000)
    ?(gap_closed_root = 0.5) () =
  let opt f = function Some v -> f v | None -> Obs.Json.Null in
  Obs.Json.(
    Obj
      [
        ("name", String name);
        ("method", String method_);
        ("solve_s", opt (fun s -> Float s) solve_s);
        ("bnb_nodes", opt (fun n -> Int n) bnb_nodes);
        ("lp_pivots", opt (fun n -> Int n) lp_pivots);
        ("status", String status);
        ("gap_closed_root", Float gap_closed_root);
      ])

let file ?(schema = Obs.Metrics.schema_version) rows =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int schema);
      ("results", Obs.Json.List rows);
    ]

let diff_ok ?thresholds old_ new_ =
  match Benchdiff.diff ?thresholds old_ new_ with
  | Ok r -> r
  | Error e -> Alcotest.failf "diff failed: %s" e

let test_identical_is_clean () =
  let f = file [ row (); row ~name:"RS" ~method_:"MILP-base" () ] in
  let r = diff_ok f f in
  Alcotest.(check int) "rows compared" 2 r.Benchdiff.r_rows;
  Alcotest.(check int) "no regressions" 0 r.Benchdiff.r_regressions;
  Alcotest.(check int) "no improvements" 0 r.Benchdiff.r_improvements;
  Alcotest.(check bool) "not regressed" false (Benchdiff.regressed r)

let test_status_worsening_regresses () =
  let old_ = file [ row () ] in
  let new_ = file [ row ~status:"feasible" () ] in
  let r = diff_ok old_ new_ in
  Alcotest.(check bool) "regressed" true (Benchdiff.regressed r);
  Alcotest.(check bool) "status delta present" true
    (List.exists
       (fun d -> d.Benchdiff.d_metric = "status")
       r.Benchdiff.r_deltas)

let test_pivot_blowup_regresses () =
  let old_ = file [ row () ] in
  let new_ = file [ row ~lp_pivots:(Some 4000) () ] in
  let r = diff_ok old_ new_ in
  Alcotest.(check bool) "regressed" true (Benchdiff.regressed r);
  Alcotest.(check bool) "lp_pivots delta present" true
    (List.exists
       (fun d ->
         d.Benchdiff.d_metric = "lp_pivots"
         && d.Benchdiff.d_verdict = Benchdiff.Regression)
       r.Benchdiff.r_deltas)

let test_improvement_is_green () =
  let old_ = file [ row () ] in
  let new_ = file [ row ~bnb_nodes:(Some 50) ~lp_pivots:(Some 1000) () ] in
  let r = diff_ok old_ new_ in
  Alcotest.(check bool) "not regressed" false (Benchdiff.regressed r);
  Alcotest.(check bool) "improvements counted" true
    (r.Benchdiff.r_improvements >= 2)

(* Counters between non-optimal solves are wall-budget artifacts; a 10x
   node count on a budget-hit pair must not flag. *)
let test_counters_skipped_unless_both_optimal () =
  let old_ = file [ row ~status:"feasible" () ] in
  let new_ =
    file
      [ row ~status:"feasible" ~bnb_nodes:(Some 1000) ~lp_pivots:(Some 20000) () ]
  in
  let r = diff_ok old_ new_ in
  Alcotest.(check bool) "budget-hit counters do not flag" false
    (Benchdiff.regressed r)

let test_sub_floor_times_skipped () =
  let old_ = file [ row ~solve_s:(Some 0.01) () ] in
  let new_ = file [ row ~solve_s:(Some 0.04) () ] in
  (* 4x slower but both under the 0.25 s floor: machine noise *)
  let r = diff_ok old_ new_ in
  Alcotest.(check bool) "sub-floor times do not flag" false
    (Benchdiff.regressed r)

let test_slow_solve_regresses () =
  let old_ = file [ row ~solve_s:(Some 2.0) () ] in
  let new_ = file [ row ~solve_s:(Some 4.0) () ] in
  let r = diff_ok old_ new_ in
  Alcotest.(check bool) "2x solve time flags" true (Benchdiff.regressed r)

(* Heuristic rows carry None for solve_s/bnb_nodes/lp_pivots: nothing
   numeric to compare, and None vs Some must not flag either. *)
let test_nulls_are_skipped () =
  let heuristic =
    row ~method_:"HLS Tool" ~status:"heuristic" ~solve_s:None ~bnb_nodes:None
      ~lp_pivots:None ~gap_closed_root:Float.nan ()
  in
  let r = diff_ok (file [ heuristic ]) (file [ heuristic ]) in
  Alcotest.(check bool) "null metrics are clean" false (Benchdiff.regressed r);
  let r2 =
    diff_ok
      (file [ row ~solve_s:None () ])
      (file [ row ~solve_s:(Some 100.0) () ])
  in
  Alcotest.(check bool) "None vs Some is skipped, not compared" false
    (List.exists
       (fun d -> d.Benchdiff.d_metric = "solve_s")
       r2.Benchdiff.r_deltas)

let test_missing_row_regresses () =
  let old_ = file [ row (); row ~name:"RS" () ] in
  let new_ = file [ row () ] in
  let r = diff_ok old_ new_ in
  Alcotest.(check bool) "vanished row regresses" true (Benchdiff.regressed r);
  Alcotest.(check (list (pair string string))) "missing key recorded"
    [ ("RS", "MILP-map") ] r.Benchdiff.r_missing

let test_added_row_is_informational () =
  let old_ = file [ row () ] in
  let new_ = file [ row (); row ~name:"RS" () ] in
  let r = diff_ok old_ new_ in
  Alcotest.(check bool) "new row is not a regression" false
    (Benchdiff.regressed r);
  Alcotest.(check (list (pair string string))) "added key recorded"
    [ ("RS", "MILP-map") ] r.Benchdiff.r_added

let test_gap_closure_loss_regresses () =
  let old_ = file [ row ~gap_closed_root:0.6 () ] in
  let new_ = file [ row ~gap_closed_root:0.2 () ] in
  let r = diff_ok old_ new_ in
  Alcotest.(check bool) "weaker root cuts flag" true (Benchdiff.regressed r)

let test_schema_mismatch_is_error () =
  let old_ = file ~schema:(Obs.Metrics.schema_version - 1) [ row () ] in
  let new_ = file [ row () ] in
  match Benchdiff.diff old_ new_ with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema mismatch must be a hard error"

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* Two files at the same stale version are still refused: what their
   fields mean is only known at the current version. *)
let test_stale_schema_is_error () =
  let stale = file ~schema:(Obs.Metrics.schema_version - 1) [ row () ] in
  match Benchdiff.diff stale stale with
  | Error e ->
      Alcotest.(check bool) "asks for a new baseline" true
        (contains ~sub:"regenerate the baseline" e)
  | Ok _ -> Alcotest.fail "a stale schema must be a hard error"

(* A row must carry its key and status as strings. *)
let test_bad_row_is_error () =
  let base = match row () with Obs.Json.Obj kvs -> kvs | _ -> [] in
  let without k = Obs.Json.Obj (List.remove_assoc k base) in
  let with_ k v = Obs.Json.Obj ((k, v) :: List.remove_assoc k base) in
  List.iter
    (fun (what, bad) ->
      match Benchdiff.diff (file [ row () ]) (file [ row (); bad ]) with
      | Error e ->
          Alcotest.(check bool) what true
            (contains ~sub:"NEW: bad result row" e)
      | Ok _ -> Alcotest.failf "%s: accepted" what)
    [
      ("no name", without "name");
      ("no method", without "method");
      ("no status", without "status");
      ("numeric name", with_ "name" (Obs.Json.Int 3));
      ("null status", with_ "status" Obs.Json.Null);
    ]

let test_thresholds_are_respected () =
  let old_ = file [ row ~lp_pivots:(Some 1000) () ] in
  let new_ = file [ row ~lp_pivots:(Some 1150) () ] in
  (* +15%: flags at the default 10%, clean at a 20% threshold *)
  let r = diff_ok old_ new_ in
  Alcotest.(check bool) "default threshold flags" true (Benchdiff.regressed r);
  let loose =
    { Benchdiff.default_thresholds with Benchdiff.count_rel = 0.20 }
  in
  let r2 = diff_ok ~thresholds:loose old_ new_ in
  Alcotest.(check bool) "loose threshold is clean" false
    (Benchdiff.regressed r2)

let test_report_json_round_trips () =
  let old_ = file [ row () ] in
  let new_ = file [ row ~status:"feasible" ~lp_pivots:(Some 9999) () ] in
  let r = diff_ok old_ new_ in
  let s = Obs.Json.to_string (Benchdiff.report_to_json r) in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "report did not re-parse: %s" e
  | Ok j ->
      Alcotest.(check bool) "schema tag" true
        (Obs.Json.member "schema" j
        = Some (Obs.Json.String "pipesyn-bench-diff-v1"));
      Alcotest.(check bool) "regression count serialized" true
        (Obs.Json.member "regressions" j
        = Some (Obs.Json.Int r.Benchdiff.r_regressions))

let () =
  Alcotest.run "benchdiff"
    [
      ( "golden",
        [
          Alcotest.test_case "identical is clean" `Quick
            test_identical_is_clean;
          Alcotest.test_case "status worsening regresses" `Quick
            test_status_worsening_regresses;
          Alcotest.test_case "pivot blowup regresses" `Quick
            test_pivot_blowup_regresses;
          Alcotest.test_case "improvement is green" `Quick
            test_improvement_is_green;
          Alcotest.test_case "gap-closure loss regresses" `Quick
            test_gap_closure_loss_regresses;
        ] );
      ( "noise",
        [
          Alcotest.test_case "counters need both optimal" `Quick
            test_counters_skipped_unless_both_optimal;
          Alcotest.test_case "sub-floor times skipped" `Quick
            test_sub_floor_times_skipped;
          Alcotest.test_case "slow solve regresses" `Quick
            test_slow_solve_regresses;
          Alcotest.test_case "nulls skipped" `Quick test_nulls_are_skipped;
          Alcotest.test_case "thresholds respected" `Quick
            test_thresholds_are_respected;
        ] );
      ( "rows",
        [
          Alcotest.test_case "missing row regresses" `Quick
            test_missing_row_regresses;
          Alcotest.test_case "added row informational" `Quick
            test_added_row_is_informational;
        ] );
      ( "io",
        [
          Alcotest.test_case "schema mismatch is error" `Quick
            test_schema_mismatch_is_error;
          Alcotest.test_case "stale schema is error" `Quick
            test_stale_schema_is_error;
          Alcotest.test_case "bad row is error" `Quick test_bad_row_is_error;
          Alcotest.test_case "report JSON round-trips" `Quick
            test_report_json_round_trips;
        ] );
    ]
