(* pipesyn benchmark driver.

   A job takes one CDFG to a verified (schedule, cover), its QoR and its
   Verilog text. Jobs run as a closed loop: one client, one job in flight,
   one solver domain. A run builds the workload's inputs, runs one untimed
   warm-up pass (several times; [setup_s] is the median), then a fixed
   number of timed passes over the workload's jobs in a seeded order.
   After every job, outside its timed window, the correctness gate
   re-checks the result with [Sched.Verify] and compares
   the netlist's cycle-accurate simulation with [Ir.Eval] on seeded
   stimulus. A {!Speed} reference run just before and just after every job
   measures how fast the machine is at that moment; the end-to-end timings
   are in seconds at the reference speed.

   With [--trace 0] every job runs through [Mams.Flow.run] and the run
   reports the end-to-end metrics. With [--trace 1] every timed job is
   rebuilt from public layer calls ({!Compose}) and runs twice, with spans
   off and on. The run reports the per-layer metrics taken from the spans
   and counters and the tracing overhead, and fails if a rebuilt job does
   not reproduce the [Mams.Flow.run] result of the warm-up pass.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
   The last line of standard output is a JSON summary; the full report
   (metrics, per-job rows, spans) goes to
   .bench_build/perfbench/<workload>-seed<N>-trace<T>.json. *)

module J = Obs.Json

(* ---------------------------------------------------------------- *)
(* Statistics                                                         *)
(* ---------------------------------------------------------------- *)

let sum = List.fold_left ( +. ) 0.0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it, but never
   below the 75th, so a workload of few jobs still gets a tail above its
   median: (value, percentile, samples). *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let i = max (n - 11) ((3 * n + 3) / 4 - 1) in
  (a.(i), 100.0 *. float_of_int (i + 1) /. float_of_int n, n)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let peak_rss_mb () =
  match Obs.Probe.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> Float.nan

(* ---------------------------------------------------------------- *)
(* Jobs                                                               *)
(* ---------------------------------------------------------------- *)

type record = {
  job : Workloads.job;
  pass : int;  (** -1 warm-up, 0.. timed *)
  composed : bool;  (** rebuilt by {!Compose}, not [Mams.Flow.run] *)
  traced : bool;  (** spans on *)
  time : float;  (** job wall seconds *)
  ref_s : float;  (** the faster of the {!Speed} runs just before and after *)
  outcome : Compose.outcome;
  failures : string list;  (** empty: the job passed the correctness gate *)
  gc_minor : float;
  gc_major : float;
}

let is_milp (job : Workloads.job) =
  match job.method_ with
  | Mams.Flow.Milp_base | Mams.Flow.Milp_map -> true
  | Mams.Flow.Hls_tool | Mams.Flow.Sdc_tool | Mams.Flow.Map_heuristic -> false

let execute ~composed (job : Workloads.job) =
  let i = job.input in
  if composed then Compose.run i.setup job.method_ i.graph
  else Compose.of_flow job.method_ (Mams.Flow.run i.setup job.method_ i.graph)

let status_name (o : Compose.outcome) =
  match (o.design, o.milp) with
  | Error _, _ -> "error"
  | Ok _, Some { status = Some s; _ } -> Fmt.str "%a" Lp.Milp.pp_status s
  | Ok _, (Some { status = None; _ } | None) -> "ok"

(* What must repeat exactly between runs of the same code. *)
let fingerprint (o : Compose.outcome) =
  let design =
    match o.design with
    | Error e -> "error " ^ e
    | Ok d -> Printf.sprintf "lut=%d ff=%d" d.qor.Sched.Qor.luts d.qor.Sched.Qor.ffs
  in
  match o.milp with
  | Some { status; objective; stats; _ } ->
      Printf.sprintf "%s %s obj=%h nodes=%s pivots=%s" design
        (match status with
        | Some s -> Fmt.str "%a" Lp.Milp.pp_status s
        | None -> "none")
        objective
        (match stats with Some s -> string_of_int s.Lp.Milp.nodes | None -> "-")
        (match stats with
        | Some s -> string_of_int s.Lp.Milp.lp_iterations
        | None -> "-")
  | None -> design

(* Status, objective, LUTs and FFs: what a rebuilt job must reproduce. *)
let cross_key (o : Compose.outcome) =
  let design =
    match o.design with
    | Error _ -> "error"
    | Ok d -> Printf.sprintf "lut=%d ff=%d" d.qor.Sched.Qor.luts d.qor.Sched.Qor.ffs
  in
  match o.milp with
  | Some m -> Printf.sprintf "%s %s obj=%h" design (status_name o) m.objective
  | None -> Printf.sprintf "%s %s" design (status_name o)

let sim_iterations = 16

(* Cycle-accurate netlist simulation against the dataflow reference: at
   II = 1, output [po] at cycle k + S_po must equal iteration k's value. *)
let simulation_errors (i : Workloads.input) (d : Compose.design) nl =
  let stim ~iter ~name =
    let a = Hashtbl.find i.stimulus name in
    a.(iter mod Array.length a)
  in
  let black_box = i.black_box in
  let trace =
    Ir.Eval.run ?black_box i.graph ~iterations:sim_iterations ~inputs:stim
  in
  let cycles = sim_iterations + Sched.Schedule.latency d.schedule in
  let sim =
    Rtl.Netlist.simulate ?black_box nl ~cycles ~inputs:(fun ~cycle ~name ->
        stim ~iter:cycle ~name)
  in
  List.concat
    (List.mapi
       (fun idx po ->
         let _, values = List.nth sim.Rtl.Netlist.outputs idx in
         let s_po = d.schedule.Sched.Schedule.cycle.(po) in
         let rec first k =
           if k >= sim_iterations || k + s_po >= cycles then []
           else if Int64.equal values.(k + s_po) trace.(k).(po) then first (k + 1)
           else
             [
               Printf.sprintf "rtl output %s differs from Ir.Eval at iteration %d"
                 (Ir.Cdfg.node_name i.graph po) k;
             ]
         in
         first 0)
       (Ir.Cdfg.outputs i.graph))

let check (job : Workloads.job) (o : Compose.outcome) rtl =
  match (o.design, rtl) with
  | Error e, _ -> [ "error: " ^ e ]
  | Ok _, None -> [ "no netlist" ]
  | Ok d, Some (nl, (v : Rtl.t)) -> (
      let i = job.input in
      let ctx =
        {
          Sched.Verify.device = i.setup.device;
          delays = i.setup.delays;
          resources = i.setup.resources;
        }
      in
      let verify =
        match Sched.Verify.check ctx i.graph d.cover d.schedule with
        | Ok () -> []
        | Error errs -> [ "verify: " ^ String.concat "; " errs ]
      in
      let empty = if v.Rtl.source = "" then [ "empty Verilog" ] else [] in
      match simulation_errors i d nl with
      | sim -> verify @ empty @ sim
      | exception e -> verify @ empty @ [ "simulation: " ^ Printexc.to_string e ])

let run_job ?(composed = false) ?(traced = false) ~pass (job : Workloads.job) =
  let ref0 = Speed.measure () in
  (* Every job starts from a compacted heap, so its allocation pattern, and
     the peak RSS it reaches, do not depend on which jobs ran before it. *)
  Gc.compact ();
  Span.enabled := traced;
  Span.begin_job ~pass ~name:job.name;
  let i = job.input in
  let gc0 = Gc.quick_stat () in
  let t0 = Obs.Clock.wall () in
  let outcome, rtl =
    Span.with_ "job" (fun () ->
        match execute ~composed job with
        | exception e -> (Compose.failed (Printexc.to_string e), None)
        | o -> (
            match o.design with
            | Error _ -> (o, None)
            | Ok d -> (
                match
                  Span.with_ "rtl.emit" (fun () ->
                      let nl = Rtl.Netlist.of_design i.graph d.cover d.schedule in
                      (nl, Rtl.emit i.graph d.cover d.schedule))
                with
                | rtl -> (o, Some rtl)
                | exception e ->
                    ({ o with design = Error ("rtl: " ^ Printexc.to_string e) }, None))))
  in
  let time = Obs.Clock.wall () -. t0 in
  let gc1 = Gc.quick_stat () in
  let gc_minor = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let gc_major = gc1.Gc.major_words -. gc0.Gc.major_words in
  let ref_s = Float.min ref0 (Speed.measure ()) in
  Span.count "gc.minor_words" gc_minor;
  Span.count "gc.major_words" gc_major;
  (* Outside the job's window: the root-only probe (traced runs only) and
     the correctness gate. *)
  (match outcome.milp with
  | Some { root_probe = Some probe; _ } when !Span.enabled ->
      let r = Span.with_ "lp.root" probe in
      Span.count "lp.root_pivots"
        (float_of_int r.Lp.Milp.stats.Lp.Milp.lp_iterations)
  | Some _ | None -> ());
  let failures = Span.with_ "check.sim" (fun () -> check job outcome rtl) in
  Span.enabled := false;
  { job; pass; composed; traced; time; ref_s; outcome; failures; gc_minor; gc_major }

let run_pass ~seed ~pass jobs =
  List.map (fun job -> run_job ~pass job) (Workloads.order ~seed ~pass jobs)

(* A traced pass runs every rebuilt job twice, back to back: with spans off
   and on. The pair differs only in tracing, under the same machine
   conditions; the order alternates between passes so neither side always
   runs second. *)
let run_traced_pass ~seed ~pass jobs =
  List.concat_map
    (fun job ->
      let run traced = run_job ~composed:true ~traced ~pass job in
      if pass mod 2 = 0 then
        let plain = run false in
        [ plain; run true ]
      else
        let t = run true in
        [ run false; t ])
    (Workloads.order ~seed ~pass jobs)

(* ---------------------------------------------------------------- *)
(* Checks over the whole run                                          *)
(* ---------------------------------------------------------------- *)

let by_job records =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let old = Option.value (Hashtbl.find_opt tbl r.job.name) ~default:[] in
      Hashtbl.replace tbl r.job.name (r :: old))
    records;
  Hashtbl.fold (fun name rs acc -> (name, List.rev rs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let distinct xs = List.sort_uniq compare xs

(* Exact repeat: every run of a job by the same code path must give the
   same fingerprint. *)
let drift records =
  List.filter_map
    (fun (name, rs) ->
      let groups =
        List.map
          (fun composed ->
            distinct
              (List.filter_map
                 (fun r -> if r.composed = composed then Some (fingerprint r.outcome) else None)
                 rs))
          [ false; true ]
      in
      if List.exists (fun g -> List.length g > 1) groups then
        Some (name, List.concat groups)
      else None)
    (by_job records)

(* Rebuilt (composed) jobs against the [Mams.Flow.run] runs of the warm-up
   passes. *)
let cross_check records =
  List.filter_map
    (fun (name, rs) ->
      let keys composed =
        distinct
          (List.filter_map
             (fun r -> if r.composed = composed then Some (cross_key r.outcome) else None)
             rs)
      in
      match (keys false, keys true) with
      | [ a ], [ b ] when a = b -> None
      | [], _ | _, [] -> None
      | a, b -> Some (name, a @ b))
    (by_job records)

let digest records =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun (name, rs) -> name ^ " " ^ String.concat "|" (distinct (List.map (fun r -> fingerprint r.outcome) rs)))
             (by_job records))))

(* ---------------------------------------------------------------- *)
(* Metrics                                                            *)
(* ---------------------------------------------------------------- *)

let qor_total get records =
  sum
    (List.filter_map
       (fun r ->
         match r.outcome.design with
         | Ok d -> Some (float_of_int (get d.Compose.qor))
         | Error _ -> None)
       records)

(* Quality ratios over a set of job records. *)
let quality records =
  let n = float_of_int (List.length records) in
  let milp = List.filter (fun r -> is_milp r.job) records in
  let gap r =
    match r.outcome.milp with
    | Some { status = Some Lp.Milp.Optimal; _ } -> 0.0
    | Some { stats = Some s; _ } when Float.is_finite s.Lp.Milp.gap -> s.Lp.Milp.gap
    | Some _ | None -> 1.0
  in
  let optimal r =
    match r.outcome.milp with
    | Some { status = Some Lp.Milp.Optimal; _ } -> true
    | Some _ | None -> false
  in
  let count p xs = float_of_int (List.length (List.filter p xs)) in
  [
    ("gap_mean", ratio (sum (List.map gap milp)) (float_of_int (List.length milp)), "ratio");
    ("optimal_frac", ratio (count optimal milp) (float_of_int (List.length milp)), "ratio");
    ("fail_frac", ratio (count (fun r -> r.failures <> []) records) n, "ratio");
    ("degraded_frac", ratio (count (fun r -> r.outcome.degraded <> []) records) n, "ratio");
  ]

(* The fastest of a set of runs: the tracing-overhead and per-job report
   figures. *)
let best_time rs = List.fold_left (fun acc r -> Float.min acc r.time) Float.infinity rs

(* A run's time at the reference machine speed: its wall time scaled by how
   much slower than nominal the {!Speed} kernel ran around it. *)
let scaled r = r.time /. r.ref_s *. Speed.nominal_s

(* The jobs are deterministic, so run-to-run differences of one job are
   machine noise. Each job's time is the median of its scaled timed runs;
   percentiles are over one such sample per job. *)
let job_time rs = median (List.map scaled rs)

let end_to_end ~setup_s timed =
  let jobs = by_job timed in
  let times = List.map (fun (_, rs) -> job_time rs) jobs in
  let tail_s, tail_pct, samples = tail times in
  let verified =
    List.filter (fun (_, rs) -> List.for_all (fun r -> r.failures = []) rs) jobs
  in
  let first_pass = List.map (fun (_, rs) -> List.hd rs) jobs in
  let q = quality timed in
  let find k = List.find (fun (n, _, _) -> n = k) q in
  ( [
      ("setup_s", setup_s, "s");
      ("job_p50_s", median times, "s");
      ("job_tail_s", tail_s, "s");
      ("jobs_per_s", float_of_int (List.length verified) /. sum times, "1/s");
      ("lut_total", qor_total (fun q -> q.Sched.Qor.luts) first_pass, "LUT");
      ("ff_total", qor_total (fun q -> q.Sched.Qor.ffs) first_pass, "FF-bit");
      find "gap_mean";
      find "optimal_frac";
      find "fail_frac";
      find "degraded_frac";
      ("peak_rss_mb", peak_rss_mb (), "MiB");
    ],
    [
      ("job_tail_pct", J.Float tail_pct);
      ("job_samples", J.Int samples);
      ("speed_ref_p50_s", J.Float (median (List.map (fun r -> r.ref_s) timed)));
    ] )

(* Per-layer metrics of the traced passes: per-pass sums of span self time
   and counters, then the median over passes. *)
let per_layer ~passes timed =
  let traced = List.filter (fun r -> r.traced) timed in
  (* Fastest traced over fastest untraced run of the same rebuilt jobs. *)
  let overhead =
    let total traced =
      sum
        (List.map
           (fun (_, rs) -> best_time rs)
           (by_job (List.filter (fun r -> r.traced = traced) timed)))
    in
    ratio (total true) (total false) -. 1.0
  in
  let self = Span.self_by_pass () and counts = Span.counts_by_pass () in
  let get tbl p name = Option.value (Hashtbl.find_opt tbl (p, name)) ~default:0.0 in
  let one p =
    let s = get self p and c = get counts p in
    [
      ("cuts.enum_s", s "cuts.enum", "s");
      ("cuts.count", c "cuts.count", "count");
      ("techmap.map_s", s "techmap.map", "s");
      ("techmap.lut_area", c "techmap.lut_area", "LUT");
      ("sched.schedule_s", s "sched.schedule", "s");
      ("lp.root_s", s "lp.root", "s");
      ("lp.root_pivots", c "lp.root_pivots", "count");
      ("lp.cuts_applied", c "lp.cuts_applied", "count");
      ("lp.gap_closed_root", ratio (c "lp.gap_closed_root") (c "lp.gap_closed_root_n"), "ratio");
      ("milp.solve_s", s "milp.solve", "s");
      ("milp.tree_s", Float.max 0.0 (s "milp.solve" -. s "lp.root"), "s");
      ("milp.nodes", c "milp.nodes", "count");
      ("milp.pivots", c "milp.pivots", "count");
      ("milp.warm_hit_ratio", ratio (c "milp.warm_hits") (c "milp.nodes"), "ratio");
      ("milp.first_incumbent_s", ratio (c "milp.first_incumbent_s") (c "milp.first_incumbent_n"), "s");
      ("milp.pivot_us", 1e6 *. ratio (s "milp.solve") (c "milp.pivots"), "us");
      ("gc.major_words", c "gc.major_words", "words");
      ("gc.minor_words", c "gc.minor_words", "words");
      ("core.build_s", s "core.build", "s");
      ("core.rows", c "core.rows", "count");
      ("core.vars", c "core.vars", "count");
      ("core.warm_start_s", s "core.warm_start", "s");
      ("core.warm_start_hit", ratio (c "core.warm_start_hit") (c "core.warm_start_tries"), "ratio");
      ("analyze.lint_s", s "analyze.lint", "s");
      ("core.extract_s", s "core.extract", "s");
      ("sched.verify_s", s "sched.verify", "s");
      ("sched.qor_s", s "sched.qor", "s");
      ("rtl.emit_s", s "rtl.emit", "s");
      ("trace.overhead_frac", overhead, "ratio");
      ("check.sim_s", s "check.sim", "s");
    ]
  in
  let rows = List.init passes one in
  List.mapi
    (fun idx (name, _, unit) ->
      (name, median (List.map (fun row -> let _, v, _ = List.nth row idx in v) rows), unit))
    (List.hd rows)
  @ quality traced

(* ---------------------------------------------------------------- *)
(* Report                                                             *)
(* ---------------------------------------------------------------- *)

(* One row per job over its counted timed runs; a traced run adds the
   fastest untraced run of the same rebuilt job. *)
let job_rows ~traced timed =
  List.map
    (fun (name, all) ->
      let rs = List.filter (fun r -> r.traced = traced) all in
      let r = List.hd rs in
      let o = r.outcome in
      let stat f = match o.milp with Some { stats = Some s; _ } -> f s | _ -> J.Null in
      J.Obj
        [
          ("job", J.String name);
          ("runs", J.Int (List.length rs));
          ("time_best_s", J.Float (best_time rs));
          ("time_p50_s", J.Float (median (List.map (fun r -> r.time) rs)));
          ("time_scaled_p50_s", J.Float (job_time rs));
          ( "untraced_best_s",
            if traced then J.Float (best_time (List.filter (fun r -> not r.traced) all))
            else J.Null );
          ("status", J.String (status_name o));
          ("objective", match o.milp with Some m -> J.Float m.objective | None -> J.Null);
          ("lut", match o.design with Ok d -> J.Int d.qor.Sched.Qor.luts | Error _ -> J.Null);
          ("ff", match o.design with Ok d -> J.Int d.qor.Sched.Qor.ffs | Error _ -> J.Null);
          ("nodes", stat (fun s -> J.Int s.Lp.Milp.nodes));
          ("pivots", stat (fun s -> J.Int s.Lp.Milp.lp_iterations));
          ("gap", stat (fun s -> J.Float s.Lp.Milp.gap));
          ("degraded", J.List (List.map (fun l -> J.String l) o.degraded));
          ("gc_minor_words_p50", J.Float (median (List.map (fun r -> r.gc_minor) rs)));
          ("gc_major_words_p50", J.Float (median (List.map (fun r -> r.gc_major) rs)));
        ])
    (by_job timed)

let span_rows () =
  List.map
    (fun (s : Span.t) ->
      let pass, job = Option.value (Hashtbl.find_opt Span.jobs s.job) ~default:(-1, "") in
      J.Obj
        [
          ("id", J.Int s.id); ("name", J.String s.name); ("parent", J.Int s.parent);
          ("job", J.Int s.job); ("job_name", J.String job); ("pass", J.Int pass);
          ("start", J.Float s.t0); ("end", J.Float s.t1);
        ])
    (Span.spans ())

let labelled items =
  J.List
    (List.map
       (fun (name, xs) ->
         J.Obj
           [ ("job", J.String name); ("detail", J.List (List.map (fun x -> J.String x) xs)) ])
       items)

let ensure_dir dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* ---------------------------------------------------------------- *)
(* Main                                                               *)
(* ---------------------------------------------------------------- *)

let report_dir = Filename.concat ".bench_build" "perfbench"

let usage = "main.exe --workload (suite|heuristic) --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1) in
  let trace = ref (-1) in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg ^ "\nusage: " ^ usage);
    exit 2
  in
  (try
     Arg.parse_argv Sys.argv
       [
         ("--workload", Arg.Set_string workload, "NAME workload to run");
         ("--seed", Arg.Set_int seed, "N input seed");
         ("--seconds", Arg.Set_int seconds, "S nominal timed-phase length");
         ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
       ]
       (fun a -> bad ("unexpected argument " ^ a))
       usage
   with Arg.Bad msg | Arg.Help msg -> bad msg);
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then bad "--seed must be a non-negative integer";
  if !seconds < 1 then bad "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let seed = !seed and traced = !trace = 1 in
  (* Whole passes keep the job mix identical in every run; a pass count
     fixed by --seconds keeps the tail percentile comparable across
     commits. *)
  let passes =
    max w.min_passes
      (int_of_float (Float.round (float_of_int !seconds /. w.pass_s)))
  in
  (* A traced pass runs every job twice; half the passes keep the traced
     run about as long as an untraced one. *)
  let passes = if traced then max 2 ((passes + 1) / 2) else passes in
  (* Set-up, [w.setups] times: build every input, then one untimed warm-up
     pass over them. A set-up costs the build time plus the warm-up's job
     times (the correctness gate after each job is the benchmark's own
     cost), scaled to the reference machine speed by the median {!Speed}
     time of the set-up; [setup_s] is the median. The last set-up's inputs
     run the timed passes. *)
  let setups =
    List.init w.setups (fun _ ->
        let t0 = Obs.Clock.wall () in
        let jobs = w.jobs ~seed in
        let build = Obs.Clock.wall () -. t0 in
        let warmup = run_pass ~seed ~pass:(-1) jobs in
        let wall = build +. sum (List.map (fun r -> r.time) warmup) in
        let speed = median (List.map (fun r -> r.ref_s) warmup) in
        (jobs, warmup, wall /. speed *. Speed.nominal_s))
  in
  let setup_s = median (List.map (fun (_, _, t) -> t) setups) in
  let warmup = List.concat_map (fun (_, rs, _) -> rs) setups in
  let jobs, _, _ = List.nth setups (w.setups - 1) in
  let timed =
    List.concat
      (List.init passes (fun pass ->
           if traced then run_traced_pass ~seed ~pass jobs else run_pass ~seed ~pass jobs))
  in
  let all = warmup @ timed in
  (* In a traced run the counted jobs are the traced ones; their untraced
     twins are the overhead reference. *)
  let counted = List.filter (fun r -> r.traced = traced) timed in
  let drift = drift all and cross = cross_check all in
  let untimed_failures =
    List.filter_map
      (fun r -> if r.failures <> [] then Some (r.job.name, r.failures) else None)
      (warmup @ List.filter (fun r -> r.traced <> traced) timed)
  in
  let timed_failures =
    List.filter_map
      (fun r ->
        if r.failures <> [] then Some (Printf.sprintf "%s (pass %d)" r.job.name r.pass, r.failures)
        else None)
      counted
  in
  let degraded =
    distinct (List.filter_map (fun r -> if r.outcome.degraded <> [] then Some r.job.name else None) all)
  in
  let metrics, extra =
    if traced then (per_layer ~passes timed, []) else end_to_end ~setup_s timed
  in
  let failed = List.length timed_failures in
  let correct = failed = 0 && untimed_failures = [] && drift = [] && cross = [] in
  let digest = digest all in
  (* Human-readable report. *)
  Printf.printf "perfbench %s: seed %d, %d set-ups, %d passes x %d jobs, %s\n" w.name seed
    w.setups passes (List.length jobs)
    (if traced then "traced (per-layer)" else "untraced (end-to-end)");
  List.iter (fun (name, v, unit) -> Printf.printf "  %-24s %16.6f %s\n" name v unit) metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-24s %16s\n" k (J.to_string v)) extra;
  Printf.printf "  repeat digest %s\n" digest;
  let report title items =
    if items <> [] then begin
      Printf.printf "%s:\n" title;
      List.iter (fun (name, xs) -> Printf.printf "  %s: %s\n" name (String.concat " | " xs)) items
    end
  in
  report "FAILED jobs" (untimed_failures @ timed_failures);
  report "exact-repeat DRIFT" drift;
  report "cross-check MISMATCH (rebuilt job vs Mams.Flow.run)" cross;
  if degraded <> [] then Printf.printf "degraded jobs: %s\n" (String.concat ", " degraded);
  let metric_obj ms =
    J.Obj
      (List.map
         (fun (name, v, unit) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
         ms)
  in
  let file =
    Filename.concat report_dir (Printf.sprintf "%s-seed%d-trace%d.json" w.name seed !trace)
  in
  (try
     ensure_dir report_dir;
     let oc = open_out file in
     J.to_channel oc
       (J.Obj
          ([
             ("workload", J.String w.name); ("seed", J.Int seed); ("seconds", J.Int !seconds);
             ("trace", J.Bool traced); ("setups", J.Int w.setups); ("passes", J.Int passes);
             ("jobs_per_pass", J.Int (List.length jobs)); ("correct", J.Bool correct);
             ("attempted", J.Int (List.length counted)); ("failed", J.Int failed);
             ("metrics", metric_obj metrics);
           ]
          @ extra
          @ [
              ("repeat_digest", J.String digest);
              ("failures", labelled (untimed_failures @ timed_failures));
              ("drift", labelled drift);
              ("cross_check", labelled cross);
              ("degraded_jobs", J.List (List.map (fun n -> J.String n) degraded));
              ("jobs", J.List (job_rows ~traced timed));
              ("spans", J.List (if traced then span_rows () else []));
            ]));
     close_out oc;
     Printf.printf "wrote %s\n" file
   with Sys_error e -> Printf.printf "could not write report: %s\n" e);
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int (List.length counted));
            ("failed", J.Int failed);
            ( "metrics",
              metric_obj
                (if traced then metrics
                 else
                   List.filter
                     (fun (n, _, _) ->
                       not (List.mem n [ "gap_mean"; "optimal_frac"; "fail_frac"; "degraded_frac" ]))
                     metrics) );
          ]))
