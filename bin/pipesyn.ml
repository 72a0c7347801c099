(* pipesyn — command-line driver for the mapping-aware pipeline synthesis
   library (reproduction of Zhao et al., DAC 2015). *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let bench_arg =
  let doc = "Benchmark name (CLZ, XORR, GFMUL, CORDIC, MT, AES, RS, DR, GSM)." in
  Arg.(required & opt (some string) None & info [ "b"; "benchmark" ] ~doc)

let method_arg =
  let methods =
    [
      ("hls", Mams.Flow.Hls_tool);
      ("sdc", Mams.Flow.Sdc_tool);
      ("base", Mams.Flow.Milp_base);
      ("map", Mams.Flow.Milp_map);
      ("mapfirst", Mams.Flow.Map_heuristic);
    ]
  in
  let doc =
    "Flow to run: hls | sdc | base | map | mapfirst (default: the three \
     paper flows)."
  in
  Arg.(value & opt (some (enum methods)) None & info [ "m"; "method" ] ~doc)

let time_limit_arg =
  let doc = "MILP time budget in seconds (the paper used 3600)." in
  Arg.(value & opt float 20.0 & info [ "t"; "time-limit" ] ~doc)

let ii_arg =
  let doc = "Target initiation interval; 0 picks the minimum feasible II." in
  Arg.(value & opt int 1 & info [ "ii" ] ~doc)

let k_arg =
  let doc = "LUT input count K." in
  Arg.(value & opt int 4 & info [ "k" ] ~doc)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose output.")

let alpha_arg =
  let doc = "LUT weight alpha in the Eq. 15 objective." in
  Arg.(value & opt float 0.5 & info [ "alpha" ] ~doc)

let beta_arg =
  let doc = "Register weight beta in the Eq. 15 objective." in
  Arg.(value & opt float 0.5 & info [ "beta" ] ~doc)

let faults_arg =
  let doc =
    "Arm fault-injection points: a comma-separated spec of $(i,point), \
     $(i,point\\@N) (N-th hit only) or $(i,point%P:S) (P percent, seeded \
     with S). See `pipesyn faults' for the registered points. Also read \
     from $(b,PIPESYN_FAULTS)."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~doc ~docv:"SPEC")

let deadline_arg =
  let doc =
    "Global wall-clock budget in seconds for the whole run (lint, cut \
     enumeration, solve, mapping, verification). On expiry the flow \
     degrades gracefully and the exit code is 2. Also read from \
     $(b,PIPESYN_DEADLINE)."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~doc ~docv:"SECS")

let domains_arg =
  let doc =
    "Branch-and-bound worker domains for the MILP solves (an OCaml 5 \
     work-stealing pool). Exhaustive solves return identical statuses \
     and objectives for every value of $(docv) — see the README's \
     determinism guarantee. Also read from $(b,PIPESYN_DOMAINS); \
     default 1."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~doc ~docv:"N")

let stall_window_arg =
  let doc =
    "Stall-watchdog window in seconds: a B\\&B worker that makes no \
     progress for a full window is first nudged (cold refactorization), \
     then its node is cancelled and requeued for replay. Off by default; \
     results are unaffected either way (the recovery is recorded in the \
     degradation log)."
  in
  Arg.(value & opt (some float) None & info [ "stall-window" ] ~doc ~docv:"SECS")

let cuts_flag_arg =
  let on =
    ( Some true,
      Arg.info [ "cuts" ]
        ~doc:
          "Force-enable certified root cutting planes (Chvatal-Gomory and \
           knapsack covers separated at the MILP root; see the README's \
           \"Root cuts\" section). On by default; $(b,--no-cuts) \
           disables. Results (status, objective, incumbent) are \
           identical either way — cuts only change how much of the gap \
           closes before branching." )
  in
  let off =
    ( Some false,
      Arg.info [ "no-cuts" ]
        ~doc:"Disable root cutting planes for this run." )
  in
  Arg.(value & vflag None [ on; off ])

let presolve_flag_arg =
  let on =
    ( Some true,
      Arg.info [ "presolve" ]
        ~doc:
          "Force-enable certified presolve (fixpoint bound tightening on \
           the root model, replayed exactly by `pipesyn audit'). On by \
           default." )
  in
  let off =
    ( Some false,
      Arg.info [ "no-presolve" ]
        ~doc:"Disable presolve bound tightening for this run." )
  in
  Arg.(value & vflag None [ on; off ])

(* Exit codes (README, "Exit codes"): 0 ok, 1 error findings / user error,
   2 degraded result, 3 internal error. *)
let exit_error = 1
let exit_degraded = 2

let arm_faults spec =
  (match Resilience.Fault.load_env () with
  | Ok () -> ()
  | Error e ->
      Fmt.epr "PIPESYN_FAULTS: %s@." e;
      exit exit_error);
  match spec with
  | None -> ()
  | Some s -> (
      match Resilience.Fault.arm s with
      | Ok () -> ()
      | Error e ->
          Fmt.epr "--faults: %s@." e;
          exit exit_error)

let wall_budget_of deadline =
  match deadline with
  | Some _ -> deadline
  | None -> (
      match Sys.getenv_opt "PIPESYN_DEADLINE" with
      | None -> None
      | Some s -> (
          match float_of_string_opt s with
          | Some b -> Some b
          | None ->
              Fmt.epr "PIPESYN_DEADLINE: not a number: %s@." s;
              exit exit_error))

(* ------------------------------------------------------------------ *)
(* live telemetry: --log / --progress / PIPESYN_PROBE_MS               *)
(* ------------------------------------------------------------------ *)

(* --log FILE wins over the PIPESYN_LOG environment variable; either
   turns the structured NDJSON event stream on. *)
let log_path_of flag =
  match flag with Some _ -> flag | None -> Sys.getenv_opt "PIPESYN_LOG"

(* stderr is a view of the event stream, through the log's one sink:
   each Warn/Error event (Info too with -v) prints as one line, and with
   --progress a `\r'-overwritten status line re-renders from the same
   events: phase, node throughput, optimality gap, heap. *)
let stderr_sink ~verbose ~progress =
  let phase = ref "start" in
  let nps = ref Float.nan and gap = ref Float.nan and heap_w = ref Float.nan in
  let num j = match j with Obs.Json.Float f -> f | Obs.Json.Int i -> float_of_int i | _ -> Float.nan in
  let render () =
    let s_nps = if Float.is_nan !nps then "-" else Fmt.str "%.0f" !nps in
    let s_gap =
      if Float.is_nan !gap then "-" else Fmt.str "%.2f%%" (100.0 *. !gap)
    in
    let s_heap =
      if Float.is_nan !heap_w then "-"
      else Fmt.str "%.1fMiB" (!heap_w *. 8.0 /. (1024.0 *. 1024.0))
    in
    Fmt.epr "\r  %-10s nodes/s %-8s gap %-8s heap %-10s%!" !phase s_nps s_gap
      s_heap
  in
  fun (e : Obs.Log.event) ->
    let arg k = List.assoc_opt k e.Obs.Log.l_args in
    let shown =
      match e.Obs.Log.l_level with
      | Obs.Log.Warn | Error -> true
      | Info -> verbose
      | Debug -> false
    in
    if shown then
      Fmt.epr "%spipesyn: [%s] %s%a@."
        (if progress then "\r" ^ String.make 60 ' ' ^ "\r" else "")
        (Obs.Log.level_name e.Obs.Log.l_level)
        e.Obs.Log.l_name
        Fmt.(list ~sep:nop (fun ppf (k, v) ->
                 pf ppf " %s=%s" k (Obs.Json.to_string v)))
        e.Obs.Log.l_args;
    if progress then begin
      (match e.Obs.Log.l_name with
      | "flow.phase" -> (
          match arg "phase" with
          | Some (Obs.Json.String p) -> phase := p
          | _ -> ())
      | "probe.sample" ->
          Option.iter (fun j -> nps := num j) (arg "nodes_per_s");
          Option.iter (fun j -> gap := num j) (arg "gap");
          Option.iter (fun j -> heap_w := num j) (arg "heap_words")
      | "milp.incumbent" -> Option.iter (fun j -> gap := num j) (arg "gap")
      | _ -> ());
      render ()
    end

(* Turn the event stream on with stderr as its view. The log keeps
   Warn and up, or Info and up when something shows Info events: -v,
   --progress, or a log file ([log_file]). *)
let stderr_view ?(progress = false) ?(log_file = false) verbose =
  Obs.Log.enable
    ~level:
      (if verbose || progress || log_file then Obs.Log.Info else Obs.Log.Warn)
    ();
  Obs.Log.set_sink (Some (stderr_sink ~verbose ~progress))

(* --log FILE (or PIPESYN_LOG), --progress, and the resource probe. The
   probe is started unconditionally: with PIPESYN_PROBE_MS unset,
   [Obs.Probe.start] is a no-op returning false. Returns the resolved
   log path for [telemetry_finish]. *)
let telemetry_start ~verbose ~log ~progress =
  let log = log_path_of log in
  stderr_view ~progress ~log_file:(log <> None) verbose;
  ignore (Obs.Probe.start ());
  log

let telemetry_finish ~log ~progress =
  Obs.Probe.stop ();
  Obs.Log.set_sink None;
  if progress then Fmt.epr "\r%s\r%!" (String.make 60 ' ');
  match log with
  | None -> ()
  | Some path ->
      Obs.Log.write ~path;
      Fmt.pr "wrote %s (%d log events%s)@." path (Obs.Log.num_events ())
        (let d = Obs.Log.dropped () in
         if d = 0 then "" else Fmt.str ", %d dropped at cap" d)

let entry_of name =
  match Benchmarks.Registry.find name with
  | e -> e
  | exception Not_found ->
      Fmt.epr "unknown benchmark %s; try `pipesyn list'@." name;
      exit exit_error

let setup_of ?(k = 4) ?(ii = 1) ?(alpha = 0.5) ?(beta = 0.5) ?wall_budget
    ?domains ~time_limit (e : Benchmarks.Registry.entry) =
  let device = Fpga.Device.make ~k ~t_clk:e.t_clk () in
  {
    (Mams.Flow.default_setup ~device) with
    resources = e.resources;
    time_limit;
    ii;
    alpha;
    beta;
    wall_budget;
    domains;
  }

let method_key m =
  match m with
  | Mams.Flow.Hls_tool -> "hls"
  | Mams.Flow.Sdc_tool -> "sdc"
  | Mams.Flow.Milp_base -> "base"
  | Mams.Flow.Milp_map -> "map"
  | Mams.Flow.Map_heuristic -> "mapfirst"

let method_of_key = function
  | "hls" -> Some Mams.Flow.Hls_tool
  | "sdc" -> Some Mams.Flow.Sdc_tool
  | "base" -> Some Mams.Flow.Milp_base
  | "map" -> Some Mams.Flow.Milp_map
  | "mapfirst" -> Some Mams.Flow.Map_heuristic
  | _ -> None

(* The driver payload stored in every checkpoint: what `pipesyn resume'
   needs to rebuild the identical setup (the model fingerprint inside the
   checkpoint then cross-checks the rebuild). *)
let checkpoint_meta ~bench ~method_ ~time_limit ~ii ~k ~alpha ~beta ~optimize
    ~audit =
  Obs.Json.Obj
    [
      ("benchmark", Obs.Json.String bench);
      ("method", Obs.Json.String (method_key method_));
      ("time_limit", Obs.Json.Float time_limit);
      ("ii", Obs.Json.Int ii);
      ("k", Obs.Json.Int k);
      ("alpha", Obs.Json.Float alpha);
      ("beta", Obs.Json.Float beta);
      ("optimize", Obs.Json.Bool optimize);
      ("audit", Obs.Json.Bool audit);
    ]

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    let columns =
      Report.
        [
          { title = "Name"; align = Left };
          { title = "Class"; align = Left };
          { title = "Domain"; align = Left };
          { title = "Tclk"; align = Right };
          { title = "Ops"; align = Right };
          { title = "Description"; align = Left };
        ]
    in
    let rows =
      List.map
        (fun (e : Benchmarks.Registry.entry) ->
          let g = e.build () in
          [
            e.name;
            Benchmarks.Registry.kind_name e.kind;
            e.domain;
            Fmt.str "%.0fns" e.t_clk;
            string_of_int (Ir.Cdfg.num_nodes g);
            e.description;
          ])
        Benchmarks.Registry.all
    in
    Fmt.pr "%s" (Report.table ~columns rows)
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the Table 1 benchmark suite.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let optimize_arg =
    Arg.(value & flag
         & info [ "O"; "optimize" ]
             ~doc:"Run the frontend simplifier (DCE, constant folding, CSE) first.")
  in
  let json_arg =
    let doc =
      "Write structured metrics for every method run to $(docv) (the \
       schema documented in README.md, section Observability)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let trace_arg =
    let doc =
      "Record a structured execution trace (flow phases, cascade \
       attempts, per-node B\\&B events, incumbent updates, simplex \
       refactorizations, per-stage covering) and write it to $(docv) as \
       Chrome trace_event JSON — load it in Perfetto or \
       chrome://tracing, or analyze it with `pipesyn trace-report'. \
       Purely observational: results are identical with and without \
       tracing. Buffer capacity via $(b,PIPESYN_TRACE_CAP)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let checkpoint_arg =
    let doc =
      "Snapshot the live MILP solve to $(docv) (atomic rename; the file \
       is always either the previous snapshot or a complete new one). An \
       interrupted run can be continued with `pipesyn resume'. Requires \
       a single MILP method (-m base or -m map)."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~doc ~docv:"FILE")
  in
  let checkpoint_every_arg =
    let doc = "Seconds between checkpoint snapshots (default 5)." in
    Arg.(value
         & opt (some float) None
         & info [ "checkpoint-every" ] ~doc ~docv:"SECS")
  in
  let audit_arg =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:
               "Make MILP solves proof-carrying and re-verify each \
                certificate in exact rational arithmetic after the solve; \
                findings land in the metrics (see `pipesyn audit' for the \
                gating variant).")
  in
  let log_arg =
    let doc =
      "Write the leveled structured event stream (flow phases, cascade \
       retries/degradations, incumbents, cut rounds, checkpoints, \
       recoveries, stalls, resource-probe samples) to $(docv) as NDJSON \
       (schema pipesyn-log-v1). Purely observational: results are \
       identical with and without logging. Also enabled by \
       $(b,PIPESYN_LOG); buffer capacity via $(b,PIPESYN_LOG_CAP)."
    in
    Arg.(value & opt (some string) None & info [ "log" ] ~doc ~docv:"FILE")
  in
  let progress_arg =
    Arg.(value & flag
         & info [ "progress" ]
             ~doc:
               "Render a live single-line status on stderr (phase, \
                nodes/s, gap, heap), driven by the same event stream as \
                --log. Throughput and heap need the resource probe \
                ($(b,PIPESYN_PROBE_MS)).")
  in
  let run name method_ time_limit ii k alpha beta verbose optimize json trace
      faults deadline domains checkpoint checkpoint_every stall_window audit
      cuts presolve log progress =
    (match domains with
    | Some d when d < 1 ->
        Fmt.epr "--domains: must be >= 1 (got %d)@." d;
        exit exit_error
    | _ -> ());
    Obs.reset ();
    if trace <> None then Obs.Trace.enable ();
    let log = telemetry_start ~verbose ~log ~progress in
    arm_faults faults;
    let wall_budget = wall_budget_of deadline in
    let e = entry_of name in
    let g = e.build () in
    let g =
      if optimize then begin
        let g', stats = Opt.simplify g in
        Fmt.pr "simplified: %a@." Opt.pp_stats stats;
        g'
      end
      else g
    in
    let ii =
      if ii > 0 then ii
      else begin
        let device = Fpga.Device.make ~k ~t_clk:e.t_clk () in
        let mii =
          Sched.Heuristic.min_ii ~delays:Fpga.Delays.default ~device
            ~resources:e.resources g
        in
        Fmt.pr "minimum feasible II: %d@." mii;
        mii
      end
    in
    let setup =
      setup_of ~k ~ii ~alpha ~beta ?wall_budget ?domains ~time_limit e
    in
    Fmt.pr "%s: %s@." e.name (Ir.Cdfg.stats g);
    let methods =
      match method_ with
      | Some m -> [ m ]
      | None -> [ Mams.Flow.Hls_tool; Mams.Flow.Milp_base; Mams.Flow.Milp_map ]
    in
    let checkpoint_sink =
      match checkpoint with
      | None ->
          if checkpoint_every <> None then begin
            Fmt.epr "--checkpoint-every requires --checkpoint@.";
            exit exit_error
          end;
          None
      | Some path ->
          let m =
            match methods with
            | [ ((Mams.Flow.Milp_base | Mams.Flow.Milp_map) as m) ] -> m
            | _ ->
                Fmt.epr
                  "--checkpoint requires a single MILP method (-m base or \
                   -m map)@.";
                exit exit_error
          in
          Some
            {
              Lp.Milp.ck_path = path;
              ck_every_s = Option.value ~default:5.0 checkpoint_every;
              ck_every_nodes = None;
              ck_meta =
                checkpoint_meta ~bench:e.name ~method_:m ~time_limit ~ii ~k
                  ~alpha ~beta ~optimize ~audit;
            }
    in
    let setup =
      { setup with
        Mams.Flow.checkpoint = checkpoint_sink;
        stall_window;
        audit;
        cuts;
        presolve;
      }
    in
    let failed = ref false and degraded = ref false in
    let metrics =
      List.map
        (fun m ->
          match Mams.Flow.run setup m g with
          | Ok r ->
              Fmt.pr "%a@." Mams.Flow.pp_result r;
              if r.Mams.Flow.trail <> [] then begin
                degraded := true;
                List.iter
                  (fun a ->
                    Fmt.pr "  degraded: %a@." Resilience.Cascade.pp_attempt a)
                  r.Mams.Flow.trail
              end;
              if verbose then begin
                Fmt.pr "%a@." (Sched.Schedule.pp_detailed g) r.Mams.Flow.schedule;
                Fmt.pr "cover:@.%a@." (Sched.Cover.pp g) r.Mams.Flow.cover
              end;
              Mams.Flow.metrics ~name:e.name r
          | Error err ->
              failed := true;
              Fmt.pr "%-9s error: %s@." (Mams.Flow.method_name m) err;
              Mams.Flow.error_metrics ~name:e.name m)
        methods
    in
    telemetry_finish ~log ~progress;
    (match json with
    | None -> ()
    | Some path ->
        Obs.Metrics.write_file ~path ~results:metrics;
        Fmt.pr "wrote %s@." path);
    (match trace with
    | None -> ()
    | Some path ->
        Obs.Trace.write_chrome ~path;
        Fmt.pr "wrote %s (%d trace events%s)@." path (Obs.Trace.num_events ())
          (let d = Obs.Trace.dropped () in
           if d = 0 then "" else Fmt.str ", %d dropped at cap" d));
    if !failed then exit exit_error
    else if !degraded then exit exit_degraded
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one or all pipeline synthesis flows on a benchmark. Exit \
          codes: 0 clean, 1 a flow failed, 2 every flow produced a \
          (verified) result but at least one degraded, 3 internal error.")
    Term.(
      const run $ bench_arg $ method_arg $ time_limit_arg $ ii_arg $ k_arg
      $ alpha_arg $ beta_arg $ verbose_arg $ optimize_arg $ json_arg
      $ trace_arg $ faults_arg $ deadline_arg $ domains_arg $ checkpoint_arg
      $ checkpoint_every_arg $ stall_window_arg $ audit_arg $ cuts_flag_arg
      $ presolve_flag_arg $ log_arg $ progress_arg)

(* ------------------------------------------------------------------ *)
(* resume                                                              *)
(* ------------------------------------------------------------------ *)

let resume_cmd =
  let file_arg =
    let doc = "Checkpoint file written by `pipesyn run --checkpoint'." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"FILE")
  in
  let time_limit_opt_arg =
    let doc =
      "MILP time budget in seconds for the resumed solve itself (default: \
       the original run's budget). Reported solve time is cumulative: the \
       checkpoint's consumed seconds plus this run's."
    in
    Arg.(value & opt (some float) None & info [ "t"; "time-limit" ] ~doc)
  in
  let audit_arg =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:
               "Re-verify the resumed solve's certificate (the \
                checkpoint's closed-node prefix plus this run's nodes) in \
                exact rational arithmetic.")
  in
  let json_arg =
    let doc = "Write structured metrics for the resumed run to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let log_arg =
    let doc =
      "Write the structured NDJSON event stream for the resumed run to \
       $(docv) (as for `pipesyn run --log')."
    in
    Arg.(value & opt (some string) None & info [ "log" ] ~doc ~docv:"FILE")
  in
  let str_of j = match j with Some (Obs.Json.String s) -> Some s | _ -> None in
  let float_of j =
    match j with
    | Some (Obs.Json.Float f) -> Some f
    | Some (Obs.Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let int_of j = match j with Some (Obs.Json.Int i) -> Some i | _ -> None in
  let bool_of j = match j with Some (Obs.Json.Bool b) -> Some b | _ -> None in
  let run file time_limit domains audit json log faults stall_window verbose =
    (match domains with
    | Some d when d < 1 ->
        Fmt.epr "--domains: must be >= 1 (got %d)@." d;
        exit exit_error
    | _ -> ());
    Obs.reset ();
    let log = telemetry_start ~verbose ~log ~progress:false in
    arm_faults faults;
    let ck =
      match Lp.Checkpoint.read ~path:file with
      | Ok ck -> ck
      | Error e ->
          Fmt.epr "%s: %s@." file e;
          exit exit_error
    in
    let meta = ck.Lp.Checkpoint.meta in
    let need what = function
      | Some v -> v
      | None ->
          Fmt.epr
            "%s: checkpoint metadata is missing %s (was it written by \
             `pipesyn run --checkpoint'?)@."
            file what;
          exit exit_error
    in
    let bench = need "benchmark" (str_of (Obs.Json.member "benchmark" meta)) in
    let mkey = need "method" (str_of (Obs.Json.member "method" meta)) in
    let method_ =
      match method_of_key mkey with
      | Some ((Mams.Flow.Milp_base | Mams.Flow.Milp_map) as m) -> m
      | Some _ | None ->
          Fmt.epr "%s: checkpoint method %S is not a MILP flow@." file mkey;
          exit exit_error
    in
    let orig_tl = need "time_limit" (float_of (Obs.Json.member "time_limit" meta)) in
    let ii = need "ii" (int_of (Obs.Json.member "ii" meta)) in
    let k = need "k" (int_of (Obs.Json.member "k" meta)) in
    let alpha = need "alpha" (float_of (Obs.Json.member "alpha" meta)) in
    let beta = need "beta" (float_of (Obs.Json.member "beta" meta)) in
    let optimize =
      Option.value ~default:false (bool_of (Obs.Json.member "optimize" meta))
    in
    let meta_audit =
      Option.value ~default:false (bool_of (Obs.Json.member "audit" meta))
    in
    let e = entry_of bench in
    let g = e.build () in
    let g = if optimize then fst (Opt.simplify g) else g in
    let time_limit = Option.value ~default:orig_tl time_limit in
    (* Default to the original run's domain count; --domains overrides
       (resume is domain-count independent for exhaustive solves). *)
    let domains =
      Some (Option.value ~default:ck.Lp.Checkpoint.domains domains)
    in
    let setup =
      {
        (setup_of ~k ~ii ~alpha ~beta ?domains ~time_limit e) with
        Mams.Flow.audit = audit || meta_audit;
        resume = Some ck;
      }
    in
    Fmt.pr "resuming %s (%s) from %s: %d nodes done, %d open, %.1fs consumed@."
      e.name (Mams.Flow.method_name method_) file ck.Lp.Checkpoint.nodes_done
      (List.length ck.Lp.Checkpoint.frontier)
      ck.Lp.Checkpoint.elapsed_s;
    let setup = { setup with Mams.Flow.stall_window } in
    let failed = ref false and degraded = ref false in
    let metrics =
      match Mams.Flow.run setup method_ g with
      | Ok r ->
          Fmt.pr "%a@." Mams.Flow.pp_result r;
          if r.Mams.Flow.trail <> [] then begin
            degraded := true;
            List.iter
              (fun a ->
                Fmt.pr "  degraded: %a@." Resilience.Cascade.pp_attempt a)
              r.Mams.Flow.trail
          end;
          (match r.Mams.Flow.solve.Mams.Flow.audit_diags with
          | Some diags when Analyze.Diag.has_errors diags ->
              failed := true;
              Fmt.pr "%a@." Analyze.Diag.pp_report diags
          | _ -> ());
          [ Mams.Flow.metrics ~name:e.name r ]
      | Error err ->
          failed := true;
          Fmt.pr "%-9s error: %s@." (Mams.Flow.method_name method_) err;
          [ Mams.Flow.error_metrics ~name:e.name method_ ]
    in
    telemetry_finish ~log ~progress:false;
    (match json with
    | None -> ()
    | Some path ->
        Obs.Metrics.write_file ~path ~results:metrics;
        Fmt.pr "wrote %s@." path);
    if !failed then exit exit_error
    else if !degraded then exit exit_degraded
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Continue an interrupted MILP solve from a checkpoint written by \
          `pipesyn run --checkpoint'. The setup is rebuilt from the \
          checkpoint's metadata (benchmark, method, formulation \
          parameters) and the model fingerprint is cross-checked before \
          the frontier is rehydrated; an exhaustively solved model \
          returns the identical status, objective and incumbent the \
          uninterrupted run would have. Exit codes as for `pipesyn run'.")
    Term.(
      const run $ file_arg $ time_limit_opt_arg $ domains_arg $ audit_arg
      $ json_arg $ log_arg $ faults_arg $ stall_window_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* cuts                                                                *)
(* ------------------------------------------------------------------ *)

let cuts_cmd =
  let run name k =
    let e = entry_of name in
    let g = e.build () in
    let cuts = Cuts.enumerate ~k g in
    Fmt.pr "%s: %s, %d cuts at K=%d@.@." e.name (Ir.Cdfg.stats g)
      (Cuts.total_cuts cuts) k;
    Array.iteri (fun v cs -> Fmt.pr "%a@." (Cuts.pp_node_cuts g) (v, cs)) cuts
  in
  Cmd.v
    (Cmd.info "cuts" ~doc:"Enumerate the K-feasible cuts of a benchmark CDFG.")
    Term.(const run $ bench_arg $ k_arg)

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)
(* ------------------------------------------------------------------ *)

let dot_cmd =
  let out_arg =
    Arg.(value & opt string "cdfg.dot" & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let sched_flag =
    Arg.(value & flag
         & info [ "schedule" ] ~doc:"Cluster nodes by HLS-flow schedule cycle.")
  in
  let run name out schedule time_limit =
    let e = entry_of name in
    let g = e.build () in
    if schedule then begin
      let setup = setup_of ~time_limit e in
      match Mams.Flow.run setup Mams.Flow.Hls_tool g with
      | Ok r ->
          let cycle_of v = r.Mams.Flow.schedule.Sched.Schedule.cycle.(v) in
          Ir.Dot.write_file ~cycle_of ~path:out g
      | Error err ->
          Fmt.epr "flow failed: %s@." err;
          exit 1
    end
    else Ir.Dot.write_file ~path:out g;
    Fmt.pr "wrote %s@." out
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a benchmark CDFG as Graphviz.")
    Term.(const run $ bench_arg $ out_arg $ sched_flag $ time_limit_arg)

(* ------------------------------------------------------------------ *)
(* rtl                                                                 *)
(* ------------------------------------------------------------------ *)

let rtl_cmd =
  let out_arg =
    Arg.(value & opt string "pipeline.v" & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let run name method_ time_limit out =
    let e = entry_of name in
    let g = e.build () in
    let setup = setup_of ~time_limit e in
    let m = Option.value method_ ~default:Mams.Flow.Milp_map in
    match Mams.Flow.run setup m g with
    | Error err ->
        Fmt.epr "flow failed: %s@." err;
        exit 1
    | Ok r ->
        let rtl =
          Rtl.emit
            ~module_name:(String.lowercase_ascii e.name)
            g r.Mams.Flow.cover r.Mams.Flow.schedule
        in
        Rtl.write_file ~path:out rtl;
        Fmt.pr "wrote %s (%d register bits, %d LUT expressions)@." out
          rtl.Rtl.register_bits rtl.Rtl.lut_expressions
  in
  Cmd.v
    (Cmd.info "rtl" ~doc:"Synthesize a benchmark and emit pipelined Verilog.")
    Term.(const run $ bench_arg $ method_arg $ time_limit_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

(* Run every analyzer pass that applies to a benchmark: CDFG lints and
   the pipelining pre-flight directly on the graph; then — when a
   baseline schedule exists — the MILP model lints (build, don't solve),
   the netlist lints on the HLS-flow netlist, and the schedule
   certificate checker. *)
let lint_entry ~k ~ii (e : Benchmarks.Registry.entry) =
  let g = e.build () in
  let setup = setup_of ~k ~ii ~time_limit:1.0 e in
  let cfg =
    {
      Analyze.Preflight.device = setup.device;
      delays = setup.delays;
      resources = setup.resources;
      ii = setup.ii;
    }
  in
  let static = Analyze.Engine.check_cdfg g @ Analyze.Engine.preflight cfg g in
  let derived =
    if Analyze.Diag.has_errors static then
      (* No point scheduling a graph the gate would reject. *)
      []
    else
      match
        Sched.Heuristic.schedule ~device:setup.device ~delays:setup.delays
          ~resources:setup.resources ~ii:setup.ii g
      with
      | Error _ -> [] (* pre-flight already reported why *)
      | Ok sched ->
          let cuts = Cuts.enumerate ~k:setup.device.Fpga.Device.k g in
          let fcfg =
            Mams.Formulation.
              {
                device = setup.device;
                delays = setup.delays;
                resources = setup.resources;
                ii = setup.ii;
                max_latency = Sched.Schedule.latency sched;
                alpha = setup.alpha;
                beta = setup.beta;
                cut_delay =
                  Mams.Formulation.mapped_delay ~device:setup.device
                    ~delays:setup.delays;
              }
          in
          let f = Mams.Formulation.build fcfg g cuts in
          let model_diags =
            Analyze.Engine.check_model (Mams.Formulation.model f)
          in
          let cover =
            Techmap.map_schedule ~device:setup.device ~delays:setup.delays
              ~cuts g sched
          in
          let sched =
            Sched.Timing.recompute_starts ~device:setup.device
              ~delays:setup.delays g cover sched
          in
          let net_diags =
            Analyze.Engine.check_netlist (Rtl.Netlist.of_design g cover sched)
          in
          let ctx =
            {
              Sched.Verify.device = setup.device;
              delays = setup.delays;
              resources = setup.resources;
            }
          in
          let cert_diags = Analyze.Engine.check_certificate ctx g cover sched in
          model_diags @ net_diags @ cert_diags
  in
  static @ derived

let lint_cmd =
  let bench_opt_arg =
    let doc = "Benchmark to lint (see `pipesyn list')." in
    Arg.(value & opt (some string) None & info [ "b"; "benchmark" ] ~doc)
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Lint every registry benchmark.")
  in
  let json_arg =
    let doc = "Write the JSON lint report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let run name all json ii k verbose =
    stderr_view verbose;
    Obs.reset ();
    let entries =
      if all then Benchmarks.Registry.all
      else
        match name with
        | Some n -> [ entry_of n ]
        | None ->
            Fmt.epr "specify a benchmark with -b NAME or pass --all@.";
            exit exit_error
    in
    let reports =
      List.map
        (fun (e : Benchmarks.Registry.entry) ->
          let diags = lint_entry ~k ~ii e in
          Fmt.pr "== %s: %s ==@." e.name (Analyze.Diag.summary diags);
          if diags <> [] then Fmt.pr "%a@." Analyze.Diag.pp_report diags;
          (e.name, diags))
        entries
    in
    (match json with
    | None -> ()
    | Some path ->
        Analyze.Engine.write_file ~path ~entries:reports;
        Fmt.pr "wrote %s@." path);
    let n_errors =
      List.fold_left
        (fun acc (_, ds) -> acc + List.length (Analyze.Diag.errors ds))
        0 reports
    in
    if n_errors > 0 then begin
      Fmt.epr "lint: %d error diagnostic%s@." n_errors
        (if n_errors = 1 then "" else "s");
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes (CDFG, pre-flight, LP model, \
          netlist, certificate) over benchmarks; exit 1 on any \
          error-severity diagnostic.")
    Term.(
      const run $ bench_opt_arg $ all_arg $ json_arg $ ii_arg $ k_arg
      $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* audit                                                               *)
(* ------------------------------------------------------------------ *)

let audit_cmd =
  let bench_opt_arg =
    let doc = "Benchmark to audit (see `pipesyn list')." in
    Arg.(value & opt (some string) None & info [ "b"; "benchmark" ] ~doc)
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Audit every registry benchmark.")
  in
  let json_arg =
    let doc = "Write the JSON audit report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let run name all json time_limit ii k domains cuts presolve verbose =
    stderr_view verbose;
    (match domains with
    | Some d when d < 1 ->
        Fmt.epr "--domains: must be >= 1 (got %d)@." d;
        exit exit_error
    | _ -> ());
    Obs.reset ();
    let entries =
      if all then Benchmarks.Registry.all
      else
        match name with
        | Some n -> [ entry_of n ]
        | None ->
            Fmt.epr "specify a benchmark with -b NAME or pass --all@.";
            exit exit_error
    in
    let failed = ref false in
    let reports =
      List.map
        (fun (e : Benchmarks.Registry.entry) ->
          let g = e.build () in
          let setup =
            { (setup_of ~k ~ii ?domains ~time_limit e) with
              Mams.Flow.audit = true;
              cuts;
              presolve;
            }
          in
          match Mams.Flow.run setup Mams.Flow.Milp_map g with
          | Error err ->
              failed := true;
              Fmt.pr "== %s: flow error: %s ==@." e.name err;
              (e.name, [])
          | Ok r -> (
              match r.Mams.Flow.solve.Mams.Flow.audit_diags with
              | None ->
                  (* the cascade fell back to a solver-free attempt, so
                     nothing was proved, which the gate treats as a
                     failure, not a silent pass *)
                  failed := true;
                  Fmt.pr "== %s: no certificate to audit (degraded run) ==@."
                    e.name;
                  (e.name, [])
              | Some diags ->
                  Fmt.pr "== %s: %d certificate nodes, audit %s ==@." e.name
                    r.Mams.Flow.solve.Mams.Flow.cert_nodes
                    (Analyze.Diag.summary diags);
                  if diags <> [] then
                    Fmt.pr "%a@." Analyze.Diag.pp_report diags;
                  if Analyze.Diag.has_errors diags then failed := true;
                  (e.name, diags)))
        entries
    in
    (match json with
    | None -> ()
    | Some path ->
        Analyze.Engine.write_file ~path ~entries:reports;
        Fmt.pr "wrote %s@." path);
    if !failed then exit exit_error
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Run the mapping-aware MILP flow with proof-carrying \
          certificates and re-verify every solver claim (duals, Farkas \
          rays, the pruning log) in exact rational arithmetic. Exit 1 on \
          any CERT1xx error finding, or when no certificate was \
          produced.")
    Term.(
      const run $ bench_opt_arg $ all_arg $ json_arg $ time_limit_arg
      $ ii_arg $ k_arg $ domains_arg $ cuts_flag_arg $ presolve_flag_arg
      $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* diags                                                               *)
(* ------------------------------------------------------------------ *)

let diags_cmd =
  let md_arg =
    Arg.(
      value & flag
      & info [ "markdown" ]
          ~doc:
            "Emit the table as Markdown — the exact content of \
             docs/DIAGNOSTICS.md, which a dune rule keeps in sync with \
             this output.")
  in
  let run markdown =
    if markdown then begin
      Fmt.pr "# Diagnostic codes@.@.";
      Fmt.pr
        "Every static-analysis pass reports findings under a stable, \
         machine-matchable code. This table is generated from the pass \
         registry (`Analyze.Engine.passes`) by `pipesyn diags \
         --markdown`; do not edit it by hand — `dune runtest` diffs this \
         file against the registry.@.@.";
      List.iter
        (fun (p : Analyze.Engine.pass) ->
          Fmt.pr "## %s (%s)@.@." p.Analyze.Engine.name p.Analyze.Engine.artifact;
          Fmt.pr "%s.@.@." p.Analyze.Engine.description;
          Fmt.pr "| Code | Description |@.";
          Fmt.pr "|------|-------------|@.";
          List.iter
            (fun (c, d) -> Fmt.pr "| %s | %s |@." c d)
            p.Analyze.Engine.codes;
          Fmt.pr "@.")
        Analyze.Engine.passes
    end
    else
      List.iter
        (fun (p : Analyze.Engine.pass) ->
          Fmt.pr "%s (%s): %s@." p.Analyze.Engine.name
            p.Analyze.Engine.artifact p.Analyze.Engine.description;
          List.iter
            (fun (c, d) -> Fmt.pr "  %-9s %s@." c d)
            p.Analyze.Engine.codes;
          Fmt.pr "@.")
        Analyze.Engine.passes
  in
  Cmd.v
    (Cmd.info "diags"
       ~doc:
         "Print every diagnostic code the analyzer passes can emit, with \
          one-line descriptions (--markdown emits docs/DIAGNOSTICS.md).")
    Term.(const run $ md_arg)

(* ------------------------------------------------------------------ *)
(* faults                                                              *)
(* ------------------------------------------------------------------ *)

let faults_cmd =
  let run () =
    Fmt.pr "Registered fault points (arm with --faults or PIPESYN_FAULTS):@.@.";
    List.iter
      (fun (name, doc) -> Fmt.pr "  %-16s %s@." name doc)
      Resilience.Fault.points;
    Fmt.pr
      "@.Spec grammar: point (every hit), point@N (N-th hit), \
       point%%P:S (P%%, seed S); comma-separated.@."
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"List the registered fault-injection points and spec grammar.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* trace-report                                                        *)
(* ------------------------------------------------------------------ *)

let trace_report_cmd =
  let file_arg =
    let doc = "Chrome trace_event file written by `pipesyn run --trace'." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"FILE")
  in
  let top_arg =
    let doc = "How many slowest spans to list." in
    Arg.(value & opt int 10 & info [ "top" ] ~doc ~docv:"N")
  in
  let read_file path =
    match open_in_bin path with
    | exception Sys_error e ->
        Fmt.epr "%s@." e;
        exit exit_error
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
  in
  let fmt_s v = Fmt.str "%.4f" v in
  let fmt_gap g =
    if Float.is_nan g then "-" else Fmt.str "%.2f%%" (100.0 *. g)
  in
  let run file top =
    let contents = read_file file in
    match Obs.Json.of_string contents with
    | Error e ->
        Fmt.epr "%s: JSON parse error: %s@." file e;
        exit exit_error
    | Ok doc -> (
        match Obs.Trace.Analysis.analyze ~top doc with
        | Error e ->
            Fmt.epr "%s: %s@." file e;
            exit exit_error
        | Ok r ->
            let open Obs.Trace.Analysis in
            Fmt.pr "%s: %d events (%d spans, %d instants)@.@." file r.r_events
              r.r_spans r.r_instants;
            if r.r_phases <> [] then begin
              let columns =
                Report.
                  [
                    { title = "Span"; align = Left };
                    { title = "Cat"; align = Left };
                    { title = "Count"; align = Right };
                    { title = "Total s"; align = Right };
                    { title = "Max s"; align = Right };
                  ]
              in
              let rows =
                List.filteri (fun i _ -> i < 20) r.r_phases
                |> List.map (fun s ->
                       [
                         s.sp_name; s.sp_cat; string_of_int s.sp_count;
                         fmt_s s.sp_total; fmt_s s.sp_max;
                       ])
              in
              Fmt.pr "Phase breakdown (by total time):@.%s@."
                (Report.table ~columns rows)
            end;
            (match r.r_tree with
            | None -> ()
            | Some t ->
                Fmt.pr "B&B tree: %d nodes, max depth %d, %d warm / %d cold@."
                  t.tr_nodes t.tr_max_depth t.tr_warm (t.tr_nodes - t.tr_warm);
                (match t.tr_domains with
                | [] -> ()
                | ds ->
                    let total =
                      max 1 (List.fold_left (fun a (_, n) -> a + n) 0 ds)
                    in
                    Fmt.pr "  per-domain utilization: %s@."
                      (String.concat ", "
                         (List.map
                            (fun (d, n) ->
                              Fmt.str "domain %d: %d nodes (%.0f%%)" d n
                                (100.0 *. float_of_int n /. float_of_int total))
                            ds)));
                Fmt.pr "  node LP statuses: %s@.@."
                  (String.concat ", "
                     (List.map
                        (fun (s, n) -> Fmt.str "%s %d" s n)
                        t.tr_statuses)));
            (* Traces written before schema v8 carry no milp.cut_round
               instants; the line is simply omitted. *)
            (match r.r_cuts with
            | None -> ()
            | Some c ->
                let closed =
                  if
                    Float.is_nan c.cu_bound0 || Float.is_nan c.cu_bound
                    || Float.abs c.cu_bound0 < 1e-12
                  then ""
                  else
                    Fmt.str " (root bound %.6g -> %.6g)" c.cu_bound0 c.cu_bound
                in
                Fmt.pr "Root cuts: %d round%s, %d cut%s applied%s@.@."
                  c.cu_rounds
                  (if c.cu_rounds = 1 then "" else "s")
                  c.cu_cuts
                  (if c.cu_cuts = 1 then "" else "s")
                  closed);
            if r.r_timeline <> [] then begin
              let columns =
                Report.
                  [
                    { title = "t (s)"; align = Right };
                    { title = "Objective"; align = Right };
                    { title = "Gap"; align = Right };
                  ]
              in
              let rows =
                List.map
                  (fun p ->
                    [ fmt_s p.gp_ts; Fmt.str "%.6g" p.gp_obj; fmt_gap p.gp_gap ])
                  r.r_timeline
              in
              Fmt.pr "Incumbent/gap timeline:@.%s@."
                (Report.table ~columns rows)
            end;
            if r.r_slowest <> [] then begin
              let columns =
                Report.
                  [
                    { title = "Span"; align = Left };
                    { title = "Cat"; align = Left };
                    { title = "Start s"; align = Right };
                    { title = "Dur s"; align = Right };
                  ]
              in
              let rows =
                List.map
                  (fun s ->
                    [ s.sl_name; s.sl_cat; fmt_s s.sl_start; fmt_s s.sl_dur ])
                  r.r_slowest
              in
              Fmt.pr "Top %d slowest spans:@.%s@."
                (List.length r.r_slowest)
                (Report.table ~columns rows)
            end;
            (* Resource-probe samples (PIPESYN_PROBE_MS) ride in the
               trace as "probe.sample" instants; summarize when present. *)
            (let samples =
               match Obs.Json.member "traceEvents" doc with
               | Some (Obs.Json.List evs) ->
                   List.filter_map
                     (fun ev ->
                       match
                         (Obs.Json.member "name" ev, Obs.Json.member "args" ev)
                       with
                       | Some (Obs.Json.String "probe.sample"), Some args ->
                           Some args
                       | _ -> None)
                     evs
               | _ -> []
             in
             match samples with
             | [] -> ()
             | _ ->
                 let num k args =
                   match Obs.Json.member k args with
                   | Some (Obs.Json.Float f) -> f
                   | Some (Obs.Json.Int i) -> float_of_int i
                   | _ -> Float.nan
                 in
                 let peak k =
                   List.fold_left
                     (fun acc a ->
                       let v = num k a in
                       if Float.is_nan v then acc else Float.max acc v)
                     Float.neg_infinity samples
                 in
                 let heap_w = peak "heap_words" and rss_kb = peak "rss_kb" in
                 Fmt.pr "Resources: %d probe sample%s%s%s@.@."
                   (List.length samples)
                   (if List.length samples = 1 then "" else "s")
                   (if Float.is_finite heap_w && heap_w > 0.0 then
                      Fmt.str ", peak heap %.1f MiB"
                        (heap_w *. 8.0 /. 1048576.0)
                    else "")
                   (if Float.is_finite rss_kb && rss_kb > 0.0 then
                      Fmt.str ", peak RSS %.1f MiB" (rss_kb /. 1024.0)
                    else ""));
            List.iter (fun e -> Fmt.pr "well-formedness: %s@." e) r.r_errors;
            Fmt.pr "spans: %d, well-formedness errors: %d@." r.r_spans
              (List.length r.r_errors);
            (* A trace with no spans (or a malformed one) fails the
               report — CI leans on this as its validity gate. *)
            if r.r_errors <> [] || r.r_spans = 0 then exit exit_error)
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:
         "Analyze a trace written by `pipesyn run --trace': phase \
          breakdown, branch-and-bound tree shape, incumbent/gap \
          timeline, slowest spans, and well-formedness checks (exit 1 \
          on any violation or an empty trace).")
    Term.(const run $ file_arg $ top_arg)

(* ------------------------------------------------------------------ *)
(* bench-diff                                                          *)
(* ------------------------------------------------------------------ *)

let bench_diff_cmd =
  let old_arg =
    let doc =
      "Baseline metrics file (written by `pipesyn run --json' or the \
       bench harness; bench/baseline.json in CI)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"OLD")
  in
  let new_arg =
    let doc = "Candidate metrics file to compare against $(i,OLD)." in
    Arg.(required & pos 1 (some string) None & info [] ~doc ~docv:"NEW")
  in
  let d = Benchdiff.default_thresholds in
  let time_rel_arg =
    let doc =
      "Relative solve-time increase that flags a regression (fraction)."
    in
    Arg.(value & opt float d.Benchdiff.time_rel
         & info [ "time-rel" ] ~doc ~docv:"FRAC")
  in
  let time_floor_arg =
    let doc =
      "Absolute seconds below which solve-time deltas are ignored (both \
       sides sub-floor = machine noise)."
    in
    Arg.(value & opt float d.Benchdiff.time_floor_s
         & info [ "time-floor" ] ~doc ~docv:"SECS")
  in
  let count_rel_arg =
    let doc =
      "Relative node/pivot-count increase that flags a regression \
       (fraction; only compared between two optimal solves)."
    in
    Arg.(value & opt float d.Benchdiff.count_rel
         & info [ "count-rel" ] ~doc ~docv:"FRAC")
  in
  let gap_abs_arg =
    let doc =
      "Absolute decrease of root-gap closure that flags a regression."
    in
    Arg.(value & opt float d.Benchdiff.gap_abs
         & info [ "gap-abs" ] ~doc ~docv:"FRAC")
  in
  let report_arg =
    let doc = "Write the machine-readable diff report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"REPORT")
  in
  let load path =
    let contents =
      match open_in_bin path with
      | exception Sys_error e ->
          Fmt.epr "%s@." e;
          exit 3
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Obs.Json.of_string contents with
    | Ok j -> j
    | Error e ->
        Fmt.epr "%s: JSON parse error: %s@." path e;
        exit 3
  in
  let run old_p new_p time_rel time_floor_s count_rel gap_abs report =
    let thresholds =
      { Benchdiff.time_rel; time_floor_s; count_rel; gap_abs }
    in
    let old_j = load old_p and new_j = load new_p in
    match Benchdiff.diff ~thresholds old_j new_j with
    | Error e ->
        Fmt.epr "bench-diff: %s@." e;
        exit 3
    | Ok r ->
        (match report with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                output_string oc (Obs.Json.to_string (Benchdiff.report_to_json r));
                output_char oc '\n');
            Fmt.pr "wrote %s@." path);
        Fmt.pr "%a" Benchdiff.pp_report r;
        if Benchdiff.regressed r then exit exit_error
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two metrics files for performance regressions, \
          noise-aware: wall time has a relative threshold plus an \
          absolute floor, node/pivot counts are compared only between \
          two optimal solves, a worsened status or a vanished row always \
          flags. Exit codes: 0 no regression, 1 regression found, 3 \
          unreadable file or schema mismatch.")
    Term.(
      const run $ old_arg $ new_arg $ time_rel_arg $ time_floor_arg
      $ count_rel_arg $ gap_abs_arg $ report_arg)

(* ------------------------------------------------------------------ *)
(* table1 / table2 pointers                                            *)
(* ------------------------------------------------------------------ *)

let tables_cmd =
  let run () =
    Fmt.pr
      "Tables 1-2, the figures and the ablations are regenerated by the@.";
    Fmt.pr "benchmark harness:@.@.";
    Fmt.pr "  dune exec bench/main.exe@.@.";
    Fmt.pr "Use PIPESYN_TIME_LIMIT / PIPESYN_ONLY to control the run.@."
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"How to regenerate the paper's tables/figures.")
    Term.(const run $ const ())

let () =
  let doc =
    "Area-efficient pipelining for FPGA-targeted HLS (DAC 2015 reproduction)"
  in
  let info = Cmd.info "pipesyn" ~version:"1.0.0" ~doc in
  (* Exceptions that escape the cascade's containment are internal errors:
     report one line (no raw backtrace) and exit 3, distinguishable from
     error findings (1) and degraded-but-verified results (2). *)
  let code =
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [
             list_cmd; run_cmd; resume_cmd; cuts_cmd; dot_cmd; rtl_cmd;
             lint_cmd; audit_cmd; diags_cmd; faults_cmd; trace_report_cmd;
             bench_diff_cmd; tables_cmd;
           ])
    with e ->
      Fmt.epr "pipesyn: internal error: %s@." (Printexc.to_string e);
      3
  in
  exit code
