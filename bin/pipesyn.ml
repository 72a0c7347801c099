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
  let doc =
    "Flow to run: hls | sdc | base | map | mapfirst (default: the three \
     paper flows)."
  in
  Arg.(
    value
    & opt (some (enum Mams.Flow.methods)) None
    & info [ "m"; "method" ] ~doc)

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
     $(i,point@N) (N-th hit only) or $(i,point%P:S) (P percent, seeded \
     with S). See `pipesyn faults' for the registered points."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~doc ~docv:"SPEC")

let deadline_arg =
  let doc =
    "Global wall-clock budget in seconds for the whole run (lint, cut \
     enumeration, solve, mapping, verification). On expiry the flow \
     degrades gracefully and the exit code is 2."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~doc ~docv:"SECS")

let domains_arg =
  let doc =
    "Branch-and-bound worker domains for the MILP solves (an OCaml 5 \
     work-stealing pool). Exhaustive solves return identical statuses \
     and objectives for every value of $(docv) — see the README's \
     determinism guarantee. Default 1."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~doc ~docv:"N")

let stall_window_arg =
  let doc =
    "Stall-watchdog window in seconds: a B&B worker that makes no \
     progress for a full window is first nudged (cold refactorization), \
     then its node is cancelled and requeued for replay. Off by default; \
     results are unaffected either way (the recovery is recorded in the \
     degradation log)."
  in
  Arg.(value & opt (some float) None & info [ "stall-window" ] ~doc ~docv:"SECS")

(* --no-NAME turns a default-on solver feature off: [Some false] when
   given, [None] (the solver's default, on) otherwise. *)
let off_flag_arg feature ~doc =
  let flag = Arg.(value & flag & info [ "no-" ^ feature ] ~doc) in
  Term.(const (fun off -> if off then Some false else None) $ flag)

let cuts_flag_arg =
  off_flag_arg "cuts"
    ~doc:
      "Disable certified root cutting planes (Chvatal-Gomory and knapsack \
       covers separated at the MILP root; see the README's \"Root cuts\" \
       section), which are on by default. Results (status, objective, \
       incumbent) are identical either way — cuts only change how much of \
       the gap closes before branching."

let presolve_flag_arg =
  off_flag_arg "presolve"
    ~doc:
      "Disable certified presolve (fixpoint bound tightening on the root \
       model, replayed exactly by `pipesyn audit'), which is on by \
       default."

(* Exit codes (README, "Exit codes"): 0 ok, 1 error findings / user error,
   2 degraded result, 3 internal error. *)
let exit_error = 1
let exit_degraded = 2
let exit_internal = 3

let check_domains = function
  | Some d when d < 1 ->
      Fmt.epr "--domains: must be >= 1 (got %d)@." d;
      exit exit_error
  | _ -> ()

let arm_faults spec =
  match spec with
  | None -> ()
  | Some s -> (
      match Resilience.Fault.arm s with
      | Ok () -> ()
      | Error e ->
          Fmt.epr "--faults: %s@." e;
          exit exit_error)

(* ------------------------------------------------------------------ *)
(* live telemetry: --log / --trace / --progress / PIPESYN_PROBE_MS    *)
(* ------------------------------------------------------------------ *)

(* stderr is a view of the event stream, through the log's one sink:
   each Warn/Error event (Info too with -v) prints as one line, and with
   --progress a `\r'-overwritten status line re-renders from the same
   events: phase, node throughput, optimality gap, heap. *)
let stderr_sink ~verbose ~progress =
  let phase = ref "start" in
  let nps = ref Float.nan and gap = ref Float.nan and heap_w = ref Float.nan in
  let num j = Option.value (Obs.Json.number j) ~default:Float.nan in
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

(* The resource probe's period: PIPESYN_PROBE_MS milliseconds, the one
   setting with no flag. Unset leaves the probe off. *)
let probe_period () =
  match Sys.getenv_opt "PIPESYN_PROBE_MS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some ms when ms >= 1 -> Some ms
      | _ ->
          Fmt.epr "PIPESYN_PROBE_MS: expected milliseconds >= 1, got %S@." s;
          exit exit_error)

(* --log FILE, --trace FILE, --progress, and the resource probe. *)
let telemetry_start ~verbose ~log ~trace ~progress =
  if trace <> None then Obs.Trace.enable ();
  stderr_view ~progress ~log_file:(log <> None) verbose;
  Option.iter (fun period_ms -> Obs.Probe.start ~period_ms) (probe_period ())

let telemetry_finish ~log ~trace ~progress =
  Obs.Probe.stop ();
  Obs.Log.set_sink None;
  if progress then Fmt.epr "\r%s\r%!" (String.make 60 ' ');
  let wrote path kind n dropped =
    Fmt.pr "wrote %s (%d %s events%s)@." path n kind
      (if dropped = 0 then "" else Fmt.str ", %d dropped at cap" dropped)
  in
  Option.iter
    (fun path ->
      Obs.Log.write ~path;
      wrote path "log" (Obs.Log.num_events ()) (Obs.Log.dropped ()))
    log;
  Option.iter
    (fun path ->
      Obs.Trace.write_chrome ~path;
      wrote path "trace" (Obs.Trace.num_events ()) (Obs.Trace.dropped ()))
    trace

(* Read and parse a JSON file, exiting with [code] when it cannot be
   read or parsed. With [ndjson], a file that is not one JSON document
   (a --log file) reads as the list of its non-blank lines. *)
let read_json ?(ndjson = false) ~code path =
  let fail fmt = Fmt.kstr (fun s -> Fmt.epr "%s: %s@." path s; exit code) fmt in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e ->
      Fmt.epr "%s@." e;
      exit code
  | contents -> (
      match Obs.Json.of_string contents with
      | Ok j -> j
      | Error e when not ndjson -> fail "JSON parse error: %s" e
      | Error _ ->
          let line i l =
            if String.trim l = "" then []
            else
              match Obs.Json.of_string l with
              | Ok j -> [ j ]
              | Error e -> fail "line %d: JSON parse error: %s" (i + 1) e
          in
          let lines = String.split_on_char '\n' contents in
          Obs.Json.List (List.concat (List.mapi line lines)))

let entry_of name =
  match Benchmarks.Registry.find name with
  | e -> e
  | exception Not_found ->
      Fmt.epr "unknown benchmark %s; try `pipesyn list'@." name;
      exit exit_error

(* A registry benchmark and its graph; [optimize] runs the frontend
   simplifier on it first. *)
let load_graph ?(optimize = false) name =
  let e = entry_of name in
  let g = e.build () in
  if not optimize then (e, g)
  else begin
    let g', stats = Opt.simplify g in
    Fmt.pr "simplified: %a@." Opt.pp_stats stats;
    (e, g')
  end

let setup_of ?(k = 4) ?(ii = 1) ?(alpha = 0.5) ?(beta = 0.5) ?domains
    ~time_limit (e : Benchmarks.Registry.entry) =
  let device = Fpga.Device.make ~k ~t_clk:e.t_clk () in
  {
    (Mams.Flow.default_setup ~device) with
    resources = e.resources;
    time_limit;
    ii;
    alpha;
    beta;
    domains;
  }

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

(* [Report] columns from (title, alignment) pairs. *)
let columns = List.map (fun (title, align) -> { Report.title; align })

let list_cmd =
  let run () =
    let columns =
      columns
        [ ("Name", Left); ("Class", Left); ("Domain", Left); ("Tclk", Right);
          ("Ops", Right); ("Description", Left) ]
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
(* run / resume                                                       *)
(* ------------------------------------------------------------------ *)

(* The options of `run' and `resume' that do not change the model. *)
type opts = {
  time_limit : float option;  (** [None]: the command's own default *)
  domains : int option;
  audit : bool;
  json : string option;
  log : string option;
  trace : string option;
  progress : bool;
  checkpoint : string option;
  checkpoint_every : float option;
  faults : string option;
  deadline : float option;
  stall_window : float option;
  verbose : bool;
}

let opts_term =
  let time_limit =
    let doc =
      "MILP time budget in seconds (the paper used 3600). Default: 20 for \
       `run'; for `resume', the original run's budget. A resumed solve \
       gets the whole budget to itself, and its reported solve time is \
       cumulative: the checkpoint's consumed seconds plus this run's."
    in
    Arg.(value & opt (some float) None & info [ "t"; "time-limit" ] ~doc)
  in
  let audit =
    let doc =
      "Make MILP solves proof-carrying and re-verify each certificate (for \
       `resume', the checkpoint's closed-node prefix plus this run's \
       nodes) in exact rational arithmetic after the solve. Findings land \
       in the metrics; a CERT1xx error finding exits 1."
    in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let json =
    let doc =
      "Write structured metrics for every method run to $(docv) (the \
       schema documented in README.md, section Observability)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let log =
    let doc =
      "Write the leveled structured event stream (flow phases, cascade \
       retries/degradations, incumbents, cut rounds, checkpoints, \
       recoveries, stalls, resource-probe samples) to $(docv) as NDJSON \
       (schema pipesyn-log-v1); read it back with `pipesyn explain'. \
       Purely observational: results are identical with and without \
       logging. The log keeps at most 200000 events and counts the rest \
       as dropped."
    in
    Arg.(value & opt (some string) None & info [ "log" ] ~doc ~docv:"FILE")
  in
  let trace =
    let doc =
      "Record a structured execution trace (flow phases, cascade \
       attempts, per-node B&B events, incumbent updates, simplex \
       refactorizations, per-stage covering) and write it to $(docv) as \
       Chrome trace_event JSON — load it in Perfetto or \
       chrome://tracing, or read it with `pipesyn explain'. \
       Purely observational: results are identical with and without \
       tracing. The trace keeps at most 1000000 events and counts the \
       rest as dropped."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let progress =
    let doc =
      "Render a live single-line status on stderr (phase, nodes/s, gap, \
       heap), driven by the same event stream as --log. Throughput and \
       heap need the resource probe ($(b,PIPESYN_PROBE_MS))."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let checkpoint =
    let doc =
      "Snapshot the live MILP solve to $(docv) (atomic rename; the file \
       is always either the previous snapshot or a complete new one). An \
       interrupted run, resumed ones included, can be continued with \
       `pipesyn resume'. Requires a single MILP method (-m base or -m \
       map)."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~doc ~docv:"FILE")
  in
  let checkpoint_every =
    let doc = "Seconds between checkpoint snapshots (default 5)." in
    Arg.(value
         & opt (some float) None
         & info [ "checkpoint-every" ] ~doc ~docv:"SECS")
  in
  let make time_limit domains audit json log trace progress checkpoint
      checkpoint_every faults deadline stall_window verbose =
    {
      time_limit; domains; audit; json; log; trace; progress; checkpoint;
      checkpoint_every; faults; deadline; stall_window; verbose;
    }
  in
  Term.(
    const make $ time_limit $ domains_arg $ audit $ json $ log $ trace
    $ progress $ checkpoint $ checkpoint_every $ faults_arg $ deadline_arg
    $ stall_window_arg $ verbose_arg)

(* What a command hands [drive]: a benchmark graph, one request per flow
   to run on it (in order), and how a request becomes its flow's setup. *)
type plan = {
  entry : Benchmarks.Registry.entry;
  graph : Ir.Cdfg.t;
  requests : Mams.Flow.Request.t list;
  setup : Mams.Flow.Request.t -> Mams.Flow.setup;
}

let request_setup ?domains e (r : Mams.Flow.Request.t) =
  {
    (setup_of ~k:r.k ~ii:r.ii ~alpha:r.alpha ~beta:r.beta ?domains
       ~time_limit:r.time_limit e)
    with
    Mams.Flow.audit = r.audit;
    stall_window = r.stall_window;
  }

(* Start telemetry and arm faults, let the command [prepare] its plan,
   run each flow, report, and exit: 0 clean, 1 a flow failed or an audit
   found a CERT error, 2 degraded. *)
let drive o prepare =
  check_domains o.domains;
  Obs.reset ();
  telemetry_start ~verbose:o.verbose ~log:o.log ~trace:o.trace
    ~progress:o.progress;
  arm_faults o.faults;
  let p = prepare () in
  let checkpoint =
    match (o.checkpoint, p.requests) with
    | None, _ ->
        if o.checkpoint_every <> None then begin
          Fmt.epr "--checkpoint-every requires --checkpoint@.";
          exit exit_error
        end;
        None
    | Some path, [ ({ method_ = Milp_base | Milp_map; _ } as r) ] ->
        Some
          {
            Lp.Milp.ck_path = path;
            ck_every_s = Option.value ~default:5.0 o.checkpoint_every;
            ck_every_nodes = None;
            ck_meta = Mams.Flow.Request.to_json r;
          }
    | Some _, _ ->
        Fmt.epr
          "--checkpoint requires a single MILP method (-m base or -m map)@.";
        exit exit_error
  in
  let name = p.entry.name in
  let failed = ref false and degraded = ref false in
  let metrics =
    List.map
      (fun (req : Mams.Flow.Request.t) ->
        let m = req.method_ in
        let setup =
          { (p.setup req) with wall_budget = o.deadline; checkpoint }
        in
        match Mams.Flow.run setup m p.graph with
        | Ok r ->
            Fmt.pr "%a@." Mams.Flow.pp_result r;
            if r.trail <> [] then begin
              degraded := true;
              List.iter
                (fun a ->
                  Fmt.pr "  degraded: %a@." Resilience.Cascade.pp_attempt a)
                r.trail
            end;
            (match r.solve.audit_diags with
            | Some diags when Analyze.Diag.has_errors diags ->
                failed := true;
                Fmt.pr "%a@." Analyze.Diag.pp_report diags
            | _ -> ());
            if o.verbose then begin
              Fmt.pr "%a@." (Sched.Schedule.pp_detailed p.graph) r.schedule;
              Fmt.pr "cover:@.%a@." (Sched.Cover.pp p.graph) r.cover
            end;
            Mams.Flow.metrics ~name r
        | Error err ->
            failed := true;
            Fmt.pr "%-9s error: %s@." (Mams.Flow.method_name m) err;
            Mams.Flow.error_metrics ~name m)
      p.requests
  in
  telemetry_finish ~log:o.log ~trace:o.trace ~progress:o.progress;
  Option.iter
    (fun path ->
      Obs.Metrics.write_file ~path ~results:metrics;
      Fmt.pr "wrote %s@." path)
    o.json;
  if !failed then exit exit_error
  else if !degraded then exit exit_degraded

let run_cmd =
  let optimize_arg =
    Arg.(value & flag
         & info [ "O"; "optimize" ]
             ~doc:"Run the frontend simplifier (DCE, constant folding, CSE) first.")
  in
  let run benchmark method_ ii k alpha beta optimize cuts presolve o =
    drive o @@ fun () ->
    let e, g = load_graph ~optimize benchmark in
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
    Fmt.pr "%s: %s@." e.name (Ir.Cdfg.stats g);
    let requests =
      List.map
        (fun method_ ->
          {
            Mams.Flow.Request.benchmark = e.name;
            method_;
            optimize;
            time_limit = Option.value ~default:20.0 o.time_limit;
            ii;
            k;
            alpha;
            beta;
            audit = o.audit;
            stall_window = o.stall_window;
          })
        (match method_ with
        | Some m -> [ m ]
        | None -> [ Mams.Flow.Hls_tool; Milp_base; Milp_map ])
    in
    let setup r =
      { (request_setup ?domains:o.domains e r) with cuts; presolve }
    in
    { entry = e; graph = g; requests; setup }
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one or all pipeline synthesis flows on a benchmark. Exit \
          codes: 0 clean, 1 a flow failed or $(b,--audit) found a CERT \
          error, 2 every flow produced a (verified) result but at least \
          one degraded, 3 internal error.")
    Term.(
      const run $ bench_arg $ method_arg $ ii_arg $ k_arg $ alpha_arg
      $ beta_arg $ optimize_arg $ cuts_flag_arg $ presolve_flag_arg
      $ opts_term)

let resume_cmd =
  let file_arg =
    let doc = "Checkpoint file written by `pipesyn run --checkpoint'." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"FILE")
  in
  let run file o =
    drive o @@ fun () ->
    let fail fmt =
      Fmt.kstr (fun s -> Fmt.epr "%s: %s@." file s; exit exit_error) fmt
    in
    let ck =
      match Lp.Checkpoint.read ~path:file with
      | Ok ck -> ck
      | Error e -> fail "%s" e
    in
    let r =
      match Mams.Flow.Request.of_json ck.meta with
      | Ok r -> r
      | Error e ->
          fail
            "checkpoint metadata: %s (was it written by `pipesyn run \
             --checkpoint'?)"
            e
    in
    (match r.method_ with
    | Milp_base | Milp_map -> ()
    | m ->
        fail "checkpoint method %s is not a MILP flow" (Mams.Flow.method_name m));
    let r =
      {
        r with
        time_limit = Option.value ~default:r.time_limit o.time_limit;
        audit = o.audit || r.audit;
        stall_window =
          (match o.stall_window with None -> r.stall_window | s -> s);
      }
    in
    let e, g = load_graph ~optimize:r.optimize r.benchmark in
    Fmt.pr "resuming %s (%s) from %s: %d nodes done, %d open, %.1fs consumed@."
      e.name (Mams.Flow.method_name r.method_) file ck.nodes_done
      (List.length ck.frontier) ck.elapsed_s;
    (* Default to the original run's domain count; --domains overrides
       (resume is domain-count independent for exhaustive solves). *)
    let domains = Option.value ~default:ck.domains o.domains in
    let setup r = { (request_setup ~domains e r) with resume = Some ck } in
    { entry = e; graph = g; requests = [ r ]; setup }
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
          uninterrupted run would have. Takes the same telemetry, \
          checkpoint, fault and budget options as `pipesyn run'. Exit \
          codes as for `pipesyn run'.")
    Term.(const run $ file_arg $ opts_term)

(* ------------------------------------------------------------------ *)
(* cuts                                                                *)
(* ------------------------------------------------------------------ *)

let cuts_cmd =
  let run name k =
    let e, g = load_graph name in
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

(* One flow whose result a command needs to go on. *)
let flow_or_exit setup m g =
  match Mams.Flow.run setup m g with
  | Ok r -> r
  | Error err ->
      Fmt.epr "flow failed: %s@." err;
      exit exit_error

let dot_cmd =
  let out_arg =
    Arg.(value & opt string "cdfg.dot" & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let sched_flag =
    Arg.(value & flag
         & info [ "schedule" ] ~doc:"Cluster nodes by HLS-flow schedule cycle.")
  in
  let run name out schedule time_limit =
    let e, g = load_graph name in
    if schedule then begin
      let r = flow_or_exit (setup_of ~time_limit e) Mams.Flow.Hls_tool g in
      let cycle_of v = r.schedule.cycle.(v) in
      Ir.Dot.write_file ~cycle_of ~path:out g
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
    let e, g = load_graph name in
    let m = Option.value method_ ~default:Mams.Flow.Milp_map in
    let r = flow_or_exit (setup_of ~time_limit e) m g in
    let rtl =
      Rtl.emit ~module_name:(String.lowercase_ascii e.name) g r.cover r.schedule
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
  let static, gated =
    match Mams.Flow.lint setup g with Ok d -> (d, false) | Error d -> (d, true)
  in
  let derived =
    if gated then
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

(* `-b NAME' or `--all', and `--json FILE', for the commands that report
   diagnostics per benchmark. The term gives a function that maps [f]
   over the selected entries and writes the JSON report of the results. *)
let per_entry_term verb =
  let bench =
    let doc = Fmt.str "Benchmark to %s (see `pipesyn list')." verb in
    Arg.(value & opt (some string) None & info [ "b"; "benchmark" ] ~doc)
  in
  let all =
    let doc =
      Fmt.str "%s every registry benchmark." (String.capitalize_ascii verb)
    in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let json =
    let doc = Fmt.str "Write the JSON %s report to $(docv)." verb in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let over name all json f =
    let entries =
      if all then Benchmarks.Registry.all
      else
        match name with
        | Some n -> [ entry_of n ]
        | None ->
            Fmt.epr "specify a benchmark with -b NAME or pass --all@.";
            exit exit_error
    in
    let reports = List.map f entries in
    Option.iter
      (fun path ->
        Analyze.Engine.write_file ~path ~entries:reports;
        Fmt.pr "wrote %s@." path)
      json;
    reports
  in
  Term.(const over $ bench $ all $ json)

let lint_cmd =
  let run over ii k verbose =
    stderr_view verbose;
    Obs.reset ();
    let reports =
      over (fun (e : Benchmarks.Registry.entry) ->
          let diags = lint_entry ~k ~ii e in
          Fmt.pr "== %s: %s ==@." e.name (Analyze.Diag.summary diags);
          if diags <> [] then Fmt.pr "%a@." Analyze.Diag.pp_report diags;
          (e.name, diags))
    in
    let n_errors =
      List.fold_left
        (fun acc (_, ds) -> acc + List.length (Analyze.Diag.errors ds))
        0 reports
    in
    if n_errors > 0 then begin
      Fmt.epr "lint: %d error diagnostic%s@." n_errors
        (if n_errors = 1 then "" else "s");
      exit exit_error
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes (CDFG, pre-flight, LP model, \
          netlist, certificate) over benchmarks; exit 1 on any \
          error-severity diagnostic.")
    Term.(const run $ per_entry_term "lint" $ ii_arg $ k_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* audit                                                               *)
(* ------------------------------------------------------------------ *)

let audit_cmd =
  let run over time_limit ii k domains cuts presolve verbose =
    stderr_view verbose;
    check_domains domains;
    Obs.reset ();
    let failed = ref false in
    ignore
      (over (fun (e : Benchmarks.Registry.entry) ->
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
               match r.solve.audit_diags with
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
                     r.solve.cert_nodes (Analyze.Diag.summary diags);
                   if diags <> [] then
                     Fmt.pr "%a@." Analyze.Diag.pp_report diags;
                   if Analyze.Diag.has_errors diags then failed := true;
                   (e.name, diags))));
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
      const run $ per_entry_term "audit" $ time_limit_arg $ ii_arg $ k_arg
      $ domains_arg $ cuts_flag_arg $ presolve_flag_arg $ verbose_arg)

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
    if markdown then
      Fmt.pr
        "# Diagnostic codes@.@.Every static-analysis pass reports findings \
         under a stable, machine-matchable code. This table is generated \
         from the pass registry (`Analyze.Engine.passes`) by `pipesyn \
         diags --markdown`; do not edit it by hand — `dune runtest` diffs \
         this file against the registry.@.@.";
    List.iter
      (fun (p : Analyze.Engine.pass) ->
        if markdown then
          Fmt.pr "## %s (%s)@.@.%s.@.@.| Code | Description |@.|------|-------------|@."
            p.name p.artifact p.description
        else Fmt.pr "%s (%s): %s@." p.name p.artifact p.description;
        List.iter
          (fun (c, d) ->
            if markdown then Fmt.pr "| %s | %s |@." c d
            else Fmt.pr "  %-9s %s@." c d)
          p.codes;
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
    Fmt.pr "Registered fault points (arm with --faults):@.@.";
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
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let file_arg =
    let doc =
      "A trace written by `pipesyn run --trace' or an NDJSON log written \
       by `--log'."
    in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"FILE")
  in
  let fmt_gap g =
    if Float.is_nan g then "-" else Fmt.str "%.2f%%" (100.0 *. g)
  in
  (* A count with thousands separators: 11778 -> "11,778". *)
  let grouped n =
    let s = string_of_int n in
    let len = String.length s in
    let digit i =
      (if i > 0 && (len - i) mod 3 = 0 then "," else "") ^ String.make 1 s.[i]
    in
    String.concat "" (List.init len digit)
  in
  (* [title], then the [rows] under (title, alignment) columns; nothing
     at all when there are no rows. *)
  let print_table title cols rows =
    if rows <> [] then
      Fmt.pr "%s:@.%s@." title (Report.table ~columns:(columns cols) rows)
  in
  let plural n word = Fmt.str "%d %s%s" n word (if n = 1 then "" else "s") in
  let last k l = List.filteri (fun i _ -> i >= List.length l - k) l in
  let run file =
    let doc = read_json ~ndjson:true ~code:exit_error file in
    match Obs.Trace.Analysis.analyze doc with
    | Error e ->
        Fmt.epr "%s: %s@." file e;
        exit exit_error
    | Ok r ->
        let open Obs.Trace.Analysis in
        let is_log = match doc with Obs.Json.List _ -> true | _ -> false in
        Fmt.pr "%s: %s, %d events (%d spans, %d instants), %s@.@." file
          (if is_log then "log" else "trace")
          r.r_events r.r_spans r.r_instants (plural r.r_flows "finished flow");
        print_table "Phase breakdown (by total time)"
          [ ("Span", Left); ("Cat", Left); ("Count", Right);
            ("Total s", Right); ("Max s", Right) ]
          (List.filteri (fun i _ -> i < 12) r.r_phases
          |> List.map (fun s ->
                 [ s.sp_name; s.sp_cat; string_of_int s.sp_count;
                   Fmt.str "%.4f" s.sp_total; Fmt.str "%.4f" s.sp_max ]));
        Option.iter
          (fun t ->
            let share n = 100.0 *. float_of_int n /. float_of_int t.tr_nodes in
            Fmt.pr "B&B tree: %s nodes, max depth %d, %s warm / %s cold@."
              (grouped t.tr_nodes) t.tr_max_depth (grouped t.tr_warm)
              (grouped (t.tr_nodes - t.tr_warm));
            Fmt.pr "  per-domain utilization: %s@."
              (String.concat ", "
                 (List.map
                    (fun (d, n) ->
                      Fmt.str "domain %d: %s nodes (%.0f%%)" d (grouped n) (share n))
                    t.tr_domains));
            Fmt.pr "  node LP statuses: %s@.@."
              (String.concat ", "
                 (List.map (fun (s, n) -> Fmt.str "%s %d" s n) t.tr_statuses)))
          r.r_tree;
        (* Traces written before schema v8 carry no milp.cut_round
           instants; the line is simply omitted. *)
        Option.iter
          (fun c ->
            Fmt.pr "Root cuts: %s, %s applied%s@.@." (plural c.cu_rounds "round")
              (plural c.cu_cuts "cut")
              (if Float.is_nan c.cu_bound0 || Float.is_nan c.cu_bound
                  || Float.abs c.cu_bound0 < 1e-12
               then ""
               else
                 Fmt.str " (root bound %.6g -> %.6g in the last solve)" c.cu_bound0
                   c.cu_bound))
          r.r_cuts;
        let n = List.length r.r_timeline in
        print_table
          (if n > 10 then Fmt.str "Incumbent/gap timeline (last 10 of %d)" n
           else "Incumbent/gap timeline")
          [ ("t (s)", Right); ("Objective", Right); ("Gap", Right) ]
          (List.map
             (fun p ->
               [ Fmt.str "%.4f" p.gp_ts; Fmt.str "%.6g" p.gp_obj; fmt_gap p.gp_gap ])
             (last 10 r.r_timeline));
        let st = r.r_stop in
        if st.st_status <> None || st.st_solve <> None then
          Fmt.pr "Stop: %s%s%s@."
            (Option.value st.st_status ~default:"solve ended")
            (match st.st_solve with
            | None -> ""
            | Some s ->
                Fmt.str " after %s nodes, %s pivots, %.2f s, gap %s"
                  (grouped s.sv_nodes) (grouped s.sv_pivots) s.sv_elapsed
                  (fmt_gap s.sv_gap))
            (if not (Float.is_nan st.st_last_incumbent) then
               Fmt.str "; incumbent last improved at %.2f s" st.st_last_incumbent
             else if st.st_solve <> None then "; no incumbent"
             else "");
        if st.st_degraded <> [] then
          Fmt.pr "  degraded: %s@."
            (String.concat ", "
               (List.map (fun (a, why) -> Fmt.str "%s (%s)" a why) st.st_degraded));
        if r.r_samples > 0 then
          Fmt.pr "Resources: %s%s%s@." (plural r.r_samples "probe sample")
            (if r.r_peak_heap_words > 0.0 then
               Fmt.str ", peak heap %.1f MiB" (r.r_peak_heap_words *. 8.0 /. 1048576.0)
             else "")
            (if r.r_peak_rss_kb > 0.0 then
               Fmt.str ", peak RSS %.1f MiB" (r.r_peak_rss_kb /. 1024.0)
             else "");
        List.iter (fun e -> Fmt.pr "well-formedness: %s@." e) r.r_errors;
        Fmt.pr "spans: %d, well-formedness errors: %d@." r.r_spans
          (List.length r.r_errors);
        (* A malformed file, or a trace with no spans, fails the report —
           CI leans on this as its validity gate. A log has no spans. *)
        if r.r_errors <> [] || (r.r_spans = 0 && not is_log) then exit exit_error
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a run from its trace (`pipesyn run --trace') or its NDJSON \
          log (`--log'): phase breakdown (trace only), branch-and-bound tree \
          shape, root cuts, incumbent/gap timeline, why and when the last \
          flow stopped, probe resource peaks, and well-formedness checks. \
          Times are seconds since the recording started. Exits 1 on any \
          well-formedness violation or on a trace with no spans.")
    Term.(const run $ file_arg)

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
  let threshold name ~docv default doc =
    Arg.(value & opt float default & info [ name ] ~doc ~docv)
  in
  let time_rel_arg =
    threshold "time-rel" ~docv:"FRAC" d.time_rel
      "Relative solve-time increase that flags a regression (fraction)."
  in
  let time_floor_arg =
    threshold "time-floor" ~docv:"SECS" d.time_floor_s
      "Absolute seconds below which solve-time deltas are ignored (both \
       sides sub-floor = machine noise)."
  in
  let count_rel_arg =
    threshold "count-rel" ~docv:"FRAC" d.count_rel
      "Relative node/pivot-count increase that flags a regression \
       (fraction; only compared between two optimal solves)."
  in
  let gap_abs_arg =
    threshold "gap-abs" ~docv:"FRAC" d.gap_abs
      "Absolute decrease of root-gap closure that flags a regression."
  in
  let report_arg =
    let doc = "Write the machine-readable diff report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"REPORT")
  in
  (* bench-diff's own code for an unreadable file or schema mismatch. *)
  let exit_unreadable = 3 in
  let run old_p new_p time_rel time_floor_s count_rel gap_abs report =
    let thresholds =
      { Benchdiff.time_rel; time_floor_s; count_rel; gap_abs }
    in
    let load = read_json ~code:exit_unreadable in
    match Benchdiff.diff ~thresholds (load old_p) (load new_p) with
    | Error e ->
        Fmt.epr "bench-diff: %s@." e;
        exit exit_unreadable
    | Ok r ->
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc ->
                Obs.Json.to_channel oc (Benchdiff.report_to_json r));
            Fmt.pr "wrote %s@." path)
          report;
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
             lint_cmd; audit_cmd; diags_cmd; faults_cmd; explain_cmd;
             bench_diff_cmd;
           ])
    with e ->
      Fmt.epr "pipesyn: internal error: %s@." (Printexc.to_string e);
      exit_internal
  in
  exit code
