(** Instrumentation and structured-metrics layer.

    Every hot path of the synthesis flow — cut enumeration
    ({!Cuts.enumerate}), the branch-and-bound MILP ({!Lp.Milp.solve}), the
    frontend simplifier ({!Opt.simplify}) and downstream technology mapping
    ({!Techmap.map_schedule}) — reports what it did through this module:
    monotonic {!Counter}s, phases timed by {!span}, and point events sent
    through {!emit}. All state lives in one process-global registry so a
    driver can {!reset}, run a flow, and {!snapshot} what happened without
    threading a context object through every call site.

    Instrumentation is {e additive}: it never influences a schedule, cover
    or solver decision (verified by [test/test_obs.ml], which checks QoR is
    byte-identical across repeated instrumented runs). Timings use
    {!Clock.wall} — a monotonized wall clock, the same clock solver
    deadlines use — so multi-domain runs report real elapsed time rather
    than summed CPU seconds; {!Clock.cpu} is still available where CPU
    burn is the quantity of interest.

    {!Json} is a deliberately tiny hand-rolled JSON tree (emitter and a
    minimal parser for round-trip checks); {!Trace} records hierarchical
    spans with Chrome [trace_event] export (Perfetto); {!Metrics} is the
    stable per-benchmark record serialized by [pipesyn --json] and the
    bench harness's [BENCH_results.json]. The schema is documented in
    README.md ("Observability").

    There is one call per kind of record. A phase is timed by {!span}:
    its per-name wall total lands in {!snapshot}, and while tracing is on
    it is also a trace span. A point event is sent by {!emit} and stored
    once: the trace, the NDJSON {!Log} and (through the log's sink) the
    CLI's stderr lines and [--progress] line are views of that one
    stream, and a trajectory (incumbents, probe samples) lives only
    there. *)

(** {1 Clocks} *)

(** The repo's two clocks. Before resilience-v2 every timestamp and
    deadline used [Sys.time] (per-process CPU seconds); that clock
    accumulates across OCaml 5 domains, so a [--domains 4] busy solve
    burned a deadline ~4x faster than wall clock. Deadlines, trace
    timestamps and throughput now use {!wall}; CPU seconds remain a
    separately reported metric ([Milp.stats.cpu_s]). *)
module Clock : sig
  val wall : unit -> float
  (** Wall-clock seconds since the Unix epoch, monotonized: reads go
      through a process-global CAS-max cell, so successive calls (from
      any domain) never go backwards even if the system clock steps. *)

  val cpu : unit -> float
  (** [Sys.time] — CPU seconds consumed by the whole process, summed
      across domains. *)
end

(** {1 Counters} *)

(** Named monotonic event counters (cuts enumerated, B&B nodes, …).

    Counters are created once (per name) in a global registry and bumped
    from hot loops; reading and resetting are driver-side operations.
    {!Counter.incr} is an atomic fetch-and-add, so counters may be
    bumped concurrently from B&B worker domains without losing
    updates. *)
module Counter : sig
  type t

  val get : string -> t
  (** [get name] returns the counter registered under [name], creating it
      at zero on first use. Names are dot-separated by convention
      ([subsystem.event], e.g. ["milp.nodes"]). *)

  val incr : ?by:int -> t -> unit
  (** Adds [by] (default 1) to the counter. *)

  val value : t -> int
  (** Current count since the last {!reset}. *)

  val name : t -> string
end

(** {1 Registry} *)

val reset : unit -> unit
(** Zeroes every counter and {!span} total (the registry keeps the
    names) and forgets the probe's last incumbent. Drivers call this
    between benchmarks so snapshots are per-run. Trace and log events
    are left alone. *)

val counters : unit -> (string * int) list
(** All counters with non-zero values, sorted by name. *)

val snapshot : unit -> (string * float) list
(** Counters and {!span} totals merged into one sorted [(name, value)]
    list — counters as floats, each span name suffixed with [".s"] and
    carrying its wall seconds. Names with a zero value are left out. The
    flat form embedded under ["obs"] in the JSON output. *)

(** {1 JSON} *)

(** Minimal JSON tree: hand-rolled emitter (no external dependency) plus a
    small parser used by tests and CI to check that emitted files are
    well-formed and round-trip. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float  (** non-finite floats are emitted as [null] *)
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact single-line rendering (RFC 8259 string escaping). *)

  val to_channel : out_channel -> t -> unit
  (** {!to_string} followed by a newline. *)

  val of_string : string -> (t, string) result
  (** Minimal recursive-descent parser for the subset {!to_string} emits
      (numbers are parsed with OCaml's [float_of_string]; no unicode
      escapes beyond [\uXXXX] pass-through). Not a general-purpose JSON
      reader — it exists so the metrics files can be validated without a
      yojson dependency. *)

  val member : string -> t -> t option
  (** [member key (Obj _)] looks up [key]; [None] on other constructors. *)

  val number : t -> float option
  (** [Float] or [Int] as a float; [None] on other constructors. *)
end

(** {1 Structured tracing and the event log} *)

(** Every {!emit}, and every trace span begin and end, is recorded once
    in one process-global event store: one lock, one {!Clock.wall}
    reading and one stored event per record, so the views agree on
    order. {!Trace} and {!Log} are two views of that store. The trace
    takes every event; the log takes the {!emit} events at or above its
    level. Each view has its own epoch (its timestamps count from its
    [enable]), cap, drop count and lifecycle: one view's [enable],
    [clear] or [disable] leaves the other's events alone.

    Both views keep one discipline. They are {b off by default}: with
    every view off an emission site pays one load and one compare. They
    are bounded: once a view holds its cap of events ([PIPESYN_TRACE_CAP]
    or [PIPESYN_LOG_CAP], read at [enable], at least 16) it drops new
    events deterministically and counts them. They are strictly
    observational: recording never influences a schedule, cover or
    solver decision (pinned by [test/test_trace.ml] and the
    telemetry-neutrality tests, which check results are byte-identical
    with every view on and off across the fault-injection matrix).
    Events may be emitted from any domain, and the views' lifecycle is
    independent of {!reset}. *)

(** Hierarchical spans and typed instant events, exported as Chrome
    [trace_event] JSON (loadable in Perfetto / [chrome://tracing]) or a
    compact native form. The end of a span whose begin {e was} recorded
    is always kept (the view may exceed its cap by at most the open-span
    depth), so exported traces stay well-formed.

    An {!emit}'s [tid] becomes the Chrome/Perfetto thread lane, so the
    parallel B&B pool renders one row per worker domain. Span
    open/close ({!Trace.begin_span} / {!Trace.end_span}, and so the
    trace half of {!span}) keeps a single global stack and must only be
    used from the coordinating domain. *)
module Trace : sig
  val default_cap : int
  (** Event cap when [PIPESYN_TRACE_CAP] is unset (1_000_000). *)

  val enabled : unit -> bool
  (** Whether events are currently being recorded. Event sites guard
      on {!Obs.recording} instead, which also covers the log. *)

  val enable : ?cap:int -> unit -> unit
  (** Clears the view, sets its timestamp epoch to now, and starts
      recording. [cap] overrides the environment/default event cap
      (clamped to at least 16). *)

  val disable : unit -> unit
  (** Stops recording. Recorded spans still open are closed at the
      current timestamp so the view stays well-formed; its events are
      kept for export. *)

  val clear : unit -> unit
  (** Drops the view's events, drop count and open-span state (keeps
      the enabled/disabled state). *)

  val begin_span : ?cat:string -> ?args:(string * Json.t) list -> string -> unit
  (** [begin_span ~cat ~args name] opens a span; its parent is the
      innermost span still open (Chrome's B/E nesting). [cat] defaults
      to ["app"]; categories in this repo are ["flow"], ["cascade"],
      ["cuts"], ["milp"], ["simplex"], ["techmap"], ["analyze"], ["opt"]
      (DESIGN.md maps them to paper phases). No-op when disabled. Code
      times a phase with {!Obs.span}, which calls this. *)

  val end_span : unit -> unit
  (** Closes the innermost open span. No-op when disabled or when no
      span is open. *)

  val num_events : unit -> int
  (** Events the view holds. *)

  val dropped : unit -> int
  (** Events dropped at the cap since the last {!enable}/{!clear}. *)

  val export_chrome : unit -> Json.t
  (** The view as a Chrome [trace_event] document:
      [{"traceEvents": [{name, cat, ph, ts, pid, tid, args?}, …],
      "displayTimeUnit": "ms"}] with [ts] in microseconds. Spans still
      open get synthesized closing events at the current timestamp
      (without touching the store). *)

  val export_native : unit -> Json.t
  (** Compact native form: [{"schema": "pipesyn-trace-v1", "clock":
      "wall-s", "dropped": n, "events": […]}] with [ts_s] in seconds. *)

  val write_chrome : path:string -> unit
  (** Writes {!export_chrome} to [path] (truncating) — the file behind
      [pipesyn run --trace FILE]. *)

  val summary : unit -> Json.t
  (** Headline numbers folded into Metrics files (schema v4): span /
      instant / drop counts, max nesting depth, first-incumbent time and
      the incumbent-gap trajectory extracted from ["milp.incumbent"]
      events. *)

  (** Offline analysis of a parsed Chrome trace document — the engine
      behind [pipesyn trace-report] and the well-formedness checks in
      the test suite. *)
  module Analysis : sig
    type span_stat = {
      sp_name : string;
      sp_cat : string;
      sp_count : int;
      sp_total : float;  (** summed durations, seconds *)
      sp_max : float;  (** longest single span, seconds *)
    }

    type slow_span = {
      sl_name : string;
      sl_cat : string;
      sl_start : float;  (** seconds from trace start *)
      sl_dur : float;  (** seconds *)
    }

    type tree_stats = {
      tr_nodes : int;  (** B&B nodes (["milp.node"] instants) *)
      tr_max_depth : int;
      tr_warm : int;  (** nodes whose LP resolve reused the parent basis *)
      tr_statuses : (string * int) list;  (** node LP status histogram *)
      tr_domains : (int * int) list;
          (** nodes processed per domain id (from the ["domain"] arg of
              ["milp.node"] instants; pre-parallel traces collapse to
              [[(0, tr_nodes)]]), sorted by domain id *)
    }

    type gap_point = {
      gp_ts : float;
      gp_obj : float;
      gp_gap : float;  (** relative incumbent/bound gap; nan if unknown *)
    }

    type cut_stats = {
      cu_rounds : int;  (** root separation rounds (["milp.cut_round"]) *)
      cu_cuts : int;  (** cuts applied across all rounds *)
      cu_bound0 : float;  (** root LP bound before any cuts; nan if absent *)
      cu_bound : float;  (** bound after the last recorded round *)
    }

    type report = {
      r_events : int;
      r_spans : int;
      r_instants : int;
      r_errors : string list;
          (** well-formedness violations: an [E] with no open span or
              closing the wrong span, timestamps going backwards, spans
              never closed. Empty for every trace this repo emits. *)
      r_phases : span_stat list;  (** sorted by total time, descending *)
      r_slowest : slow_span list;  (** top-[top] spans by duration *)
      r_tree : tree_stats option;  (** [None] if no ["milp.node"] events *)
      r_timeline : gap_point list;  (** incumbent updates in trace order *)
      r_cuts : cut_stats option;
          (** [None] when the trace has no ["milp.cut_round"] instants —
              pre-v8 traces, heuristic flows, or cuts-off runs *)
    }

    val analyze : ?top:int -> Json.t -> (report, string) result
    (** Validates and aggregates a Chrome trace document ([top], default
        10, bounds [r_slowest]). [Error] only when the document is not a
        trace at all; per-event violations land in [r_errors]. *)
  end
end

(** Leveled structured event stream — the narrative companion to
    {!Trace}. Where Trace records nested spans for timing analysis, Log
    keeps the flat ordered stream of the {!emit} events at or above its
    level (flow phase transitions, cascade retries/degradations, MILP
    incumbents, cut rounds, checkpoints, recoveries, stalls, probe
    samples) serialized as NDJSON: one JSON object per line, framed by a
    header line naming the schema ([pipesyn-log-v1]) and a [log.end]
    footer carrying the event and drop counts. Behind [pipesyn run --log
    FILE] and the [PIPESYN_LOG] environment variable; the [--progress]
    TTY status line and the CLI's stderr lines render from the same
    stream via {!Log.set_sink}. *)
module Log : sig
  type level = Debug | Info | Warn | Error

  type event = {
    l_ts : float;  (** seconds since {!enable}, wall clock *)
    l_level : level;
    l_name : string;  (** dot-separated, e.g. ["milp.incumbent"] *)
    l_args : (string * Json.t) list;
  }

  val schema : string
  (** ["pipesyn-log-v1"], the header line's schema tag. *)

  val default_cap : int
  (** Event cap when [PIPESYN_LOG_CAP] is unset (200_000). *)

  val level_name : level -> string
  (** ["debug"], ["info"], ["warn"], ["error"]. *)

  val level_of_string : string -> level option
  (** Inverse of {!level_name} (case-insensitive; accepts
      ["warning"]). *)

  val enabled : unit -> bool
  (** Whether events are currently being recorded. *)

  val enable : ?cap:int -> ?level:level -> unit -> unit
  (** Clears the view, sets its timestamp epoch to now, and starts
      recording events at or above [level] (default [Info]). [cap]
      overrides the environment/default cap (clamped to at least
      16). *)

  val disable : unit -> unit
  (** Stops recording; the view's events are kept for {!write}. *)

  val clear : unit -> unit
  (** Drops the view's events and drop count (keeps the
      enabled/disabled state). *)

  val set_sink : (event -> unit) option -> unit
  (** Installs (or removes) a live observer called once with each event
      the log accepts (passes the level filter; events dropped at the
      cap included), outside the store's lock — the CLI's stderr and
      [--progress] view. Sink exceptions are swallowed. *)

  val num_events : unit -> int
  (** Events the view holds. *)

  val dropped : unit -> int
  (** Events dropped at the cap since the last {!enable}/{!clear}. *)

  val to_lines : unit -> Json.t list
  (** The NDJSON document as a list of per-line JSON objects: header,
      one object per event ([{"t": …, "level": …, "ev": …,
      "args": {…}?}]), and the [log.end] footer. *)

  val write : path:string -> unit
  (** Writes {!to_lines} to [path], one compact JSON object per line
      (truncating). *)
end

(** {1 Event emission} *)

val recording : ?level:Log.level -> unit -> bool
(** Whether an event at [level] (default [Info]) would reach a sink:
    tracing is on, or the log is on at or below [level]. One load and
    compare — sites check it before building an argument list. *)

val emit :
  ?level:Log.level -> ?cat:string -> ?tid:int -> string ->
  (string * Json.t) list -> unit
(** [emit name args] stores one event, taken as a trace instant
    (category [cat], default ["app"]) while tracing is on, at any level,
    and as a log event when the log is on at or below [level] (default
    [Info]). With both views on it takes one lock, reads {!Clock.wall}
    once and stores the event once; with every view off it takes no lock
    and reads no clock. [tid]
    (default 1, the coordinator lane) is the trace thread lane; B&B
    worker slot [w] passes [w + 1]. Safe from any domain. *)

val span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()], adds its wall-clock duration to [name]'s
    total (reported as [<name>.s] by {!snapshot}, zeroed by {!reset}),
    and returns (or re-raises) [f]'s outcome. While tracing is on it
    also records a B/E pair ({!Trace.begin_span} with [cat] and [args],
    then {!Trace.end_span}); the totals accrue whether or not tracing
    is on.

    Nesting-safe per name: a span entered while another span of the
    {e same} name is open does not add its interval again — only the
    outermost exit accumulates, so recursion cannot double-count wall
    time. The total is safe to update from any domain, but the trace
    half follows {!Trace}'s rule: open spans only on the coordinating
    domain. *)

(** {1 Resource probe} *)

(** Background resource sampler on its own domain. Every period it
    snapshots [Gc.quick_stat] (minor/major allocated words, heap words,
    compactions), the peak RSS, the live solver counters
    ([milp.bnb_nodes], [milp.lp_pivots]) and the current
    incumbent/gap, and derives global and per-worker-domain node rates
    — all carried by one ["probe.sample"] {!emit} ([Info], lane 999)
    whose args are [heap_words], [rss_kb], [minor_words],
    [major_words], [compactions], [nodes], [pivots], [nodes_per_s],
    [pivots_per_s], [domain_nodes_per_s] (an object keyed ["d<wid>"]),
    [gap] and [incumbent].

    Off by default: {!Probe.start} without an explicit period reads
    [PIPESYN_PROBE_MS] and does nothing when it is unset. The probe is
    strictly read-only with respect to the solver — it reads atomics
    and registry snapshots and writes only into the observability
    layer, so solver results are byte-identical probe-on vs probe-off
    (pinned by the telemetry-neutrality tests). *)
module Probe : sig
  val start : ?period_ms:int -> unit -> bool
  (** Starts the sampler domain with the given period (milliseconds,
      clamped to at least 1), or with [PIPESYN_PROBE_MS] when
      [period_ms] is omitted (that variable must parse to at least 1,
      else the probe stays off). Returns whether a probe is now running
      ([false] only when [period_ms] is omitted and no period is
      configured). Idempotent while running. *)

  val stop : unit -> unit
  (** Signals the sampler and joins its domain (returns within one
      ~20 ms sleep slice). No-op when not running. *)

  val running : unit -> bool

  val samples : unit -> int
  (** Samples taken since the last {!start}. *)

  val note_incumbent : objective:float -> gap:float -> unit
  (** Records the latest incumbent for the next sample's [incumbent]
      and [gap] args. Called by the solver wherever it emits
      ["milp.incumbent"]; {!reset} clears it back to nan. *)

  val peak_rss_kb : unit -> int option
  (** Peak resident set size (VmHWM) in kB from [/proc/self/status];
      [None] on platforms without procfs. *)
end

(** {1 Structured metrics} *)

(** The stable per-(benchmark, method) record behind [pipesyn --json] and
    [BENCH_results.json] — the repository's perf-trajectory unit. *)
module Metrics : sig
  type t = {
    name : string;  (** benchmark name, e.g. ["GFMUL"] *)
    method_ : string;  (** flow name as printed by {!Mams.Flow.method_name} *)
    lut : int;  (** LUTs used (QoR model) *)
    ff : int;  (** flip-flop bits used (QoR model) *)
    slack : float;  (** [t_clk - achieved CP], ns (negative = violated) *)
    solve_s : float option;
        (** MILP wall seconds; [None] (JSON [null]) for methods that
            never entered the MILP — heuristic flows and hard errors
            (schema v9; pre-v9 files wrote 0.0 there, which {!of_json}
            normalizes back to [None]) *)
    bnb_nodes : int option;
        (** branch-and-bound nodes explored; [None] when the method
            never entered the MILP. A real solve always explores at
            least the root node, so the legacy 0 encoding reads back
            unambiguously as [None] (schema v9) *)
    lp_pivots : int option;
        (** simplex pivots across all of the solve's LPs
            ([Milp.stats.lp_iterations], this-run-only on resume);
            [None] when the method never entered the MILP or for pre-v9
            files (schema v9) *)
    cuts_total : int;  (** cuts enumerated for the run's cut sets *)
    first_incumbent_s : float;
        (** seconds into the MILP solve when the first incumbent
            (including a seeded warm-start incumbent) appeared; nan for
            heuristic flows or when the solver found none (schema v4;
            absent fields read back as nan from older files) *)
    final_gap : float;
        (** relative incumbent/bound gap at solver exit ([Milp.stats.gap]);
            nan for heuristic flows (schema v4) *)
    status : string;
        (** MILP exit status, ["heuristic"] for solver-free flows, or
            ["error"] for failed runs *)
    objective : float;
        (** MILP objective value of the reported solution
            ([alpha·LUT + beta·FF] for the paper formulations); nan for
            heuristic flows (schema v5). The cross-domain-count
            determinism check in CI compares this field. *)
    domains : int;
        (** B&B worker-domain count the solve ran with (1 = a one-worker
            pool; schema v5, absent fields read back as 1 from older
            files) *)
    nodes_per_s : float;
        (** B&B node throughput [bnb_nodes / solve_s]; nan for heuristic
            flows or unmeasurably fast solves (schema v5) *)
    cert_nodes : int;
        (** node count of the solve's proof-carrying certificate
            ({!Lp.Cert.t}); 0 when the solve carried none — heuristic
            flows or certificates off (schema v6) *)
    audit_errors : int option;
        (** error findings from the exact-rational certificate audit
            ([Analyze.Audit]); [None] when the audit did not run —
            serialized as JSON [null] since schema v8 (v6/v7 wrote the
            sentinel -1, which reads back as [None]; the CI audit gate
            requires [Some 0] here) *)
    milp_cuts : int;
        (** cutting planes active in the MILP solve
            ([Milp.stats.cuts_applied]): root-separated this run or
            re-installed from a resumed checkpoint; 0 for heuristic
            flows or cuts-off runs (schema v8) *)
    gap_closed_root : float;
        (** fraction of the root gap closed by the root cut rounds
            ([Milp.stats.gap_closed_root]); nan when not applicable —
            heuristic flow, cuts off, no incumbent, or resumed solve
            (schema v8) *)
    checkpoints : int;
        (** frontier snapshots written during the solve
            ([Milp.stats.checkpoints]); 0 when checkpointing was off
            (schema v7) *)
    recoveries : int;
        (** leased B&B subtrees re-enqueued after a worker death or a
            watchdog cancel-and-requeue ([Milp.stats.recoveries]); 0 for
            undisturbed solves (schema v7) *)
    stalls : int;
        (** stall-watchdog escalations — refactorization nudges plus
            cancel-and-requeues ([Milp.stats.stalls]) — during the solve
            (schema v7) *)
    gc_minor_words : float;
        (** GC minor-heap words allocated across this result's flow run
            ([Gc.quick_stat] delta bracketing the run); 0.0 for pre-v9
            files (schema v9) *)
    gc_major_words : float;
        (** GC major-heap words allocated across this result's flow run;
            0.0 for pre-v9 files (schema v9) *)
    diagnostics : Json.t list;
        (** static-analysis findings from the run's lint gate, one
            {!Analyze.Diag.to_json} object each (schema v2; absent fields
            read back as [[]] from v1 files) *)
    degradation : Json.t list;
        (** the run's degradation trail, one
            {!Resilience.Cascade.attempt_to_json} object per failed or
            degraded attempt, empty for a clean full-strength run
            (schema v3; absent fields read back as [[]] from v1/v2
            files) *)
  }

  val schema_version : int
  (** Bumped whenever a field is added/renamed; emitted at the top level of
      every metrics file. Version history: 1 = the original flat record;
      2 = adds the [diagnostics] array; 3 = adds the [degradation]
      array; 4 = adds per-result [first_incumbent_s]/[final_gap] and the
      file-level ["trace"] summary object; 5 = adds per-result
      [objective]/[domains]/[nodes_per_s] for the parallel B&B
      determinism and throughput checks; 6 = adds per-result
      [cert_nodes]/[audit_errors] for the proof-carrying certificate
      audit; 7 = adds per-result [checkpoints]/[recoveries]/[stalls] for
      solve supervision, and switches every timestamp from CPU seconds
      to the monotonic wall clock; 8 = adds per-result
      [milp_cuts]/[gap_closed_root] for the root cutting planes, and
      replaces the [audit_errors] -1 sentinel with JSON [null]; 9 =
      [solve_s]/[bnb_nodes] become nullable (null = never entered the
      MILP, replacing the ambiguous 0.0/0 encoding), adds per-result
      [lp_pivots]/[gc_minor_words]/[gc_major_words] and the file-level
      ["resources"] object (process GC totals, top heap, peak RSS,
      probe sample count). *)

  val to_json : t -> Json.t
  (** One flat object: [{"name": …, "method": …, "lut": …, "ff": …,
      "slack": …, "solve_s": …, "bnb_nodes": …, "cuts_total": …,
      "first_incumbent_s": …, "final_gap": …, "status": …,
      "objective": …, "domains": …, "nodes_per_s": …,
      "diagnostics": […], "degradation": […]}]. *)

  val of_json : Json.t -> (t, string) result
  (** Inverse of {!to_json} (round-trip checks). *)

  val resources : unit -> Json.t
  (** The file-level ["resources"] object, captured at call time:
      process-lifetime GC totals ([gc_minor_words],
      [gc_promoted_words], [gc_major_words], [gc_compactions]), the
      current and top heap ([heap_words], [top_heap_words]), the peak
      RSS ([peak_rss_kb], [null] off-Linux) and [probe_samples]
      ({!Probe.samples}). *)

  val file : results:t list -> Json.t
  (** The emitted file shape: [{"schema_version": …, "obs": {flat
      snapshot}, "resources": {…}, "trace": {summary},
      "results": […]}] — [obs] carries the {!snapshot}, [resources]
      the {!resources} object and [trace] the {!Trace.summary} at
      emission time. *)

  val write_file : path:string -> results:t list -> unit
  (** Writes {!file} to [path] (truncating). *)
end
