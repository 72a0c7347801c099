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
    spans with Chrome [trace_event] export (Perfetto), and
    {!Trace.Analysis} reads either export back; {!Metrics} wraps the
    per-run result rows into the file written by [pipesyn --json] and
    the bench harness's [BENCH_results.json]. The schema is documented
    in README.md ("Observability").

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
    are bounded: once a view holds its cap of events (1,000,000 for the
    trace and 200,000 for the log unless [enable ~cap] says otherwise)
    it drops new events deterministically and counts them. They are
    strictly observational: recording never influences a schedule,
    cover or solver decision (pinned by [test/test_trace.ml] and the
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
  val enabled : unit -> bool
  (** Whether events are currently being recorded. Event sites guard
      on {!Obs.recording} instead, which also covers the log. *)

  val enable : ?cap:int -> unit -> unit
  (** Clears the view, sets its timestamp epoch to now, and starts
      recording. [cap] overrides the default cap of 1,000,000 events
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
  (** The [trace] object of Metrics files (schema v4): the view's
      [enabled] flag and drop count, and from {!Analysis.analyze} of
      {!export_chrome} the event, span and instant counts, the deepest
      recorded span nesting, the first-incumbent time and the
      incumbent-gap trajectory. *)

  (** The one reader of recorded events — behind [pipesyn explain], the
      {!summary} and the well-formedness checks in the test suite. *)
  module Analysis : sig
    type span_stat = {
      sp_name : string;
      sp_cat : string;
      sp_count : int;
      sp_total : float;  (** summed durations, seconds *)
      sp_max : float;  (** longest single span, seconds *)
    }

    type tree_stats = {
      tr_nodes : int;  (** B&B nodes (["milp.node"] instants) *)
      tr_max_depth : int;
      tr_warm : int;  (** nodes whose LP resolve reused the parent basis *)
      tr_statuses : (string * int) list;  (** node LP status histogram *)
      tr_domains : (int * int) list;
          (** nodes per ["domain"] arg (0 when absent), sorted by id *)
    }

    type gap_point = {
      gp_ts : float;  (** seconds since the recording started *)
      gp_obj : float;
      gp_gap : float;  (** relative incumbent/bound gap; nan if unknown *)
    }

    type cut_stats = {
      cu_rounds : int;  (** root separation rounds (["milp.cut_round"]) *)
      cu_cuts : int;  (** cuts applied across all rounds *)
      cu_bound0 : float;  (** the last solve's root LP bound before cuts *)
      cu_bound : float;  (** the bound after the last recorded round *)
    }

    type solve = { sv_nodes : int; sv_pivots : int; sv_gap : float; sv_elapsed : float }
    (** A ["milp.done"] event's [nodes], [pivots], [gap], [elapsed_s]. *)

    type stop = {
      st_status : string option;
          (** [status] of the ["flow.phase"] [done] event *)
      st_solve : solve option;  (** the last ["milp.done"] *)
      st_last_incumbent : float;
          (** time of the last ["milp.incumbent"]; nan without one *)
      st_degraded : (string * string) list;
          (** (attempt, reason) of each ["cascade.degraded"] rung *)
    }
    (** Why and when the last flow run stopped, from its events (those
        after the last ["flow.phase"] [run]); the MILP solves recorded
        after that flow finished, if any, replace it. *)

    type report = {
      r_events : int;
      r_spans : int;
      r_instants : int;
      r_depth : int;  (** deepest span nesting *)
      r_errors : string list;
          (** well-formedness violations (none in any file this repo
              writes): an [E] with no open span or closing the wrong one,
              a span never closed, a timestamp going backwards, a
              ["probe.sample"] without [heap_words], [nodes_per_s], [gap]
              or [incumbent]; a log's header schema other than
              [pipesyn-log-v1], or no [log.end] footer counting its events. *)
      r_phases : span_stat list;  (** sorted by total time, descending *)
      r_tree : tree_stats option;  (** [None] if no ["milp.node"] events *)
      r_timeline : gap_point list;  (** incumbent updates in order *)
      r_cuts : cut_stats option;
          (** [None] without ["milp.cut_round"] instants — pre-v8
              traces, heuristic flows, or cuts-off runs *)
      r_samples : int;  (** ["probe.sample"] events *)
      r_peak_heap_words : float;  (** nan without a sample *)
      r_peak_rss_kb : float;  (** nan without a sample that has it *)
      r_flows : int;  (** finished flow runs (["flow.phase"] [done]) *)
      r_stop : stop;
    }

    val analyze : Json.t -> (report, string) result
    (** Validates and aggregates a Chrome trace document ({!export_chrome})
        or a log as the list of its NDJSON lines ({!Log.to_lines}), whose
        event lines are read as instants. [Error] only when the value is
        neither; per-event violations land in [r_errors]. *)
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
    FILE] and the bench harness's [PIPESYN_LOG]; the [--progress]
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

  val level_name : level -> string
  (** ["debug"], ["info"], ["warn"], ["error"]. *)

  val enabled : unit -> bool
  (** Whether events are currently being recorded. *)

  val enable : ?cap:int -> ?level:level -> unit -> unit
  (** Clears the view, sets its timestamp epoch to now, and starts
      recording events at or above [level] (default [Info]). [cap]
      overrides the default cap of 200,000 events (clamped to at least
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

    Off until {!Probe.start}; [pipesyn] and the bench harness start it
    when [PIPESYN_PROBE_MS] is set. The probe is strictly read-only
    with respect to the solver — it reads atomics and registry
    snapshots and writes only into the observability layer, so solver
    results are byte-identical probe-on vs probe-off (pinned by the
    telemetry-neutrality tests). *)
module Probe : sig
  val start : period_ms:int -> unit
  (** Starts the sampler domain with the given period (milliseconds,
      clamped to at least 1). Idempotent while running. *)

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

(** The metrics file behind [pipesyn --json] and [BENCH_results.json] —
    the repository's perf-trajectory unit. Its [results] rows are
    written by [Mams.Flow.metrics]; README.md ("Observability") lists
    their keys and the schema's version history. *)
module Metrics : sig
  val schema_version : int
  (** Bumped whenever a result key is added or renamed, or a value's
      encoding changes; emitted at the top level of every metrics
      file. *)

  val resources : unit -> Json.t
  (** The file-level ["resources"] object, captured at call time after
      one minor collection (so [gc_minor_words] counts every domain's
      allocation exactly): process-lifetime GC totals ([gc_minor_words],
      [gc_promoted_words], [gc_major_words], [gc_compactions]), the
      current and top heap ([heap_words], [top_heap_words]), the peak
      RSS ([peak_rss_kb], [null] off-Linux) and [probe_samples]
      ({!Probe.samples}). *)

  val file : results:Json.t list -> Json.t
  (** The emitted file shape: [{"schema_version": …, "obs": {flat
      snapshot}, "resources": {…}, "trace": {summary},
      "results": […]}] — [obs] carries the {!snapshot}, [resources]
      the {!resources} object and [trace] the {!Trace.summary} at
      emission time. *)

  val write_file : path:string -> results:Json.t list -> unit
  (** Writes {!file} to [path] (truncating). *)
end
