(** The three experimental flows compared in the paper's Table 1:

    - {b HLS-Tool}: the heuristic additive-delay modulo scheduler followed
      by downstream technology mapping that must respect the schedule's
      register boundaries (the commercial-tool stand-in);
    - {b MILP-base}: the MILP with cut enumeration skipped (trivial cuts
      only) and additive delays — exact scheduling, no mapping awareness —
      followed by the same downstream mapping;
    - {b MILP-map}: the full mapping-aware MILP; schedule and cover come
      out of the same solve;
    - {b SDC} (extension): difference-constraint modulo scheduling, the
      LegUp / Vivado-HLS style algorithm the paper builds on (refs [22],
      [3]) — additive delays, LP-based, downstream mapping;
    - {b Map-first} (extension, the paper's Sec. 5 future work): a
      scalable heuristic that maps the whole graph with area flow first,
      then runs cover-aware ASAP modulo scheduling — no MILP. Its design
      is MILP-map's one warm start.

    All flows report QoR under the same post-mapping delay/area model, the
    analogue of measuring everything post place-and-route.

    {2 Resilience}

    Every method runs through a {!Resilience.Cascade} under the run's one
    wall budget ([setup.time_limit]): the full-strength configuration
    first, then, for the heuristics, relaxed attempts (coarser or trivial
    cut parameters), then algorithmic fallbacks (MILP-map: full →
    map-first → HLS trivial), each under what is left of
    the budget, ending in a trivial-cuts heuristic that touches
    neither cut enumeration nor any LP/MILP and therefore survives every
    registered fault point ({!Resilience.Fault}). Exceptions raised inside
    an attempt are contained and the cascade continues; transient failure
    classes earn the full-strength MILP rungs one bounded deterministic
    in-place retry before the ladder degrades (resilience-v2). Whatever
    attempt wins, the returned (schedule, cover) passes
    {!Sched.Verify.check}; the failed attempts and soft degradations
    (truncated enumeration, degraded mapping, uncertified optimality,
    supervised in-flight recoveries) form the result's [trail], serialized
    as the metrics row's [degradation] array and mirrored as RES001/RES002
    (contained/degraded), RES004 (in-place retry) and RES005 (in-flight
    recovery) diagnostics. A cascade that exhausts every attempt returns
    [Error] with an ["RES003"]-prefixed message. *)

type method_ = Hls_tool | Sdc_tool | Milp_base | Milp_map | Map_heuristic

type setup = {
  device : Fpga.Device.t;
  delays : Fpga.Delays.t;
  resources : Fpga.Resource.budget;
  ii : int;
  alpha : float;
  beta : float;
  cut_params : Cuts.params option;  (** [None]: {!Cuts.default_params} *)
  time_limit : float;
      (** wall budget of the whole run in seconds (lint, cut
          enumeration, solve, mapping, verification, every cascade rung);
          the paper capped each run at 3600. Split across phases and
          threaded as a cooperative {!Resilience.Deadline} into every
          subsystem. *)
  domains : int option;
      (** B&B worker-domain count passed to {!Lp.Milp.solve} ([--domains]
          on the CLI); [None] = 1. *)
  audit : bool;
      (** make every MILP solve proof-carrying
          ([Lp.Milp.solve ~certificates:true]) and re-verify the
          certificate in exact rational arithmetic ([Analyze.Audit])
          after the solve. Observational: CERT1xx findings land in the
          result's metrics ([diagnostics] plus the [audit_errors]
          field), they never change the flow's schedule or status. *)
  checkpoint : Lp.Milp.checkpoint_sink option;
      (** snapshot every MILP rung's live solve to this sink
          ([--checkpoint] / [--checkpoint-every] on the CLI); [None] = no
          checkpointing. *)
  resume : Lp.Checkpoint.t option;
      (** resume the full-strength MILP rung from this snapshot
          ([pipesyn resume]); degraded rungs re-solve from scratch (their
          formulation differs, so the frontier would not match). *)
  stall_window : float option;
      (** stall-watchdog window in seconds ([--stall-window]); [None] =
          watchdog off. See {!Lp.Milp.solve}. *)
  cuts : bool option;
      (** root cutting planes for the MILP rungs ([--no-cuts] turns them
          off); [None] = on. See {!Lp.Milp.solve}. *)
  presolve : bool option;
      (** certified root bound tightening ([--no-presolve] turns it off);
          [None] = on. See {!Lp.Milp.solve}. *)
}

val default_setup : device:Fpga.Device.t -> setup
(** [ii = 1], [alpha = beta = 0.5] (paper Sec. 4), default delays,
    unlimited resources, a 60 s budget, [domains = None], [audit =
    false], no checkpointing or resume, stall watchdog off, cuts and
    presolve deferred to their defaults (on). *)

val methods : (string * method_) list
(** Every method under its command-line key: [hls], [sdc], [base],
    [map], [mapfirst]. *)

(** What one flow run was asked to do, in the scalars that rebuild its
    setup. [pipesyn run --checkpoint] stores it as the checkpoint's
    metadata and [pipesyn resume] reads it back; the checkpoint's model
    fingerprint guards against a wrong rebuild. Cuts and presolve need
    no field: a resumed solve replays them from the checkpoint. *)
module Request : sig
  type t = {
    benchmark : string;
    method_ : method_;
    optimize : bool;  (** frontend simplifier first ([-O]) *)
    time_limit : float;
    ii : int;  (** resolved, never 0 *)
    k : int;
    alpha : float;
    beta : float;
    audit : bool;
    stall_window : float option;
  }

  val to_json : t -> Obs.Json.t
  (** One object member per field ([method] holds the {!methods} key,
      [stall_window] is [null] when off). *)

  val of_json : Obs.Json.t -> (t, string) Stdlib.result
  (** Inverse of {!to_json}. Absent [optimize]/[audit] decode as
      [false] and absent [stall_window] as [None], as in metadata
      written before [stall_window] was recorded; the other fields are
      required. *)
end

type solve_info = {
  runtime : float;  (** seconds spent in the MILP (0 for the heuristic) *)
  milp_status : Lp.Milp.status option;
  milp_stats : Lp.Milp.stats option;
  milp_objective : float option;
      (** final MILP objective (constant included); [None] for
          heuristic flows *)
  model_size : string option;
  cert_nodes : int;
      (** node count of the solve's proof-carrying certificate; 0 when
          none was requested or produced *)
  audit_diags : Analyze.Diag.t list option;
      (** exact-rational certificate audit findings (pass ["audit"],
          codes CERT101–CERT108); [None] when the audit did not run *)
}

type result = {
  method_ : method_;  (** the {e requested} method, even after fallback *)
  schedule : Sched.Schedule.t;
  cover : Sched.Cover.t;
  qor : Sched.Qor.t;
  solve : solve_info;
  metrics : Obs.Json.t;
      (** the run's schema-v9 row of a metrics file (README.md
          "Observability"); its [name] is [""] until a caller brands it
          with {!metrics} *)
  trail : Resilience.Cascade.attempt list;
      (** degradation trail: failed attempts first (in execution order),
          then soft degradations; [[]] means the full-strength attempt
          succeeded cleanly *)
}

val lint :
  setup -> Ir.Cdfg.t -> (Analyze.Diag.t list, Analyze.Diag.t list) Stdlib.result
(** The fail-fast static gate {!run} executes before paying any solver
    cost: CDFG lints ({!Analyze.Cdfg_lint}) plus the pipelining pre-flight
    ({!Analyze.Preflight}) under the setup's device/delay/resource/II
    configuration. [Ok diags] carries warnings and infos only; [Error
    diags] contains at least one error-severity diagnostic. *)

val run : setup -> method_ -> Ir.Cdfg.t -> (result, string) Stdlib.result
(** Runs one flow through its degradation cascade. The {!lint} gate
    executes first — error diagnostics abort the run before cut
    enumeration or scheduling, warnings are logged and recorded in the
    result's [metrics.diagnostics]. [setup.time_limit] bounds the whole
    run: the cascade's rungs share it, and once it has run out only the
    terminal fallback runs. The returned (schedule, cover) pair always
    passes {!Sched.Verify.check} — a verification failure fails that cascade
    attempt (recorded with reason ["verify"]) and the next fallback
    runs. [Error] means the lint gate found errors or the cascade was
    exhausted (["RES003"]). *)

(** The MILP a MILP flow's full-strength rung solves. *)
type problem = {
  baseline : Sched.Schedule.t;
      (** the heuristic schedule under the setup's delays *)
  config : Formulation.config;
      (** [max_latency] is the latest of [baseline] and, for MILP-map, the
          heuristic schedule with logic delays pinned to one LUT delay;
          MILP-map prices cuts with {!Formulation.mapped_delay}, MILP-base
          with {!Formulation.additive_delay} *)
  cuts : Cuts.t;  (** enumerated for MILP-map, trivial for MILP-base *)
  formulation : Formulation.t;
  incumbent : float array option;
      (** the warm start: for MILP-map the map-first design (the
          {!Map_heuristic} flow's schedule and cover), when its latency is
          within [max_latency] and the model accepts it; [None] for
          MILP-base, whose solves start cold *)
}

val problem : setup -> method_ -> Ir.Cdfg.t -> (problem, string) Stdlib.result
(** What {!run} hands {!Lp.Milp.solve} for [Milp_base] or [Milp_map] (with
    {!Formulation.branch_priorities}), built the same way but under no
    deadline, so cut enumeration and the warm start run to the end.
    [Error] when the heuristic baseline fails or the method solves no
    MILP. *)

val run_all :
  setup -> Ir.Cdfg.t -> (method_ * (result, string) Stdlib.result) list
(** All three flows in Table 1 order. *)

val method_name : method_ -> string

val metrics : name:string -> result -> Obs.Json.t
(** The result's row stamped with the benchmark [name] — the unit
    {!Obs.Metrics.write_file} serializes for [pipesyn --json] and
    [BENCH_results.json]. *)

val error_metrics : name:string -> method_ -> Obs.Json.t
(** The row of a failed run (zero QoR, NaN slack, status ["error"], the
    same keys as {!metrics}) so it still appears in the perf
    trajectory. *)

val pp_result : result Fmt.t
