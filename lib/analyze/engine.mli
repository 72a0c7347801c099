(** The pass registry and orchestration layer of the analyzer.

    Individual passes live in their own modules ({!Cdfg_lint},
    {!Preflight}, {!Lp_lint}, {!Net_lint}, {!Cert}); this module names
    them, runs them in the right places, and owns the JSON report format
    shared by [pipesyn lint --json] and the CI lint gate.

    Severity policy (documented in DESIGN.md): {e errors} mean the flow
    would fail or produce an illegal result and abort it before any solver
    cost is paid; {e warnings} are recorded (logged, embedded in metrics)
    but never gate; {e infos} are optimization hints. *)

type pass = {
  name : string;
  artifact : string;  (** what the pass inspects: ["cdfg"], ["lp"], … *)
  codes : (string * string * string) list;
      (** diagnostic codes the pass can emit as [(code, severity,
          description)]: the severity its findings carry (a
          {!Diag.severity_name}, qualified where a setting changes it)
          and a one-line description — the source of truth for [pipesyn
          diags] and the generated docs/DIAGNOSTICS.md *)
  description : string;
}

val passes : pass list
(** The registry, stable order; one entry per pass module. *)

val check_cdfg : Ir.Cdfg.t -> Diag.t list
val preflight : ?strict_period:bool -> Preflight.config -> Ir.Cdfg.t -> Diag.t list
val check_model : Lp.Model.t -> Diag.t list
val check_netlist : Rtl.Netlist.t -> Diag.t list

val check_certificate :
  Sched.Verify.context -> Ir.Cdfg.t -> Sched.Cover.t -> Sched.Schedule.t ->
  Diag.t list

val check_audit : Lp.Model.t -> Lp.Milp.result -> Diag.t list
(** {!Audit.check_result} with counter bumps: exact-rational audit of a
    proof-carrying MILP solve. *)

val static_gate :
  Preflight.config -> Ir.Cdfg.t -> (Diag.t list, Diag.t list) result
(** The fail-fast pre-solve gate used by {!Core.Flow}: CDFG lints plus
    pre-flight. [Ok diags] carries the warnings/infos to record;
    [Error diags] carries everything including at least one error. Also
    bumps the [analyze.*] observability counters. *)

val diags_to_json : Diag.t list -> Obs.Json.t list
(** {!Diag.to_json} of each diagnostic, sorted by {!Diag.compare}: the
    [diagnostics] array of a lint-report entry and of {!Obs.Metrics}. *)

val write_file : path:string -> entries:(string * Diag.t list) list -> unit
(** Writes the lint-report file:
    [{"schema_version": …, "benchmarks": [{"name": …, "errors": n,
    "warnings": n, "diagnostics": […]}]}] — [schema_version] tracks
    {!Obs.Metrics.schema_version}. *)
