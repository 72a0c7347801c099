(** Graceful-degradation cascade: ordered attempts under one deadline,
    with exception containment and a structured trail.

    The engine is deliberately generic — it knows nothing about MILPs or
    covers. {!Mams.Flow} instantiates it per method: the full-strength
    attempt first, then progressively relaxed retries, then the heuristic
    fallback that cannot fail. Each attempt runs with a sub-deadline, any
    exception it raises is contained and recorded (never unwound past the
    cascade), and the first attempt to return [Ok] wins. The failed
    attempts form the {e degradation trail} serialized into Metrics
    schema v3 (the [degradation] array). *)

type attempt = {
  label : string;  (** attempt / site name, e.g. ["milp-map/full"] *)
  reason : string;
      (** machine-matchable token: ["timeout"], ["unknown"], ["numeric"],
          ["infeasible"], ["exception"], ["verify"], ["failed"] *)
  detail : string;  (** human-readable explanation (settings, message) *)
  elapsed : float;  (** seconds spent in the attempt *)
  retry : int;
      (** which try of the rung this was: 0 = the first try, [k > 0] =
          the [k]-th bounded retry of the same rung (schema v7) *)
}

val attempt_to_json : attempt -> Obs.Json.t
(** [{"label": …, "reason": …, "detail": …, "elapsed_s": …,
    "retry": …}] — one entry of the Metrics [degradation] array. *)

val pp_attempt : Format.formatter -> attempt -> unit
(** ["label: reason (detail) [1.2s]"], with ["(retry k)"] after the
    label for bounded retries. *)

type 'a step = {
  slabel : string;
  budget : float option;
      (** optional per-attempt budget in seconds, clipped against the
          cascade deadline — how budget backoff is expressed *)
  retries : int;
      (** bounded retry count: how many extra times this {e same} rung
          is re-run (same budget, deterministically) when it fails with
          a reason in [retry_on], before the cascade degrades to the
          next rung. 0 = never retry. *)
  retry_on : string list;
      (** the transient failure classes (reason tokens, e.g.
          ["exception"]) eligible for bounded retry. Timeouts are
          normally {e not} transient: retrying a rung that ran out of
          time just spends the rest of the budget. *)
  run : Deadline.t -> ('a, string * string) result;
      (** receives the attempt's sub-deadline; [Error (reason, detail)]
          on structured failure, exceptions are contained by {!run} *)
}

type 'a outcome = {
  value : 'a;
  trail : attempt list;  (** failed attempts, in execution order *)
}

val degraded : 'a outcome -> bool
(** The winning attempt was not the first — or soft degradations were
    recorded. [trail <> []]. *)

val run : deadline:Deadline.t -> 'a step list -> ('a outcome, attempt list) result
(** Execute steps in order until one returns [Ok]. Per step:
    - the step's deadline is [Deadline.clip deadline ~budget] (or the
      cascade deadline when [budget = None]);
    - if the cascade deadline is already expired every step {e except the
      last} is skipped with reason ["timeout"]; the terminal fallback
      always runs (under the expired sub-deadline, so cooperative
      subsystems degrade immediately) — that is what guarantees the
      cascade produces a result whenever its last step cannot fail;
    - a raised {!Deadline.Expired} is recorded as ["timeout"];
    - any other exception is contained and recorded as ["exception"]
      ([Out_of_memory] and [Stack_overflow] are re-raised — resource
      exhaustion must not be silently retried);
    - a failure whose reason is in the step's [retry_on] re-runs the
      {e same} rung up to [retries] more times before degrading (skipped
      once the cascade deadline has expired). Every failed try lands in
      the trail with its [retry] index, so the degradation log carries
      the full retry trail.

    [Error trail] means every attempt failed (cascade exhaustion). The
    ["resilience.attempts"], ["resilience.contained_exceptions"] and
    ["resilience.retries"] {!Obs} counters record engine activity. *)

val backoff : int -> float
(** [backoff k] is the budget scale of retry [k] (0-based): [0.5 ^ k]
    (negative [k] counts as 0) — each retry gets half the previous
    attempt's budget, so a full cascade costs at most [2x] the first
    attempt. This is {e budget} backoff: with a deterministic in-process
    solver there is nothing to wait out, so retries shrink their budgets
    instead of sleeping. *)
