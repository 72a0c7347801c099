(** Deterministic fault injection for the degradation cascade.

    Every escape hatch in the flow — MILP timeout, simplex numeric
    trouble, cut-enumeration blowup, mapper overrun — is guarded by a
    {e fault point}: a named site that normally does nothing and, when
    armed, forces that failure. Arming is explicit ({!arm}, behind the
    CLI's [--faults]); library code never arms anything on its own, so
    tests stay hermetic.

    Triggering is fully deterministic and reproducible: each point keeps a
    hit counter, and probabilistic specs derive their decision from a
    seeded integer hash of (seed, hit index) — the same spec produces the
    same firing pattern on every run.

    {2 Spec grammar}

    A spec is a comma-separated list of clauses:
    - [point] — fire on every hit;
    - [point\@N] — fire on the [N]-th hit only (1-based);
    - [point%P:S] — fire with probability [P] percent, decided by a hash
      seeded with [S] (deterministic across runs).

    Unknown point names are rejected so typos cannot silently arm
    nothing. *)

val points : (string * string) list
(** The registered fault points, [(name, behaviour when fired)]. Stable
    names, dot-separated [subsystem.failure]:
    [milp.timeout], [milp.raise], [simplex.cycle], [cuts.raise],
    [cuts.timeout], [techmap.timeout], and the solve-supervision kinds
    [milp.worker_kill], [milp.steal_drop], [milp.checkpoint_torn],
    [milp.stall] (DESIGN.md §3i). *)

val mem : string -> bool
(** Is the name a registered fault point? *)

val arm : string -> (unit, string) result
(** Parse a spec string and arm its clauses (adding to whatever is
    already armed). [Error] describes the first bad clause; nothing is
    armed on error. *)

val armed : unit -> string list
(** Names of currently armed points, sorted. *)

val clear : unit -> unit
(** Disarm everything and zero all hit counters. *)

val fires : string -> bool
(** [fires point] — called at the fault site. Counts a hit and reports
    whether the armed spec (if any) triggers this time. Unarmed points
    always return [false] and keep no state. Fired faults bump the
    ["resilience.faults_fired"] counter in {!Obs}. Safe to call from
    B&B worker domains: hit counting is serialized by an internal lock
    (the hit {e order} across domains is scheduler-dependent, but the
    total count is exact). Arming and {!clear} remain driver-side,
    single-domain operations. *)
