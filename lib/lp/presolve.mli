(** Root presolve: activity-based bound tightening (DESIGN.md §3j).

    {!tighten} is the certificate-logged, index-preserving layer used by
    {!Milp} at the root: it only shrinks the variable box, and every
    emitted event is pre-verified in exact arithmetic ({!Qd}) under the
    same condition the audit re-checks (CERT111). Clique-style fixing
    over 0/1 variables falls out of activity propagation through [=]
    rows (one member of a one-hot row pinned to 1 forces the siblings'
    upper bounds to 0 in the same fixpoint). *)

val tighten :
  ?max_passes:int ->
  Model.raw ->
  float array * float array * Cert.tighten list
(** [tighten raw] runs the bound-tightening fixpoint (default at most
    [10] passes) from [raw]'s box and returns [(lb, ub, events)]: the
    tightened box plus the ordered event log the audit replays. Events
    that fail their own exact validity check are dropped, never applied,
    so the returned box is always implied by the model. Tightenings that
    would cross the box (prove infeasibility) are also skipped — the
    root LP discovers infeasibility with a proper Farkas certificate
    instead. *)
