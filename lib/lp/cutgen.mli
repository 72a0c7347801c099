(** Root cutting planes: Chvátal–Gomory separation with a bounded,
    violation-ranked cut pool (DESIGN.md §3j).

    Every returned cut carries its {!Cert.cut_deriv} and has already
    been verified here in the exact arithmetic ({!Qd}) that the audit
    (CERT109) re-runs: the tableau only {e suggests} CG
    multipliers, everything downstream of the citation is recomputed
    exactly, so a drifted tableau can lose a cut but never emit an
    invalid one. *)

val cg_cuts :
  Model.raw ->
  lb:float array ->
  ub:float array ->
  x:float array ->
  int_tol:float ->
  multipliers:(int -> float array option) ->
  budget:(unit -> bool) ->
  Cert.cut list
(** One Chvátal–Gomory candidate per fractional integer variable of the
    LP point [x], aggregating with [multipliers j] (the variable's
    simplex tableau row, {!Simplex.tableau_multipliers}) clamped to the
    audit's sign cone. [raw] may already contain earlier cut rows — CG
    derivations then cite them, which is what makes successive rounds
    strictly stronger. Only candidates violated at [x] by more than the
    separation tolerance are returned. [budget] is polled after every
    eighth candidate; once it answers [true] the cuts found so far are
    returned. *)

val cg_of_multipliers :
  Model.raw ->
  lb:float array ->
  ub:float array ->
  x:float array ->
  float array ->
  Cert.cut option
(** [cg_of_multipliers raw ~lb ~ub ~x lam] is the one candidate
    {!cg_cuts} derives from multiplier vector [lam] (one entry per row
    of [raw]): [lam] is moved into the audit's sign cone (a wrong-sign
    multiplier is shifted by an integer) and entries below [1e-11]
    dropped; any entry above [1e7] rejects the candidate. The exact
    aggregation is rounded column by column against the box, and the
    cut is returned when its rhs is a fractional value rounded down and
    it is violated at [x]. *)

(** {1 Cut pool} *)

type pool
(** Bounded pool with duplicate hashing (normalized terms + rhs),
    violation-ranked activation and age-out of candidates that keep
    missing the activation cut-off. *)

val create : ?capacity:int -> ?max_age:int -> unit -> pool
(** Defaults: [capacity = 512] stored candidates, [max_age = 4]
    selection rounds before an inactive candidate is dropped. *)

val offer : pool -> Cert.cut -> unit
(** Add a candidate; duplicates (by normalized hash) are ignored, as is
    everything past [capacity]. *)

val select : pool -> x:float array -> max_cuts:int -> Cert.cut list
(** Activate the (at most) [max_cuts] most-violated inactive candidates
    at [x], age the rest, and return the newly activated cuts in a
    deterministic order. Activated cuts are never returned twice. *)

val applied : pool -> int
(** Total cuts activated over the pool's lifetime. *)

val pending : pool -> int
(** Inactive candidates currently held. *)
