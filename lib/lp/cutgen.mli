(** Root cutting planes: Chvátal–Gomory separation and the per-round
    selection of the most-violated candidates (DESIGN.md §3j).

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
  multipliers:(int -> float array option) ->
  budget:(unit -> bool) ->
  Cert.cut list
(** One Chvátal–Gomory candidate per integer variable more than 0.005
    from an integer at the LP point [x], aggregating with
    [multipliers j] (the variable's simplex tableau row,
    {!Simplex.tableau_multipliers}) clamped to the audit's sign cone. [raw] may already contain earlier cut rows — CG
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

(** {1 Round selection} *)

type seen
(** The keys (normalized terms + rhs) of every candidate a separation
    pass has offered to {!select}. *)

val seen : unit -> seen
(** An empty key table, one per separation pass. *)

val select :
  seen -> x:float array -> max_cuts:int -> Cert.cut list ->
  Cert.cut list * int
(** [select seen ~x ~max_cuts cands] drops every candidate whose key is
    already in [seen] (the first of two duplicates stays) and adds the
    rest's keys; of those violated at [x], it returns the (at most)
    [max_cuts] most violated, ties broken by key, and how many violated
    candidates it left out. *)
