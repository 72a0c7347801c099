(** Root cutting planes: Chvátal–Gomory separation and the per-round
    selection of the most-violated candidates (DESIGN.md §3j).

    Every returned cut carries its {!Cert.cut_deriv} and has already
    been verified here in the exact arithmetic ({!Qd}) that the audit
    (CERT109) re-runs: the tableau only {e suggests} CG
    multipliers, everything downstream of the citation is recomputed
    exactly, so a drifted tableau can lose a cut but never emit an
    invalid one. *)

type seen
(** A separation pass's memory: the keys (normalized terms + rhs) of
    every candidate the pass has offered to {!select}, and every
    candidate {!cg_cuts} has derived in it. *)

val seen : unit -> seen
(** An empty memory, one per separation pass. *)

val cg_cuts :
  seen ->
  Model.raw ->
  lb:float array ->
  ub:float array ->
  x:float array ->
  multipliers:(int -> (int -> float -> unit) -> bool) ->
  budget:(unit -> bool) ->
  Cert.cut list
(** One Chvátal–Gomory candidate per integer variable more than 0.005
    from an integer at the LP point [x], aggregating with the
    variable's simplex tableau row: [multipliers j f] calls [f i λ_i]
    for the row's nonzero multipliers, last row first, and answers
    whether [j] has a row ({!Simplex.iter_multipliers}). The
    multipliers are clamped to the audit's sign cone as in
    {!cg_of_multipliers}. [raw] may already contain earlier cut rows —
    CG derivations then cite them, which is what makes successive
    rounds strictly stronger. Only candidates violated at [x] by more
    than the separation tolerance are returned. [budget] is polled
    after every eighth candidate; once it answers [true] the cuts found
    so far are returned.

    The result is what {!cg_of_multipliers} derives from each
    candidate's multipliers, but a candidate whose clamped support and
    [x] on the support's columns match, bit for bit, one derived
    earlier in the same pass gets that one's result without a second
    derivation. So every call of one pass must see the same [lb] and
    [ub], and a [raw] that only grew by appended rows. *)

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

val select :
  seen -> x:float array -> max_cuts:int -> Cert.cut list ->
  Cert.cut list * int
(** [select seen ~x ~max_cuts cands] drops every candidate whose key is
    already in [seen] (the first of two duplicates stays) and adds the
    rest's keys; of those violated at [x], it returns the (at most)
    [max_cuts] most violated, and how many violated candidates it left
    out. Keys compare term by term and rhs, floats by their bits; ties
    in violation go to the smaller printed key (each term as
    [j:%h;], then [|%h] of the rhs, compared as strings), printed only
    for such ties. *)
