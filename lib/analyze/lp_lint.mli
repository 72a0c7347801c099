(** Static lints over {!Lp.Model} instances — run on the MILP before the
    branch-and-bound pays for it.

    Codes:
    - [LP001] (error): trivially infeasible row — no terms survive
      normalization and the relation [0 sense rhs] is false.
    - [LP002] (warning): vacuous row — no terms and the relation holds, so
      the row constrains nothing.
    - [LP003] (warning): duplicate row — identical terms, sense and
      right-hand side as an earlier row.
    - [LP004] (warning): free column — a non-fixed variable that appears in
      no constraint and no objective term.
    - [LP005] (error): infeasible bounds — an integer variable whose
      [\[lb, ub\]] interval contains no integer.
    - [LP006] (error): malformed cutting-plane row in a certificate —
      empty term list, non-finite coefficient or rhs, out-of-range or
      duplicated column ({!check_cuts}).

    To bound report size, at most 25 findings are emitted per
    code; an overflow finding summarizes the remainder. *)

val pass_name : string

val check : Lp.Model.t -> Diag.t list

val check_cuts : n:int -> Lp.Cert.cut list -> Diag.t list
(** [check_cuts ~n cuts] lints a certificate's applied cut rows against
    a model with [n] variables (LP006). Structural only — the cut
    {e derivations} are the audit's CERT109 business. The
    [Diag.Row] locations index into the cut list, not the model rows. *)
