(** Proof-carrying solve certificates (DESIGN.md §3h).

    Emitted by {!Milp.solve} (with [~certificates:true]) from data
    recorded in {!Simplex}; independently re-checked in exact rational
    arithmetic by [Analyze.Audit]. Three kinds of evidence:

    - {b Optimality}: the final dual vector of each node LP. Re-evaluated
      exactly, {e any} float dual vector yields a safe lower bound
      (Neumaier–Shcherbina), so float drift can only weaken a claim,
      never falsely validate one.
    - {b Infeasibility}: a Farkas ray (or the crossed-bounds variable for
      trivially empty boxes).
    - {b The pruning log}: every node's branch edit, dual bound, fathom
      reason and the incumbent value at the decision — enough to replay
      the tree and confirm no fathomed subtree could hold a better
      integer point, which doubles as a determinism/race oracle for the
      parallel solver. *)

type side = Lower | Upper

type farkas =
  | Ray of float array  (** one multiplier per model row *)
  | Empty_box of int  (** variable whose bounds crossed *)

type lp_claim =
  | Lp_optimal of { obj : float; duals : float array }
  | Lp_infeasible of farkas option
  | Lp_unsolved

type fathom =
  | F_branched of {
      bvar : int;
      down_id : int;
      down_ub : float;
      up_id : int;
      up_lb : float;
    }
  | F_integral
  | F_bound
  | F_dominated
  | F_infeasible
  | F_budget

type node = {
  id : int;
  parent : int;
  branch : (int * side * float) option;
  depth : int;
  domain : int;
  claim : lp_claim;
  bound : float;
  incumbent_at : float;
  fathom : fathom;
}

type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

type tighten = {
  t_var : int;  (** variable whose bound moved *)
  t_hi : bool;  (** [true] = upper bound, [false] = lower bound *)
  t_new : float;  (** the tightened bound value *)
  t_row : int;
      (** implying row, or [-1] for an integrality rounding step on an
          integer variable's current bound *)
}
(** One root-presolve bound-tightening event, replayable in order from
    the model box (audited as CERT111). *)

type cut_deriv =
  | Cg of (int * float) array
      (** Chvátal–Gomory aggregation multipliers, sparse over the
          extended row system at derivation time ([0..m-1] model rows,
          then previously applied cuts in order) *)

type cut = {
  cut_terms : (int * float) array;  (** sparse row, original columns *)
  cut_rhs : float;  (** sense is always [<=] *)
  cut_deriv : cut_deriv;
}
(** An applied cutting plane plus the derivation the audit re-verifies
    exactly (CERT109). *)

type t = {
  status : status;
  objective : float;
  incumbent : float array option;
  incumbents : (int * float) list;
  root_lb : float array;
  root_ub : float array;
  presolve : tighten list;
  cuts : cut list;
  fixes : (int * side) list;
  root_duals : float array option;
  root_obj : float;
  nodes : node list;
  budget_hit : bool;
  lp_limited : int;
  domains : int;
  gap_tol : float;
}

val status_label : status -> string

val summary_json : t -> (string * Obs.Json.t) list
(** Compact summary for the metrics/trace stream. The full certificate
    is deliberately not serialized: floats would lose exactness in
    transit, so audits run in-process on the live value. *)
