(* Proof-carrying solve certificates (DESIGN.md §3h).

   A certificate is the raw material an independent checker needs to
   re-derive every claim the branch-and-bound solver makes, without
   trusting any of the solver's float arithmetic: dual vectors for
   optimality claims (weak duality gives a safe bound from *any* float
   dual vector when re-evaluated exactly), Farkas rays for infeasibility
   claims, and a pruning log rich enough to replay the tree. The types
   here are plain data — emission lives in {!Simplex}/{!Milp}, checking
   in [Analyze.Audit]. *)

type side = Lower | Upper

type farkas =
  | Ray of float array
      (* one multiplier per model row; exact aggregation must prove the
         node's box empty *)
  | Empty_box of int
      (* branching crossed the bounds of this variable: lb > ub *)

type lp_claim =
  | Lp_optimal of { obj : float; duals : float array }
  | Lp_infeasible of farkas option
      (* [None] only when no ray was recoverable — the audit flags it *)
  | Lp_unsolved  (* iteration/time limit: never grounds for pruning *)

type fathom =
  | F_branched of {
      bvar : int;
      down_id : int;
      down_ub : float;  (* child box: ub.(bvar) := down_ub *)
      up_id : int;
      up_lb : float;  (* child box: lb.(bvar) := up_lb *)
    }
  | F_integral  (* LP optimum integral: candidate incumbent *)
  | F_bound  (* LP bound dominated by the incumbent *)
  | F_dominated  (* parent bound dominated: pruned before solving *)
  | F_infeasible
  | F_budget  (* LP unsolved within budget: pruned unsoundly, never Optimal *)

type node = {
  id : int;  (* creation-order id from a dedicated counter: stable across
                domain counts, unlike the processing-order trace id *)
  parent : int;  (* -1 at the root *)
  branch : (int * side * float) option;  (* the edit that created this box *)
  depth : int;
  domain : int;
  claim : lp_claim;
  bound : float;  (* dual bound the solver attached to this node *)
  incumbent_at : float;  (* shared incumbent at the fathom decision *)
  fathom : fathom;
}

type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

type tighten = {
  t_var : int;  (* variable whose bound moved *)
  t_hi : bool;  (* [true] = upper bound, [false] = lower bound *)
  t_new : float;  (* the tightened bound value *)
  t_row : int;
      (* row whose activity implies the bound; [-1] marks an integrality
         rounding step (no row cited, validity is floor/ceil of the
         current bound of an integer variable) *)
}

type cut_deriv =
  | Cg of (int * float) array
      (* Chvátal–Gomory: nonzero aggregation multipliers, one per cited
         row. Row indices address the extended system seen at derivation
         time: [0..m-1] are model rows, [m..m+k-1] are the k cuts already
         verified before this one. The audit clamps each multiplier to
         the row's sign cone, re-aggregates in exact arithmetic, and
         checks the integer rounding of the right-hand side. *)

type cut = {
  cut_terms : (int * float) array;  (* sparse row over original columns *)
  cut_rhs : float;  (* sense is always [<=] *)
  cut_deriv : cut_deriv;
}

type t = {
  status : status;
  objective : float;  (* incumbent objective, raw space (no model constant) *)
  incumbent : float array option;
  incumbents : (int * float) list;
      (* accepted incumbents in acceptance order, (node id, objective);
         id -1 marks a caller-seeded warm start *)
  root_lb : float array;  (* root box the tree explored (post bound-fixing) *)
  root_ub : float array;
  presolve : tighten list;
      (* ordered bound-tightening events applied at the root before the
         tree started; the audit replays them from the model box *)
  cuts : cut list;
      (* applied cuts in derivation order: cut [k] may cite cuts
         [0..k-1] in a [Cg] derivation *)
  fixes : (int * side) list;
      (* reduced-cost fixing events: variable pinned at this side of its box *)
  root_duals : float array option;  (* duals of the pre-fixing root LP *)
  root_obj : float;  (* root LP objective, raw space *)
  nodes : node list;  (* ascending id *)
  budget_hit : bool;
  lp_limited : int;
  domains : int;
  gap_tol : float;
}

let status_label = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Unknown -> "unknown"

let count_claims c =
  List.fold_left
    (fun (opt, inf, uns) n ->
      match n.claim with
      | Lp_optimal _ -> (opt + 1, inf, uns)
      | Lp_infeasible _ -> (opt, inf + 1, uns)
      | Lp_unsolved -> (opt, inf, uns + 1))
    (0, 0, 0) c.nodes

(* Compact summary for the metrics/trace stream. The full certificate
   never round-trips through JSON — exactness would not survive float
   printing — so audits run in-process on the live value. *)
let summary_json c =
  let opt, inf, uns = count_claims c in
  [
    ("status", Obs.Json.String (status_label c.status));
    ("nodes", Obs.Json.Int (List.length c.nodes));
    ("optimal_claims", Obs.Json.Int opt);
    ("infeasible_claims", Obs.Json.Int inf);
    ("unsolved_claims", Obs.Json.Int uns);
    ("incumbents", Obs.Json.Int (List.length c.incumbents));
    ("fixes", Obs.Json.Int (List.length c.fixes));
    ("tightenings", Obs.Json.Int (List.length c.presolve));
    ("cuts", Obs.Json.Int (List.length c.cuts));
    ("domains", Obs.Json.Int c.domains);
  ]
