(* The root: presolve, the cut-extended row system, root cutting planes,
   and what the root node's LP leaves behind (bound, duals, reduced-cost
   fixings, the post-fixing box). *)

type t = {
  raw : Model.raw;
  certs_on : bool;
  presolve : Cert.tighten list;
  mutable system : Model.raw;
  mutable cuts : Cert.cut list;
  mutable rounds : int;
  mutable bound_pre_cuts : float;
  mutable bound_post_cuts : float;
  mutable bound : float;
  mutable infeasible : bool;
  mutable unbounded : bool;
  mutable duals : float array option;
  mutable fixes : (int * Cert.side) list;
  mutable fixed : int;
  mutable lb : float array;
  mutable ub : float array;
}

let presolve raw =
  let lb, ub, evs = Presolve.tighten raw in
  if evs <> [] && Obs.recording () then
    Obs.emit ~cat:"milp" "milp.presolve"
      [ ("tightened", Obs.Json.Int (List.length evs)) ];
  (evs, lb, ub)

let cut_rows cs =
  Array.of_list (List.map (fun c -> (c.Cert.cut_terms, c.Cert.cut_rhs)) cs)

(* The tree's system carries the start box as its own bounds, so every
   column presolve (or a resumed root) fixed is a constant of the system
   that {!Simplex} stores out of its tableau. *)
let create raw ~certs_on (start : Checkpoint.t) =
  {
    raw;
    certs_on;
    presolve = start.presolve;
    system =
      { (Model.with_le_rows raw (cut_rows start.cuts)) with
        Model.lb = Array.copy start.root_lb;
        ub = Array.copy start.root_ub };
    cuts = start.cuts;
    rounds = 0;
    bound_pre_cuts = Float.nan;
    bound_post_cuts = Float.nan;
    bound = start.root_bound;
    infeasible = false;
    unbounded = false;
    duals = start.root_duals;
    fixes = List.rev start.fixes;
    fixed = start.fixed_vars;
    lb = Array.copy start.root_lb;
    ub = Array.copy start.root_ub;
  }

let max_rounds = 8
let max_cuts_per_round = 20

(* The worker keeps its warm state, so the root node's own LP is a no-op
   repair over the extended rows. Every optimal LP of the loop bounds the
   root (cuts are valid inequalities), so [bound] follows them until the
   root node's own LP is solved. *)
let separate t (w : Node.worker) ~budget =
  let r0 = Node.lp w t.system in
  match w.lp with
  | Some st when r0.Simplex.status = Simplex.Optimal ->
      t.bound_pre_cuts <- r0.Simplex.objective;
      t.bound_post_cuts <- r0.Simplex.objective;
      t.bound <- r0.Simplex.objective;
      let seen = Cutgen.seen () in
      let x = ref r0.Simplex.x in
      let stop = ref false in
      while (not !stop) && t.rounds < max_rounds && not (budget ()) do
        let cands =
          Cutgen.cg_cuts seen t.system ~lb:w.lb ~ub:w.ub ~x:!x
            ~multipliers:(Simplex.iter_multipliers st) ~budget
        in
        (* a round the budget cut short is dropped: the root node's LP
           comes first *)
        if budget () then stop := true
        else
          match Cutgen.select seen ~x:!x ~max_cuts:max_cuts_per_round cands with
          | [], _ -> stop := true
          | chosen, left -> (
              Simplex.add_rows st (cut_rows chosen);
              t.system <- Simplex.system st;
              t.cuts <- t.cuts @ chosen;
              t.rounds <- t.rounds + 1;
              let r = Node.lp w t.system in
              match r.Simplex.status with
              | Simplex.Optimal ->
                  let prev = t.bound_post_cuts in
                  t.bound_post_cuts <- r.Simplex.objective;
                  t.bound <- r.Simplex.objective;
                  x := r.Simplex.x;
                  if Obs.recording () then
                    Obs.emit ~cat:"milp" "milp.cut_round"
                      [
                        ("round", Obs.Json.Int t.rounds);
                        ("added", Obs.Json.Int (List.length chosen));
                        ("pool", Obs.Json.Int left);
                        ("bound0", Obs.Json.Float t.bound_pre_cuts);
                        ("bound", Obs.Json.Float r.Simplex.objective);
                      ];
                  (* Diminishing returns: a round that moves the bound by
                     less than a relative 1e-9 will not close the tree any
                     faster, and a second batch of stalled cuts measurably
                     slows every node LP. *)
                  if r.Simplex.objective -. prev <= 1e-9 *. (1.0 +. Float.abs prev)
                  then stop := true
              | _ ->
                  (* Limit hit mid-resolve: the cuts stay (they are valid
                     regardless); node processing finishes the LP. *)
                  stop := true)
      done;
      (* Cuts pay rent only if they moved the root bound: every cut row
         slows every node LP and perturbs the node order, so a pass that
         failed to lift the bound is discarded wholesale and the tree
         solves the original system from a cold root. *)
      let b0 = t.bound_pre_cuts in
      if t.cuts <> [] && t.bound_post_cuts -. b0 <= 1e-9 *. (1.0 +. Float.abs b0)
      then begin
        if Obs.recording () then
          Obs.emit ~cat:"milp" "milp.cuts_discarded"
            [
              ("cuts", Obs.Json.Int (List.length t.cuts));
              ("rounds", Obs.Json.Int t.rounds);
              ("bound", Obs.Json.Float b0);
            ];
        t.cuts <- [];
        t.system <-
          { t.raw with Model.lb = t.system.Model.lb; ub = t.system.Model.ub };
        t.rounds <- 0;
        t.bound <- b0;
        t.bound_pre_cuts <- Float.nan;
        t.bound_post_cuts <- Float.nan;
        Node.reset w
      end
  | _ -> ()

(* With an incumbent of value [z*] and a root relaxation of value [z0],
   any solution moving an integer variable off the bound it is nonbasic
   at costs at least its reduced cost [|d_j|]; if [|d_j| > z* - z0] every
   such solution is strictly worse than the incumbent, so the variable
   can be fixed. *)
let fix_by_reduced_cost t (w : Node.worker) st ~gap =
  let before = t.fixed in
  for j = 0 to t.raw.Model.n - 1 do
    if t.raw.Model.integer.(j) && w.ub.(j) -. w.lb.(j) > 0.5 then
      let side =
        match Simplex.basis_status st j with
        | `At_lower when Simplex.reduced_cost st j > gap +. 1e-7 ->
            Some Cert.Lower
        | `At_upper when -.Simplex.reduced_cost st j > gap +. 1e-7 ->
            Some Cert.Upper
        | _ -> None
      in
      Option.iter
        (fun side ->
          Node.fix w j side;
          if t.certs_on then t.fixes <- (j, side) :: t.fixes;
          t.fixed <- t.fixed + 1)
        side
  done;
  if t.fixed > before && Obs.recording ~level:Obs.Log.Debug () then
    Obs.emit ~level:Obs.Log.Debug ~cat:"milp" "milp.fixed_vars"
      [ ("count", Obs.Json.Int (t.fixed - before)) ]

(* Only a solved LP bounds the root: a capped LP's objective is that of
   wherever the pivots stopped, which may lie above the relaxation. A
   root LP that stops short keeps the bound of the cut loop's last
   optimal LP. *)
let at_root t ~incumbent (w : Node.worker) (r : Simplex.result) =
  (match r.Simplex.status with
  | Simplex.Optimal -> t.bound <- r.Simplex.objective
  | Simplex.Infeasible -> t.infeasible <- true
  | Simplex.Unbounded -> t.unbounded <- true
  | Simplex.Iteration_limit | Simplex.Time_limit -> ());
  (match (r.Simplex.status, w.lp) with
  | Simplex.Optimal, Some st ->
      (* The pre-fixing duals ground the audit of every fixing event. *)
      if t.certs_on then t.duals <- Simplex.duals st;
      let best = incumbent () in
      let gap = Float.max 0.0 (best -. r.Simplex.objective) in
      if Float.is_finite best && Float.is_finite gap then
        fix_by_reduced_cost t w st ~gap
  | _ -> ());
  t.lb <- Array.copy w.lb;
  t.ub <- Array.copy w.ub

let gap_closed t ~incumbent =
  let b0 = t.bound_pre_cuts and b1 = t.bound_post_cuts in
  if Float.is_nan b0 || Float.is_nan b1 || not (Float.is_finite incumbent)
  then Float.nan
  else
    let denom = incumbent -. b0 in
    if denom <= 1e-12 *. (1.0 +. Float.abs incumbent) then Float.nan
    else Float.max 0.0 (Float.min 1.0 ((b1 -. b0) /. denom))
