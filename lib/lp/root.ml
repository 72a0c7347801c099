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

let extend_raw base cs =
  if cs = [] then base
  else
    {
      base with
      Model.rows =
        Array.append base.Model.rows
          (Array.of_list (List.map (fun c -> c.Cert.cut_terms) cs));
      senses =
        Array.append base.Model.senses (Array.make (List.length cs) Model.Le);
      rhs =
        Array.append base.Model.rhs
          (Array.of_list (List.map (fun c -> c.Cert.cut_rhs) cs));
    }

let create raw ~certs_on (start : Checkpoint.t) =
  {
    raw;
    certs_on;
    presolve = start.presolve;
    system = extend_raw raw start.cuts;
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
   repair over the extended rows. *)
let separate t (w : Node.worker) ~max_lp_iters ~int_tol ~budget =
  let r0 = Node.lp w ~max_iters:max_lp_iters t.system in
  match w.lp with
  | Some st when r0.Simplex.status = Simplex.Optimal ->
      t.bound_pre_cuts <- r0.Simplex.objective;
      t.bound_post_cuts <- r0.Simplex.objective;
      let pool = Cutgen.create () in
      let x = ref r0.Simplex.x in
      let stop = ref false in
      while (not !stop) && t.rounds < max_rounds && not (budget ()) do
        let rawe = t.system in
        List.iter (Cutgen.offer pool)
          (Cutgen.cg_cuts rawe ~lb:w.lb ~ub:w.ub ~x:!x ~int_tol
             ~multipliers:(Simplex.tableau_multipliers st));
        List.iter (Cutgen.offer pool)
          (Cutgen.cover_cuts rawe ~n_rows:(Array.length t.raw.Model.rows)
             ~lb:w.lb ~ub:w.ub ~x:!x);
        match Cutgen.select pool ~x:!x ~max_cuts:max_cuts_per_round with
        | [] -> stop := true
        | chosen -> (
            Simplex.add_rows st
              (Array.of_list
                 (List.map (fun c -> (c.Cert.cut_terms, c.Cert.cut_rhs)) chosen));
            t.system <- extend_raw rawe chosen;
            t.cuts <- t.cuts @ chosen;
            t.rounds <- t.rounds + 1;
            let r = Node.lp w ~max_iters:max_lp_iters t.system in
            match r.Simplex.status with
            | Simplex.Optimal ->
                let prev = t.bound_post_cuts in
                t.bound_post_cuts <- r.Simplex.objective;
                x := r.Simplex.x;
                if Obs.recording () then
                  Obs.emit ~cat:"milp" "milp.cut_round"
                    [
                      ("round", Obs.Json.Int t.rounds);
                      ("added", Obs.Json.Int (List.length chosen));
                      ("pool", Obs.Json.Int (Cutgen.pending pool));
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
        t.system <- t.raw;
        t.rounds <- 0;
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

let at_root t ~incumbent (w : Node.worker) (r : Simplex.result) =
  t.bound <- r.Simplex.objective;
  if r.Simplex.status = Simplex.Infeasible then t.infeasible <- true;
  if r.Simplex.status = Simplex.Unbounded then t.unbounded <- true;
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
