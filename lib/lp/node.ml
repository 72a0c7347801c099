let c_nodes = Obs.Counter.get "milp.bnb_nodes"
let c_pivots = Obs.Counter.get "milp.lp_pivots"

exception Worker_killed

(* ---- Bound chains ------------------------------------------------------ *)

(* A node costs O(1) memory instead of two O(n) array copies, and
   switching the working arrays between two nodes costs O(distance
   through their lowest common ancestor), not O(n). *)
type chain =
  | Root
  | Tighten of {
      j : int;
      side : Cert.side;
      v : float;
      prev : float;
      depth : int;
      parent : chain;
    }

let depth = function Root -> 0 | Tighten t -> t.depth

let apply_entry lb ub = function
  | Root -> ()
  | Tighten t -> (
      match t.side with
      | Cert.Lower -> lb.(t.j) <- t.v
      | Cert.Upper -> ub.(t.j) <- t.v)

let undo_entry lb ub = function
  | Root -> ()
  | Tighten t -> (
      match t.side with
      | Cert.Lower -> lb.(t.j) <- t.prev
      | Cert.Upper -> ub.(t.j) <- t.prev)

(* Undos run deepest-first and applies shallowest-first, so stacked
   changes to the same variable resolve correctly. Disjoint chains (one
   per node rebuilt from a checkpoint) meet only at [Root], which the
   walk handles like any other common ancestor. *)
let goto ~lb ~ub ~from_ target =
  let rec undo_to c d =
    match c with
    | Tighten t when t.depth > d ->
        undo_entry lb ub c;
        undo_to t.parent d
    | c -> c
  in
  let rec collect_to c d acc =
    match c with
    | Tighten t when t.depth > d -> collect_to t.parent d (c :: acc)
    | c -> (c, acc)
  in
  let rec meet a b acc =
    if a == b then acc
    else
      match (a, b) with
      | Tighten ta, Tighten tb ->
          undo_entry lb ub a;
          meet ta.parent tb.parent (b :: acc)
      | _ -> acc (* both Root *)
  in
  let d = min (depth from_) (depth target) in
  let a = undo_to from_ d in
  let b, applies = collect_to target d [] in
  let applies = meet a b applies in
  List.iter (apply_entry lb ub) applies

type t = {
  nid : int;
  parent : int;
  bounds : chain;
  bound : float;
  bvar : int;
  bfrac : float;
  dir_up : bool;
}

let root =
  { nid = 0; parent = -1; bounds = Root; bound = neg_infinity; bvar = -1;
    bfrac = 0.0; dir_up = false }

let branch_of node =
  match node.bounds with
  | Root -> None
  | Tighten t -> Some (t.j, t.side, t.v)

(* ---- Branching --------------------------------------------------------- *)

type pc = {
  dn_sum : float array;
  dn_n : int array;
  up_sum : float array;
  up_n : int array;
}

let pc_create n =
  { dn_sum = Array.make n 0.0; dn_n = Array.make n 0;
    up_sum = Array.make n 0.0; up_n = Array.make n 0 }

let pc_copy pc =
  { dn_sum = Array.copy pc.dn_sum; dn_n = Array.copy pc.dn_n;
    up_sum = Array.copy pc.up_sum; up_n = Array.copy pc.up_n }

let pc_record pc ~j ~dir_up ~unit ~degrade =
  if unit > 1e-9 then
    if dir_up then begin
      pc.up_sum.(j) <- pc.up_sum.(j) +. (degrade /. unit);
      pc.up_n.(j) <- pc.up_n.(j) + 1
    end
    else begin
      pc.dn_sum.(j) <- pc.dn_sum.(j) +. (degrade /. unit);
      pc.dn_n.(j) <- pc.dn_n.(j) + 1
    end

(* An integer variable within this of an integer counts as integral. *)
let int_tol = 1e-6

(* Pseudocost branching over every fractional integer column: maximize
   the product of estimated degradations, break ties in it (within
   1e-12) by the higher priority class, then by fractionality.
   Uninitialized variables use the average observed pseudocost; before
   any observation that degenerates to f·(1−f), i.e. plain
   most-fractional with the classes deciding equal fractionalities. *)
let pseudocost_branch raw ?priority pc x =
  let avg sum n =
    let tot = ref 0.0 and cnt = ref 0 in
    Array.iteri
      (fun j c ->
        if c > 0 then begin
          tot := !tot +. (sum.(j) /. float_of_int c);
          incr cnt
        end)
      n;
    if !cnt > 0 then !tot /. float_of_int !cnt else 1.0
  in
  let avg_dn = avg pc.dn_sum pc.dn_n and avg_up = avg pc.up_sum pc.up_n in
  let prio j = match priority with None -> 0 | Some p -> p.(j) in
  let best = ref (-1)
  and best_score = ref neg_infinity
  and best_frac = ref 0.0
  and best_prio = ref min_int in
  Array.iteri
    (fun j isint ->
      if isint then begin
        let v = x.(j) in
        let frac = Float.abs (v -. Float.round v) in
        if frac > int_tol then begin
          let p = prio j in
          let fdn = v -. Float.floor v in
          let fup = 1.0 -. fdn in
          let pcd =
            if pc.dn_n.(j) > 0 then pc.dn_sum.(j) /. float_of_int pc.dn_n.(j)
            else avg_dn
          and pcu =
            if pc.up_n.(j) > 0 then pc.up_sum.(j) /. float_of_int pc.up_n.(j)
            else avg_up
          in
          let score =
            Float.max 1e-9 (fdn *. pcd) *. Float.max 1e-9 (fup *. pcu)
          in
          if
            score > !best_score +. 1e-12
            || score > !best_score -. 1e-12
               && (p > !best_prio || (p = !best_prio && frac > !best_frac))
          then begin
            best := j;
            best_score := score;
            best_frac := frac;
            best_prio := p
          end
        end
      end)
    raw.Model.integer;
  !best

let snap raw x =
  Array.mapi
    (fun j v ->
      if raw.Model.integer.(j) && Float.abs (v -. Float.round v) <= 100. *. int_tol
      then Float.round v
      else v)
    x

let objective raw x =
  Array.fold_left ( +. ) 0.0 (Array.mapi (fun j v -> raw.Model.obj.(j) *. v) x)

(* ---- Workers ----------------------------------------------------------- *)

type control = {
  cell : Resilience.Deadline.cell;
  dl : Resilience.Deadline.t;
  nudged : bool Atomic.t;
}

type worker = {
  wid : int;
  lb : float array;
  ub : float array;
  mutable cur : chain;
  mutable lp : Simplex.state option;
  mutable pc : pc;
  mutable pivots : int;
  mutable warm : int;
  ctl : control;
  cnode : Obs.Counter.t;
}

let worker ~wid ~lb ~ub ~pcs ~deadline =
  let n = Array.length lb in
  let pc =
    if wid < Array.length pcs && Array.length pcs.(wid).dn_sum = n then
      pc_copy pcs.(wid)
    else pc_create n
  in
  let cell = Resilience.Deadline.new_cell () in
  { wid; lb; ub; cur = Root; lp = None; pc; pivots = 0; warm = 0;
    ctl =
      { cell; dl = Resilience.Deadline.with_cancel deadline cell;
        nudged = Atomic.make false };
    cnode = Obs.Counter.get ("milp.nodes.d" ^ string_of_int wid) }

let lp w system =
  let r =
    match w.lp with
    | None ->
        let r, st =
          Simplex.solve_state ~deadline:w.ctl.dl ~lb:w.lb ~ub:w.ub system
        in
        w.lp <- Some st;
        r
    | Some st -> Simplex.resolve ~deadline:w.ctl.dl ~lb:w.lb ~ub:w.ub st
  in
  w.pivots <- w.pivots + r.Simplex.iterations;
  Obs.Counter.incr ~by:r.Simplex.iterations c_pivots;
  r

let fix w j side =
  assert (w.cur == Root);
  match side with
  | Cert.Lower -> w.ub.(j) <- w.lb.(j)
  | Cert.Upper -> w.lb.(j) <- w.ub.(j)

let nudge w = Atomic.set w.ctl.nudged true
let cancel w = Resilience.Deadline.cancel w.ctl.cell
let rearm w = Resilience.Deadline.clear_cell w.ctl.cell

let reset w =
  w.lp <- None;
  w.pc <- pc_create (Array.length w.lb);
  rearm w;
  Atomic.set w.ctl.nudged false

(* ---- Processing one node ----------------------------------------------- *)

type outcome =
  | Leaf
  | Limited
  | Children of t * t
  | Cancelled
  | Stop_budget
  | Stop_unbounded

type env = {
  raw : Model.raw;
  system : unit -> Model.raw;
  priority : int array option;
  certs_on : bool;
  nodes : int Atomic.t;
  next_nid : int Atomic.t;
  incumbent : unit -> float;
  improve :
    wid:int -> node_id:int -> nid:int -> depth:int -> float array -> float ->
    bool;
  at_root : worker -> Simplex.result -> unit;
}

let lp_status_label = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iter_limit"
  | Simplex.Time_limit -> "time_limit"

let solve env w node =
  if Resilience.Fault.fires "milp.worker_kill" then raise Worker_killed;
  if Resilience.Fault.fires "milp.stall" then
    while not (Resilience.Deadline.expired w.ctl.dl) do
      Unix.sleepf 0.001
    done;
  let node_id = 1 + Atomic.fetch_and_add env.nodes 1 in
  (* Counted live (not bulk at solve exit) so the resource probe sees
     node and pivot throughput mid-solve. *)
  Obs.Counter.incr c_nodes;
  Obs.Counter.incr w.cnode;
  let depth = depth node.bounds in
  (* A watchdog nudge drops the warm tableau, so this LP refactorizes
     from scratch — the cheap fix for a numerically wedged basis. *)
  if Atomic.get w.ctl.nudged then begin
    Atomic.set w.ctl.nudged false;
    w.lp <- None
  end;
  goto ~lb:w.lb ~ub:w.ub ~from_:w.cur node.bounds;
  w.cur <- node.bounds;
  let resolved = Option.is_some w.lp in
  let r = lp w (env.system ()) in
  let warm =
    match w.lp with Some st -> Simplex.last_resolve_warm st | None -> false
  in
  if resolved && warm then w.warm <- w.warm + 1;
  if Obs.recording ~level:Obs.Log.Debug () then
    Obs.emit ~level:Obs.Log.Debug ~cat:"milp" ~tid:(w.wid + 1) "milp.node"
      [
        ("n", Obs.Json.Int node_id);
        ("depth", Obs.Json.Int depth);
        ("bvar", Obs.Json.Int node.bvar);
        ("status", Obs.Json.String (lp_status_label r.Simplex.status));
        ("warm", Obs.Json.Bool warm);
        ("bound", Obs.Json.Float r.Simplex.objective);
        ("domain", Obs.Json.Int w.wid);
      ];
  if depth = 0 then env.at_root w r;
  let fathom = ref Cert.F_budget in
  let outcome =
    match r.Simplex.status with
    | Simplex.Infeasible ->
        fathom := Cert.F_infeasible;
        Leaf
    | Simplex.Unbounded -> Stop_unbounded
    | Simplex.Time_limit ->
        (* A watchdog cancel unwedges only this worker; genuine expiry
           stops the solve. Either way the node is still open. *)
        if Resilience.Deadline.cancelled w.ctl.dl then begin
          rearm w;
          Cancelled
        end
        else Stop_budget
    | Simplex.Iteration_limit ->
        (* Pruning an unsolved subproblem is unsound for optimality
           claims, so the pool counts it: any such node demotes
           Optimal. *)
        if Obs.recording ~level:Obs.Log.Warn () then
          Obs.emit ~level:Obs.Log.Warn ~cat:"milp" ~tid:(w.wid + 1)
            "milp.lp_limit"
            [ ("node", Obs.Json.Int node_id); ("depth", Obs.Json.Int depth) ];
        Limited
    | Simplex.Optimal ->
        if node.bvar >= 0 then
          pc_record w.pc ~j:node.bvar ~dir_up:node.dir_up
            ~unit:(if node.dir_up then 1.0 -. node.bfrac else node.bfrac)
            ~degrade:(Float.max 0.0 (r.Simplex.objective -. node.bound));
        let best = env.incumbent () in
        if r.Simplex.objective >= best -. 1e-9 && Float.is_finite best then begin
          fathom := Cert.F_bound;
          Leaf
        end
        else begin
          let j =
            pseudocost_branch env.raw ?priority:env.priority w.pc r.Simplex.x
          in
          if j < 0 then begin
            let x = snap env.raw r.Simplex.x in
            (* A rejected point is no better than the incumbent. Its LP
               objective can still sit a few 1e-9 below it, when snapping
               rounds the point's objective up to a tie, so the leaf is
               fathomed by that bound: recording it as integral would
               claim a point better than the final objective. *)
            fathom :=
              if
                env.improve ~wid:w.wid ~node_id ~nid:node.nid ~depth x
                  (objective env.raw x)
              then Cert.F_integral
              else Cert.F_bound;
            Leaf
          end
          else begin
            let v = r.Simplex.x.(j) in
            let fl = Float.of_int (int_of_float (floor v)) in
            let child side bv prev dir_up =
              { nid = Atomic.fetch_and_add env.next_nid 1; parent = node.nid;
                bounds =
                  Tighten
                    { j; side; v = bv; prev; depth = depth + 1;
                      parent = node.bounds };
                bound = r.Simplex.objective; bvar = j; bfrac = v -. fl;
                dir_up }
            in
            (* [w.lb]/[w.ub] hold this node's bounds, so [prev] is the
               parent value the chain invariant needs. *)
            let down = child Cert.Upper fl w.ub.(j) false in
            let up = child Cert.Lower (fl +. 1.0) w.lb.(j) true in
            fathom :=
              Cert.F_branched
                { bvar = j; down_id = down.nid; down_ub = fl; up_id = up.nid;
                  up_lb = fl +. 1.0 };
            (* Dive toward the nearest integer first. *)
            if v -. fl <= 0.5 then Children (down, up) else Children (up, down)
          end
        end
  in
  let cert =
    match outcome with
    (* A cancelled or budget-cut node stays open, so it must not appear
       closed in the node log: a resumed solve processes it for real. *)
    | Cancelled | Stop_budget -> None
    | _ when not env.certs_on -> None
    | _ ->
        Some
          { Cert.id = node.nid; parent = node.parent; branch = branch_of node;
            depth; domain = w.wid;
            claim =
              (match r.Simplex.status with
              | Simplex.Optimal -> (
                  match Option.bind w.lp Simplex.duals with
                  | Some d ->
                      Cert.Lp_optimal { obj = r.Simplex.objective; duals = d }
                  | None -> Cert.Lp_unsolved)
              | Simplex.Infeasible ->
                  Cert.Lp_infeasible (Option.bind w.lp Simplex.last_infeasibility)
              | Simplex.Unbounded | Simplex.Iteration_limit
              | Simplex.Time_limit ->
                  Cert.Lp_unsolved);
            bound =
              (match r.Simplex.status with
              | Simplex.Optimal -> r.Simplex.objective
              | _ -> node.bound);
            incumbent_at = env.incumbent (); fathom = !fathom }
  in
  (outcome, cert)

(* A node whose parent bound already reaches the incumbent is pruned
   without an LP; its entry is audited against the nearest ancestor's
   duals. *)
let process env w node =
  let b = env.incumbent () in
  if Float.is_finite b && node.bound >= b -. 1e-9 then
    ( Leaf,
      if not env.certs_on then None
      else
        Some
          { Cert.id = node.nid; parent = node.parent; branch = branch_of node;
            depth = depth node.bounds; domain = w.wid;
            claim = Cert.Lp_unsolved; bound = node.bound; incumbent_at = b;
            fathom = Cert.F_dominated } )
  else solve env w node
