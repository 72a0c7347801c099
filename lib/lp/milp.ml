type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

type stats = {
  nodes : int;
  lp_iterations : int;
  elapsed : float;
  root_bound : float;
  gap : float;
  lp_limited : int;
  warm_hits : int;
  fixed_vars : int;
  first_incumbent_s : float;
  domains : int;
  checkpoints : int;
  recoveries : int;
  stalls : int;
  cpu_s : float;
  cuts_applied : int;
  cut_rounds : int;
  gap_closed_root : float;
}

type result = {
  status : status;
  x : float array;
  objective : float;
  stats : stats;
  cert : Cert.t option;
}

type checkpoint_sink = {
  ck_path : string;
  ck_every_s : float;
  ck_every_nodes : int option;
  ck_meta : Obs.Json.t;
}

exception Worker_killed

(* Instrumentation (lib/obs): cumulative across solves; reset by the
   driver. Purely observational — branching decisions never read it. *)
let c_solves = Obs.Counter.get "milp.solves"
let c_nodes = Obs.Counter.get "milp.bnb_nodes"
let c_pivots = Obs.Counter.get "milp.lp_pivots"
let c_incumbents = Obs.Counter.get "milp.incumbents"
let c_warm_hits = Obs.Counter.get "milp.warm_hits"
let c_fixed_vars = Obs.Counter.get "milp.fixed_vars"
let c_checkpoints = Obs.Counter.get "milp.checkpoints"
let c_recoveries = Obs.Counter.get "milp.recoveries"
let c_stalls = Obs.Counter.get "milp.stalls"
let c_cuts_applied = Obs.Counter.get "milp.cuts_applied"
let c_cut_rounds = Obs.Counter.get "milp.cut_rounds"
let s_gap_closed_root = Obs.Series.get "milp.gap_closed_root"
let s_incumbents = Obs.Series.get "milp.incumbents"
let s_gap = Obs.Series.get "milp.exit_gap"
let s_conv = Obs.Series.get "milp.convergence"
let t_solve = Obs.Timer.get "milp.solve"

let status_label = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iter_limit"
  | Simplex.Time_limit -> "time_limit"

(* ------------------------------------------------------------------ *)
(* Node bounds: copy-on-branch chains                                  *)
(* ------------------------------------------------------------------ *)

(* A node's bounds are the root arrays plus a chain of single-entry
   tightenings, one [Tighten] per branch. Invariants: every chain entry is
   allocated once at branch time — while the parent's bounds are the
   materialized ones, so [prev] is exactly the parent's value — and never
   mutated afterwards; the root arrays are only mutated before the first
   branch (reduced-cost fixing). A node therefore costs O(1) memory
   instead of two O(n) array copies, and switching the working arrays
   between two nodes costs O(distance through their lowest common
   ancestor), not O(n). *)
type chain =
  | Root
  | Tighten of {
      j : int;
      side : Cert.side;
      v : float;  (** bound value at and below this node *)
      prev : float;  (** the parent's value, for undo *)
      depth : int;
      parent : chain;
    }

let chain_depth = function Root -> 0 | Tighten t -> t.depth

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

(* Rewrite [lb]/[ub] (currently holding [from_]'s bounds) into [target]'s
   bounds: undo up to the common ancestor, re-apply down to [target].
   Undos run deepest-first and applies shallowest-first, so stacked
   changes to the same variable resolve correctly. *)
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
  let d = min (chain_depth from_) (chain_depth target) in
  let a = undo_to from_ d in
  let b, applies = collect_to target d [] in
  let applies = meet a b applies in
  List.iter (apply_entry lb ub) applies

type node = {
  nid : int;
      (** creation-order certificate id from a dedicated counter; 0 at the
          root. Distinct from the processing-order trace id: a child's nid
          exists before any domain picks it up, so the certificate's tree
          links are closed under work stealing. *)
  parent_nid : int;  (** -1 at the root *)
  bounds : chain;
  bound : float;  (** parent LP objective: the node's dual bound *)
  bvar : int;  (** variable branched to create this node; -1 at root *)
  bfrac : float;  (** fractional part of [bvar] in the parent LP *)
  dir_up : bool;  (** up child ([lb := ceil]) vs down child ([ub := floor]) *)
  mutable cancels : int;
      (** watchdog cancel count: the watchdog never cancels the same node
          twice, so a legitimately slow LP is cancelled at most once and
          then replays to completion (no cancel/requeue livelock) *)
}

(* The chain entry that created a node's box, as certificate data. *)
let branch_of (node : node) =
  match node.bounds with
  | Root -> None
  | Tighten t -> Some (t.j, t.side, t.v)

(* ------------------------------------------------------------------ *)
(* Branching                                                           *)
(* ------------------------------------------------------------------ *)

(* Per-variable pseudocosts ({!Checkpoint.pc}, the same table a
   checkpoint stores): observed objective degradation per unit of
   fractional distance, separately for the down and up branch. *)
let pc_create n =
  {
    Checkpoint.dn_sum = Array.make n 0.0;
    dn_n = Array.make n 0;
    up_sum = Array.make n 0.0;
    up_n = Array.make n 0;
  }

let pc_copy (pc : Checkpoint.pc) =
  {
    Checkpoint.dn_sum = Array.copy pc.dn_sum;
    dn_n = Array.copy pc.dn_n;
    up_sum = Array.copy pc.up_sum;
    up_n = Array.copy pc.up_n;
  }

let pc_record (pc : Checkpoint.pc) ~j ~dir_up ~unit ~degrade =
  if unit > 1e-9 then
    if dir_up then begin
      pc.up_sum.(j) <- pc.up_sum.(j) +. (degrade /. unit);
      pc.up_n.(j) <- pc.up_n.(j) + 1
    end
    else begin
      pc.dn_sum.(j) <- pc.dn_sum.(j) +. (degrade /. unit);
      pc.dn_n.(j) <- pc.dn_n.(j) + 1
    end

(* Pseudocost branching seeded by priority: within the highest priority
   class having any fractionality, maximize the product of estimated
   degradations. Uninitialized variables use the average observed
   pseudocost; before any observation that degenerates to f·(1−f),
   i.e. plain most-fractional. *)
let pseudocost_branch raw ~int_tol ?priority (pc : Checkpoint.pc) x =
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
            p > !best_prio
            || (p = !best_prio
               && (score > !best_score +. 1e-12
                  || (score > !best_score -. 1e-12 && frac > !best_frac)))
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

let snap raw ~int_tol x =
  Array.mapi
    (fun j v ->
      if raw.Model.integer.(j) && Float.abs (v -. Float.round v) <= 100. *. int_tol
      then Float.round v
      else v)
    x

(* ------------------------------------------------------------------ *)
(* Parallel exploration                                                *)
(* ------------------------------------------------------------------ *)

(* PIPESYN_DOMAINS selects how many OCaml 5 domains explore the tree
   (default 1, a one-worker pool). Read per solve so drivers and tests
   can toggle it. *)
let domains_from_env () =
  match Sys.getenv_opt "PIPESYN_DOMAINS" with
  | None | Some "" -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> min d 64
      | _ -> 1)

(* Deterministic incumbent tie-breaking: among solutions whose objectives
   agree within the acceptance tolerance, the lexicographically smallest
   solution vector wins. Unlike an exploration-order node id, this key
   does not depend on which domain reached the solution first, so the
   final incumbent is stable run-to-run and across domain counts — and,
   by the same argument, across worker deaths, watchdog requeues and
   checkpoint/resume (all of which only permute exploration order). *)
let lex_less a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then false
    else if a.(i) < b.(i) -. 1e-9 then true
    else if a.(i) > b.(i) +. 1e-9 then false
    else go (i + 1)
  in
  go 0

(* Per-worker exploration context: every domain owns its bound arrays,
   its chain position, its Simplex warm-start state and its pseudocost
   table, so node LPs never share mutable solver state across domains.
   Chains are immutable and reference bound values relative to the
   post-fixing root arrays (identical in every context), which is what
   makes subtrees shippable between domains.

   Supervision fields: [w_cell] is the worker's cancellation cell and
   [w_dl] the worker deadline carrying it — the simplex polls [w_dl], so
   a watchdog {!Resilience.Deadline.cancel} lands within one poll
   interval. [w_beat] is the worker's last-progress wall instant,
   [w_nudge] asks the next LP to cold-refactorize (escalation rung 1),
   and [w_deaths] counts supervised recoveries of this slot. *)
type wctx = {
  wid : int;  (** worker slot; 0 is the coordinator *)
  wlb : float array;
  wub : float array;
  mutable wcur : chain;
  mutable wstate : Simplex.state option;
  mutable wpc : Checkpoint.pc;
  mutable w_iters : int;
  mutable w_limited : int;
  mutable w_warm : int;
  mutable wcerts : Cert.node list;
      (** per-worker certificate log, newest first; merged after join *)
  w_cell : Resilience.Deadline.cell;
  w_dl : Resilience.Deadline.t;
  w_beat : float Atomic.t;
  w_nudge : bool Atomic.t;
  mutable w_deaths : int;
  w_cnode : Obs.Counter.t;
      (** per-worker-domain node counter ([milp.nodes.d<wid>]); the
          resource probe reads its deltas for per-domain throughput *)
}

(* What processing one node asks of the scheduler. Children come in dive
   order: [near] (round-to-nearest) is explored next, [far] is the
   publishable sibling. [Cancelled] is a watchdog cancel caught mid-LP:
   the node is still open and must be requeued. *)
type outcome =
  | Leaf
  | Children of node * node  (** (near, far) *)
  | Cancelled
  | Stop_budget
  | Stop_unbounded

(* A worker slot survives at most this many supervised deaths before the
   failure is treated as systemic and propagated. *)
let max_worker_deaths = 3

let solve ?(time_limit = 60.0) ?(node_limit = 200_000) ?(max_lp_iters = 50_000)
    ?(gap_tol = 1e-6) ?(int_tol = 1e-6)
    ?(deadline = Resilience.Deadline.none) ?incumbent ?branch_priority
    ?domains ?(certificates = false) ?checkpoint ?resume ?stall_window
    ?cuts ?presolve model =
  let domains =
    match domains with
    | Some d -> max 1 (min d 64)
    | None -> domains_from_env ()
  in
  Obs.Timer.span t_solve @@ fun () ->
  Obs.Trace.span ~cat:"milp" "milp.solve"
    ~args:[ ("domains", Obs.Json.Int domains) ]
  @@ fun () ->
  Obs.Counter.incr c_solves;
  if Resilience.Fault.fires "milp.raise" then
    failwith "injected fault: milp.raise";
  (* The injected timeout models "budget exhausted before any incumbent":
     warm-start seeding is skipped so the solve reports Unknown, the
     hardest failure the cascade must absorb. *)
  let injected_timeout = Resilience.Fault.fires "milp.timeout" in
  let raw = Model.to_raw model in
  let cuts_on = Option.value cuts ~default:true in
  let presolve_on = Option.value presolve ~default:true in
  (* A resume replays the original run's presolve events and cut rows
     from the checkpoint instead of re-deriving them: its root box
     already includes the tightenings (plus fixings), so re-tightening
     would double-apply, and re-separating would change the row system
     the closed nodes' duals were taken over. These are the only two
     decisions a resume changes; everything else reads [start]. *)
  let resumed = Option.is_some resume in
  (* Root presolve: certified bound tightening on the model box. *)
  let presolve_events, lb0, ub0 =
    if presolve_on && (not resumed) && not injected_timeout then begin
      let lb, ub, evs = Presolve.tighten raw in
      if evs <> [] && Obs.recording () then
        Obs.emit ~cat:"milp" "milp.presolve"
          [ ("tightened", Obs.Json.Int (List.length evs)) ];
      (evs, lb, ub)
    end
    else ([], raw.lb, raw.ub)
  in
  let obj_of x =
    Array.fold_left ( +. ) 0.0 (Array.mapi (fun j v -> raw.obj.(j) *. v) x)
  in
  (* The caller's warm start, validated even when a checkpoint's
     incumbent supersedes it. Near-integral entries are snapped so the
     stored incumbent is exactly integral — the certificate audit checks
     integrality with zero tolerance, and [Model.check] already vouched
     for the unsnapped point at the contract tolerance. *)
  let seed =
    Option.map
      (fun x ->
        if Array.length x <> raw.n then
          invalid_arg "Milp.solve: incumbent length mismatch";
        (match
           Model.check model ~values:(fun v -> x.(Model.var_index v)) ()
         with
        | Error msg -> invalid_arg ("Milp.solve: infeasible incumbent: " ^ msg)
        | Ok () -> ());
        let x = snap raw ~int_tol x in
        (x, obj_of x))
      incumbent
  in
  (* A checkpoint is pinned to the exact model it was taken from:
     replaying a frontier into a different polytope would silently
     produce garbage, so a fingerprint mismatch is a caller error. The
     fingerprint is over the caller's model, before presolve or cuts:
     both are recorded in the checkpoint and replayed on resume, so the
     same source model always matches. *)
  let model_fp = lazy (Checkpoint.fingerprint raw) in
  (* The state the solve starts from. A resume loads it from the
     checkpoint; a fresh solve builds the same shape: a frontier holding
     only the unprocessed root (certificate id 0), the presolved box, the
     caller's incumbent and zeroed counters. From here on both are one
     path. *)
  let start =
    match resume with
    | Some ck ->
        if ck.Checkpoint.fingerprint <> Lazy.force model_fp then
          invalid_arg
            "Milp.solve: checkpoint fingerprint does not match the model";
        ck
    | None ->
        {
          Checkpoint.fingerprint = "" (* snapshots stamp [model_fp] *);
          domains;
          next_nid = 1;
          nodes_done = 0;
          lp_limited = 0;
          fixed_vars = 0;
          root_bound = neg_infinity;
          root_lb = lb0;
          root_ub = ub0;
          incumbent = seed;
          first_incumbent_s = Float.nan;
          elapsed_s = 0.0;
          frontier =
            [
              { Checkpoint.o_nid = 0; o_parent = -1; o_bound = neg_infinity;
                o_bvar = -1; o_bfrac = 0.0; o_dir_up = false; o_edits = [] };
            ];
          pc = [||];
          certs_on = true;
          cert_nodes = [];
          fixes = [];
          root_duals = None;
          presolve = presolve_events;
          cuts = [];
          meta = Obs.Json.Null;
        }
  in
  (* The row system nodes actually solve against: the model rows plus
     every applied cut. Extended by the root cut loop (fresh solves) or
     rebuilt from the checkpoint's cut log (resume — never
     re-separated, so node duals keep matching the extended system). *)
  let extend_raw base cs =
    if cs = [] then base
    else
      {
        base with
        Model.rows =
          Array.append base.Model.rows
            (Array.of_list (List.map (fun c -> c.Cert.cut_terms) cs));
        senses =
          Array.append base.Model.senses
            (Array.make (List.length cs) Model.Le);
        rhs =
          Array.append base.Model.rhs
            (Array.of_list (List.map (fun c -> c.Cert.cut_rhs) cs));
      }
  in
  let cuts_log = ref start.Checkpoint.cuts in
  if Obs.recording ~level:Obs.Log.Debug () then
    Obs.emit ~level:Obs.Log.Debug ~cat:"milp" "milp.model"
      [
        ("cols", Obs.Json.Int raw.Model.n);
        ( "integer",
          Obs.Json.Int
            (Array.fold_left
               (fun a b -> if b then a + 1 else a)
               0 raw.Model.integer) );
        ("rows", Obs.Json.Int (Array.length raw.Model.rows));
      ];
  let raw_solve = ref (extend_raw raw !cuts_log) in
  let cut_rounds = ref 0 in
  let cut_b0 = ref Float.nan in
  let cut_b1 = ref Float.nan in
  (* A resumed solve can only be as strong as its checkpoint: if the
     original run kept no certificates there is no prefix to extend. *)
  let certs_on = certificates && start.Checkpoint.certs_on in
  (* Certificate node ids: allocated at node creation, independent of the
     processing-order trace id. The counter continues from the start
     state, so new children never collide with the closed prefix. *)
  let next_nid = Atomic.make start.Checkpoint.next_nid in
  let alloc_nid () = Atomic.fetch_and_add next_nid 1 in
  let inc_log = ref [] in  (* accepted incumbents, newest first; under inc_m *)
  (* root bound-fixing events, newest first; written by the root's worker *)
  let fix_log = ref (List.rev start.Checkpoint.fixes) in
  let root_duals = ref start.Checkpoint.root_duals in
  (* Deadline-aware budget: whichever of the caller's deadline and the
     local time budget is tighter governs both the node loop and — via
     Simplex — every pivot inside a node. The clock is the monotonized
     wall clock ({!Obs.Clock.wall}), so the budget means the same thing
     at every domain count. *)
  let dl = Resilience.Deadline.clip deadline ~budget:time_limit in
  let t0 = Obs.Clock.wall () in
  let cpu0 = Obs.Clock.cpu () in
  (* Solve time is cumulative: the start state's consumed seconds (0 on
     a fresh solve) plus this run's. *)
  let prior_s = start.Checkpoint.elapsed_s in
  let elapsed () = Obs.Clock.wall () -. t0 +. prior_s in
  (* Shared incumbent: [best_obj] is the lock-free pruning bound (reads
     may be stale by at most one improvement — only ever too weak, never
     unsound); [inc_m] serializes updates so the accept decision and the
     [best_x] write are one step. *)
  let inc_m = Mutex.create () in
  let best_x = ref None in
  let best_obj = Atomic.make infinity in
  let have_inc () = Float.is_finite (Atomic.get best_obj) in
  let first_inc = ref start.Checkpoint.first_incumbent_s in
  let nodes = Atomic.make start.Checkpoint.nodes_done in
  (* Convergence timeline: one point (and one event) per incumbent,
     carrying the relative incumbent/bound gap at that moment.
     Observational only. *)
  let note_incumbent ?(tid = 1) ~obj ~gap ~node ~depth ~seeded () =
    if Float.is_nan !first_inc then first_inc := elapsed ();
    Obs.Series.add s_conv ~x:(elapsed ()) ~y:gap;
    if Obs.recording () then
      Obs.emit ~cat:"milp" ~tid "milp.incumbent"
        [
          ("objective", Obs.Json.Float obj);
          ("gap", Obs.Json.Float gap);
          ("node", Obs.Json.Int node);
          ("depth", Obs.Json.Int depth);
          ("seeded", Obs.Json.Bool seeded);
        ]
  in
  (* One seeded incumbent: the start state's (a checkpoint's incumbent
     was accepted by the original run's deterministic tie-breaking,
     which is exactly the state resume must reproduce), else the
     caller's. The seeded id -1 is the convention the audit accepts. *)
  (match (start.Checkpoint.incumbent, seed) with
  | _ when injected_timeout -> ()
  | Some (x, obj), _ | None, Some (x, obj) ->
      best_x := Some (Array.copy x);
      Atomic.set best_obj obj;
      if certs_on then inc_log := [ (-1, obj) ];
      Obs.Counter.incr c_incumbents;
      Obs.Series.add s_incumbents ~x:(elapsed ()) ~y:obj;
      (* No relaxation solved yet, so no dual bound: gap unknown. *)
      note_incumbent ~obj ~gap:Float.nan ~node:0 ~depth:0 ~seeded:true ()
  | None, None -> ());
  let fixed_vars = ref start.Checkpoint.fixed_vars in
  let root_bound = ref start.Checkpoint.root_bound in
  let budget_hit = ref false in
  let infeasible_root = ref false in
  let unbounded_root = ref false in
  let stopped_unbounded = ref false in
  let budget () =
    injected_timeout
    || Resilience.Deadline.expired dl
    || Atomic.get nodes >= node_limit
  in
  let mk_wctx wid lb ub =
    (* Restore this slot's pseudocost table from the start state when it
       carries one (extra slots of a wider resume start fresh). *)
    let wpc =
      let pcs = start.Checkpoint.pc in
      if wid < Array.length pcs && Array.length pcs.(wid).dn_sum = raw.n then
        pc_copy pcs.(wid)
      else pc_create raw.n
    in
    let cell = Resilience.Deadline.new_cell () in
    { wid; wlb = lb; wub = ub; wcur = Root; wstate = None; wpc;
      w_iters = 0; w_limited = 0; w_warm = 0; wcerts = [];
      w_cell = cell; w_dl = Resilience.Deadline.with_cancel dl cell;
      w_beat = Atomic.make (Obs.Clock.wall ());
      w_nudge = Atomic.make false; w_deaths = 0;
      w_cnode = Obs.Counter.get ("milp.nodes.d" ^ string_of_int wid) }
  in
  (* The coordinator context is created up front because the
     supervision layer — watchdog, checkpointer, crash recovery —
     observes it for the whole solve. It carries the start state's
     closed prefix (unsolved-pruned count, certificate log), and its
     arrays start at the start state's root box, which is the box every
     serialized chain's [prev] values are relative to. *)
  let w0 =
    mk_wctx 0
      (Array.copy start.Checkpoint.root_lb)
      (Array.copy start.Checkpoint.root_ub)
  in
  w0.w_limited <- start.Checkpoint.lp_limited;
  w0.wcerts <- start.Checkpoint.cert_nodes;
  (* The root box every subtree inherits: the start state's, replaced by
     the post-fixing box when the root completes. Helper contexts copy
     it, snapshots record it and the certificate carries it, so resumed
     chains rebuild against identical arrays. *)
  let root_box_lb = ref (Array.copy start.Checkpoint.root_lb) in
  let root_box_ub = ref (Array.copy start.Checkpoint.root_ub) in
  (* ------------------------ supervision state ------------------------ *)
  (* [pool_m] guards the shared deque [q]/[qlen], every private stack in
     [wlocal], and the lease table [wlease]. A lease is the subtree a
     worker currently holds in its hands: set when a node is taken,
     cleared in the same critical section that retires or republishes it,
     so at every instant each open node is in exactly one of
     {q, some wlocal, some lease} — the invariant that makes snapshots
     complete and crash recovery lossless. *)
  let pool_m = Mutex.create () in
  let pool_cv = Condition.create () in
  let q = ref [] in
  let qlen = ref 0 in
  let qcap = max 64 (8 * domains) in
  let wlocal = Array.init domains (fun _ -> ref []) in
  let wlease : node option array = Array.make domains None in
  let all_wctxs = Atomic.make [| w0 |] in
  let n_recoveries = ref 0 in (* guarded by pool_m *)
  let n_checkpoints = ref 0 in (* guarded by pool_m *)
  let n_stalls = Atomic.make 0 in
  let last_ck = ref (Obs.Clock.wall ()) in
  let next_ck_nodes =
    ref
      (match checkpoint with
      | Some { ck_every_nodes = Some n; _ } -> Atomic.get nodes + n
      | _ -> max_int)
  in
  (* Serialize a node's chain as root→leaf edits; rebuild on resume. The
     rebuilt chains are disjoint from each other, which [goto] handles
     (its meet walks both chains to Root), so per-node rebuild is
     correct without reconstructing the shared tree shape. *)
  let edits_of_chain c =
    let rec go acc = function
      | Root -> acc
      | Tighten t ->
          go
            ({ Checkpoint.e_j = t.j; e_side = t.side; e_v = t.v;
               e_prev = t.prev }
            :: acc)
            t.parent
    in
    go [] c
  in
  let open_of_node (n : node) =
    {
      Checkpoint.o_nid = n.nid;
      o_parent = n.parent_nid;
      o_bound = n.bound;
      o_bvar = n.bvar;
      o_bfrac = n.bfrac;
      o_dir_up = n.dir_up;
      o_edits = edits_of_chain n.bounds;
    }
  in
  let node_of_open (o : Checkpoint.open_node) =
    let _, chain =
      List.fold_left
        (fun (d, parent) (e : Checkpoint.edit) ->
          ( d + 1,
            Tighten
              { j = e.Checkpoint.e_j; side = e.Checkpoint.e_side;
                v = e.Checkpoint.e_v; prev = e.Checkpoint.e_prev;
                depth = d + 1; parent } ))
        (0, Root) o.Checkpoint.o_edits
    in
    { nid = o.Checkpoint.o_nid; parent_nid = o.Checkpoint.o_parent;
      bounds = chain; bound = o.Checkpoint.o_bound;
      bvar = o.Checkpoint.o_bvar; bfrac = o.Checkpoint.o_bfrac;
      dir_up = o.Checkpoint.o_dir_up; cancels = 0 }
  in
  (* Every open node, wherever it currently lives. Under [pool_m]. *)
  let frontier_locked () =
    let leases =
      Array.fold_right
        (fun l acc -> match l with Some n -> n :: acc | None -> acc)
        wlease []
    in
    let locals = Array.fold_right (fun r acc -> !r @ acc) wlocal [] in
    leases @ locals @ !q
  in
  (* Dual bound over every open node except [wid]'s own lease: the node
     that worker holds is integral, so [obj], its value, bounds it. Takes
     [pool_m], so callers must not hold [inc_m] (lock order pool_m ≺
     inc_m, see [snapshot_locked]). *)
  let open_bound ~wid obj =
    let lo = ref obj in
    let see (n : node) = lo := Float.min !lo n.bound in
    Mutex.lock pool_m;
    Array.iteri (fun i l -> if i <> wid then Option.iter see l) wlease;
    Array.iter (fun r -> List.iter see !r) wlocal;
    List.iter see !q;
    Mutex.unlock pool_m;
    !lo
  in
  (* Deterministic incumbent acceptance (any domain): strictly better
     objectives always replace; objectives tied within tolerance fall
     back to the lexicographic solution-vector order, so the surviving
     incumbent does not depend on which domain raced in first. [best_obj]
     only decreases, so a candidate failing the lock-free pre-check can
     never be accepted and skips both locks. Returns whether [x] became
     the incumbent. *)
  let try_improve ~wid ~node_id ~nid ~depth x obj =
    obj <= Atomic.get best_obj +. 1e-9
    && begin
      let lo = open_bound ~wid obj in
      Mutex.lock inc_m;
      let cur = Atomic.get best_obj in
      let accept =
        obj < cur -. 1e-9
        || obj <= cur +. 1e-9
           &&
           match !best_x with None -> true | Some bx -> lex_less x bx
      in
      if accept then begin
        Atomic.set best_obj obj;
        best_x := Some x;
        if certs_on then inc_log := (nid, obj) :: !inc_log;
        Obs.Counter.incr c_incumbents;
        Obs.Series.add s_incumbents ~x:(elapsed ()) ~y:obj;
        let gap_now =
          if Float.is_finite lo then
            Float.abs (obj -. lo) /. Float.max 1.0 (Float.abs obj)
          else Float.nan
        in
        note_incumbent ~tid:(wid + 1) ~obj ~gap:gap_now ~node:node_id ~depth
          ~seeded:false ()
      end;
      Mutex.unlock inc_m;
      accept
    end
  in
  let snapshot_locked () =
    let ws = Atomic.get all_wctxs in
    (* Lock order pool_m ≺ inc_m: workers only ever take inc_m while not
       holding pool_m, so this nesting cannot deadlock. *)
    Mutex.lock inc_m;
    let inc =
      match !best_x with
      | Some x -> Some (Array.copy x, Atomic.get best_obj)
      | None -> None
    in
    Mutex.unlock inc_m;
    {
      Checkpoint.fingerprint = Lazy.force model_fp;
      domains;
      next_nid = Atomic.get next_nid;
      nodes_done = Atomic.get nodes;
      lp_limited = Array.fold_left (fun a w -> a + w.w_limited) 0 ws;
      fixed_vars = !fixed_vars;
      root_bound = !root_bound;
      root_lb = Array.copy !root_box_lb;
      root_ub = Array.copy !root_box_ub;
      incumbent = inc;
      first_incumbent_s = !first_inc;
      elapsed_s = elapsed ();
      frontier = List.map open_of_node (frontier_locked ());
      pc = Array.map (fun w -> pc_copy w.wpc) ws;
      certs_on;
      cert_nodes =
        Array.fold_left (fun acc w -> List.rev_append w.wcerts acc) [] ws;
      fixes = List.rev !fix_log;
      root_duals = !root_duals;
      presolve = start.Checkpoint.presolve;
      cuts = !cuts_log;
      meta = (match checkpoint with Some s -> s.ck_meta | None -> Obs.Json.Null);
    }
  in
  (* Called under [pool_m] from node-completion sections. [force] is the
     final flush at solve exit. *)
  let write_checkpoint_locked ~force () =
    match checkpoint with
    | None -> ()
    | Some s ->
        let nodes_now = Atomic.get nodes in
        let due =
          force
          || Obs.Clock.wall () -. !last_ck >= s.ck_every_s
          || nodes_now >= !next_ck_nodes
        in
        if due then begin
          last_ck := Obs.Clock.wall ();
          (match s.ck_every_nodes with
          | Some n -> next_ck_nodes := nodes_now + n
          | None -> ());
          Checkpoint.write ~path:s.ck_path (snapshot_locked ());
          incr n_checkpoints;
          if Obs.recording () then
            Obs.emit ~cat:"milp" "milp.checkpoint"
              [
                ("nodes", Obs.Json.Int nodes_now);
                ("path", Obs.Json.String s.ck_path);
              ]
        end
  in
  let note_recovery (w : wctx) e =
    if Obs.recording ~level:Obs.Log.Warn () then
      Obs.emit ~level:Obs.Log.Warn ~cat:"milp" ~tid:(w.wid + 1)
        "milp.recovery"
        [
          ("worker", Obs.Json.Int w.wid);
          ("error", Obs.Json.String (Printexc.to_string e));
          ("death", Obs.Json.Int w.w_deaths);
        ]
  in
  (* Supervised worker death. Returns whether the slot recovered: the
     leased node and the worker's whole private stack go back to the
     shared deque (no subtree is lost), the solver state and pseudocost
     table reset, and the worker keeps taking work. Resource exhaustion
     and slots past their death budget are systemic — not recovered. *)
  let recover (w : wctx) e =
    match e with
    | Out_of_memory | Stack_overflow -> false
    | _ when w.w_deaths >= max_worker_deaths -> false
    | _ ->
        w.w_deaths <- w.w_deaths + 1;
        w.wstate <- None;
        w.wpc <- pc_create raw.n;
        Resilience.Deadline.clear_cell w.w_cell;
        Atomic.set w.w_nudge false;
        Mutex.lock pool_m;
        (* Park the lease, then the private stack top-down, at the
           deque's steal end: the next take replays the dead node first,
           then resumes the interrupted dive in its original order. *)
        let parked = Option.to_list wlease.(w.wid) @ !(wlocal.(w.wid)) in
        wlease.(w.wid) <- None;
        wlocal.(w.wid) := [];
        q := !q @ List.rev parked;
        qlen := !qlen + List.length parked;
        incr n_recoveries;
        Condition.broadcast pool_cv;
        Mutex.unlock pool_m;
        note_recovery w e;
        true
  in
  let solve_node (w : wctx) (node : node) =
    (* Consume a watchdog nudge (escalation rung 1): drop the warm
       tableau so this LP refactorizes from scratch — the cheap fix for
       a numerically wedged basis. *)
    if Atomic.get w.w_nudge then begin
      Atomic.set w.w_nudge false;
      w.wstate <- None
    end;
    goto ~lb:w.wlb ~ub:w.wub ~from_:w.wcur node.bounds;
    w.wcur <- node.bounds;
    match w.wstate with
    | None ->
        (* Cold builds read [!raw_solve], the cut-extended system:
           workers that start after the root cut rounds (and resumed
           solves) inherit every applied cut. *)
        let r, st =
          Simplex.solve_state ~max_iters:max_lp_iters ~deadline:w.w_dl
            ~lb:w.wlb ~ub:w.wub !raw_solve
        in
        w.wstate <- Some st;
        r
    | Some st ->
        let r =
          Simplex.resolve ~max_iters:max_lp_iters ~deadline:w.w_dl ~lb:w.wlb
            ~ub:w.wub st
        in
        if Simplex.last_resolve_warm st then w.w_warm <- w.w_warm + 1;
        r
  in
  (* Reduced-cost bound fixing at the root: with an incumbent of value
     [z*] and a root relaxation of value [z0], any solution moving an
     integer variable off the bound it is nonbasic at costs at least its
     reduced cost [|d_j|]; if [|d_j| > z* - z0] every such solution is
     strictly worse than the incumbent, so the variable can be fixed —
     shrinking the space the cut-selection binaries blow up. Must run
     before the first branch (the chain invariant above), which also
     means before worker contexts copy the root arrays. *)
  let fix_by_reduced_cost (w : wctx) root_obj =
    match w.wstate with
    | None -> ()
    | Some st ->
        let gap = Float.max 0.0 (Atomic.get best_obj -. root_obj) in
        if Float.is_finite gap then begin
          let before = !fixed_vars in
          for j = 0 to raw.n - 1 do
            if raw.integer.(j) && w.wub.(j) -. w.wlb.(j) > 0.5 then
              match Simplex.basis_status st j with
              | `At_lower when Simplex.reduced_cost st j > gap +. 1e-7 ->
                  w.wub.(j) <- w.wlb.(j);
                  if certs_on then fix_log := (j, Cert.Lower) :: !fix_log;
                  incr fixed_vars
              | `At_upper when -.(Simplex.reduced_cost st j) > gap +. 1e-7 ->
                  w.wlb.(j) <- w.wub.(j);
                  if certs_on then fix_log := (j, Cert.Upper) :: !fix_log;
                  incr fixed_vars
              | _ -> ()
          done;
          if !fixed_vars > before && Obs.recording ~level:Obs.Log.Debug ()
          then
            Obs.emit ~level:Obs.Log.Debug ~cat:"milp" "milp.fixed_vars"
              [ ("count", Obs.Json.Int (!fixed_vars - before)) ]
        end
  in
  (* Solve one node on worker [w]; returns the scheduling outcome and
     the node's certificate entry (the caller appends it inside its
     completion critical section, so snapshots never see a half-recorded
     node).

     Fault sites: [milp.worker_kill] kills the worker at entry, before
     the node is counted — the supervisor replays its lease.
     [milp.stall] wedges the worker here with no progress, which is what
     the watchdog's escalation ladder must unstick. *)
  let process (w : wctx) (node : node) :
      outcome * Cert.node option =
    if Resilience.Fault.fires "milp.worker_kill" then raise Worker_killed;
    if Resilience.Fault.fires "milp.stall" then
      while not (Resilience.Deadline.expired w.w_dl) do
        Domain.cpu_relax ()
      done;
    let node_id = 1 + Atomic.fetch_and_add nodes 1 in
    (* Counted live (not bulk at solve exit) so the resource probe sees
       node and pivot throughput mid-solve; the per-worker counter
       feeds the per-domain rate series. *)
    Obs.Counter.incr c_nodes;
    Obs.Counter.incr w.w_cnode;
    let depth = chain_depth node.bounds in
    let r = solve_node w node in
    w.w_iters <- w.w_iters + r.Simplex.iterations;
    Obs.Counter.incr ~by:r.Simplex.iterations c_pivots;
    if Obs.recording ~level:Obs.Log.Debug () then begin
      let warm =
        match w.wstate with
        | Some st -> Simplex.last_resolve_warm st
        | None -> false
      in
      Obs.emit ~level:Obs.Log.Debug ~cat:"milp" ~tid:(w.wid + 1) "milp.node"
          [
            ("n", Obs.Json.Int node_id);
            ("depth", Obs.Json.Int depth);
            ("bvar", Obs.Json.Int node.bvar);
            ("status", Obs.Json.String (status_label r.Simplex.status));
            ("warm", Obs.Json.Bool warm);
            ("bound", Obs.Json.Float r.Simplex.objective);
            ("domain", Obs.Json.Int w.wid);
          ]
    end;
    if depth = 0 then begin
      root_bound := r.Simplex.objective;
      (match r.Simplex.status with
      | Simplex.Infeasible -> infeasible_root := true
      | Simplex.Unbounded -> unbounded_root := true
      | Simplex.Optimal | Simplex.Iteration_limit | Simplex.Time_limit -> ());
      (* The pre-fixing root duals ground the CERT audit of every
         reduced-cost fixing event, so capture them before [fix_by_
         reduced_cost] runs below. *)
      if certs_on && r.Simplex.status = Simplex.Optimal then
        root_duals :=
          (match w.wstate with Some st -> Simplex.duals st | None -> None)
    end;
    (* Certificate fathom record: set by the branch taken below, emitted
       once on the way out. *)
    let fathom = ref Cert.F_budget in
    let outcome =
      match r.Simplex.status with
      | Simplex.Infeasible ->
          fathom := Cert.F_infeasible;
          Leaf
      | Simplex.Unbounded ->
          (* With integer bounds intact this means the MILP is unbounded
             (or numerically hopeless); stop exploring. *)
          Stop_unbounded
      | Simplex.Time_limit ->
          (* The worker deadline ran out mid-pivot. A watchdog cancel
             means only this worker was unwedged — the node is requeued
             and the solve goes on; genuine time expiry stops the solve
             like the between-node budget check. Either way the node is
             still open, so it gets no certificate entry. *)
          if Resilience.Deadline.cancelled w.w_dl then Cancelled
          else Stop_budget
      | Simplex.Iteration_limit ->
          (* Pruning an unsolved subproblem is unsound for optimality
             claims, so count it: any such node demotes Optimal to
             Feasible below. *)
          w.w_limited <- w.w_limited + 1;
          if Obs.recording ~level:Obs.Log.Warn () then
            Obs.emit ~level:Obs.Log.Warn ~cat:"milp" ~tid:(w.wid + 1)
              "milp.lp_limit"
              [ ("node", Obs.Json.Int node_id); ("depth", Obs.Json.Int depth) ];
          Leaf
      | Simplex.Optimal ->
          if node.bvar >= 0 then
            pc_record w.wpc ~j:node.bvar ~dir_up:node.dir_up
              ~unit:(if node.dir_up then 1.0 -. node.bfrac else node.bfrac)
              ~degrade:(Float.max 0.0 (r.Simplex.objective -. node.bound));
          if depth = 0 && have_inc () then
            fix_by_reduced_cost w r.Simplex.objective;
          if r.Simplex.objective >= Atomic.get best_obj -. 1e-9 && have_inc ()
          then begin
            fathom := Cert.F_bound;
            Leaf
          end
          else begin
            let j =
              pseudocost_branch raw ~int_tol ?priority:branch_priority w.wpc
                r.Simplex.x
            in
            if j < 0 then begin
              (* integral: candidate incumbent *)
              let x = snap raw ~int_tol r.Simplex.x in
              (* A rejected point is no better than the incumbent. The LP
                 objective can still sit a few 1e-9 below it, when
                 snapping rounds the point's objective up to a tie, so the
                 leaf is fathomed by that bound: recording it as an
                 integral leaf would claim an integer point better than
                 the final objective. *)
              fathom :=
                if
                  try_improve ~wid:w.wid ~node_id ~nid:node.nid ~depth x
                    (obj_of x)
                then Cert.F_integral
                else Cert.F_bound;
              Leaf
            end
            else begin
              let v = r.Simplex.x.(j) in
              let fl = Float.of_int (int_of_float (floor v)) in
              (* wlb/wub currently hold this node's bounds, so [prev]
                 reads the parent value the chain invariant needs. *)
              let down =
                { nid = alloc_nid (); parent_nid = node.nid;
                  bounds =
                    Tighten
                      { j; side = Cert.Upper; v = fl; prev = w.wub.(j);
                        depth = depth + 1; parent = node.bounds };
                  bound = r.Simplex.objective; bvar = j;
                  bfrac = v -. fl; dir_up = false; cancels = 0 }
              and up =
                { nid = alloc_nid (); parent_nid = node.nid;
                  bounds =
                    Tighten
                      { j; side = Cert.Lower; v = fl +. 1.0; prev = w.wlb.(j);
                        depth = depth + 1; parent = node.bounds };
                  bound = r.Simplex.objective; bvar = j;
                  bfrac = v -. fl; dir_up = true; cancels = 0 }
              in
              fathom :=
                Cert.F_branched
                  { bvar = j; down_id = down.nid; down_ub = fl;
                    up_id = up.nid; up_lb = fl +. 1.0 };
              (* Dive toward the nearest integer first. *)
              if v -. fl <= 0.5 then Children (down, up)
              else Children (up, down)
            end
          end
    in
    let cert =
      match outcome with
      (* A cancelled or budget-cut node stays open (requeued / left in
         the frontier), so it must not appear closed in the node log —
         a resumed solve will process it for real. *)
      | Cancelled | Stop_budget -> None
      | _ when not certs_on -> None
      | _ ->
          Some
            { Cert.id = node.nid; parent = node.parent_nid;
              branch = branch_of node; depth; domain = w.wid;
              claim =
                (match r.Simplex.status with
                | Simplex.Optimal -> (
                    match Option.bind w.wstate Simplex.duals with
                    | Some d ->
                        Cert.Lp_optimal
                          { obj = r.Simplex.objective; duals = d }
                    | None -> Cert.Lp_unsolved)
                | Simplex.Infeasible ->
                    Cert.Lp_infeasible
                      (Option.bind w.wstate Simplex.last_infeasibility)
                | Simplex.Unbounded | Simplex.Iteration_limit
                | Simplex.Time_limit ->
                    Cert.Lp_unsolved);
              bound =
                (match r.Simplex.status with
                | Simplex.Optimal -> r.Simplex.objective
                | _ -> node.bound);
              incumbent_at = Atomic.get best_obj; fathom = !fathom }
    in
    (outcome, cert)
  in
  (* Nodes pruned on their parent's bound before any LP solve still need a
     pruning-log entry: their soundness is audited against the nearest
     ancestor's dual certificate. *)
  let dominated_cert (w : wctx) (node : node) =
    if not certs_on then None
    else
      Some
        { Cert.id = node.nid; parent = node.parent_nid;
          branch = branch_of node; depth = chain_depth node.bounds;
          domain = w.wid; claim = Cert.Lp_unsolved; bound = node.bound;
          incumbent_at = Atomic.get best_obj; fathom = Cert.F_dominated }
  in
  let dominated (node : node) =
    let b = Atomic.get best_obj in
    Float.is_finite b && node.bound >= b -. 1e-9
  in
  (* Minimum dual bound over nodes left open when exploration stops
     early; infinity after an exhaustive run. *)
  let open_bound_end = ref infinity in
  (* ---------------------- stall watchdog ----------------------------- *)
  (* A dedicated domain that checks each worker's heartbeat against the
     stall window. Escalation ladder (DESIGN.md §3i): a worker whose
     lease has made no progress for a full window first gets a nudge
     (cold refactorization on its next LP); if the same wedged lease is
     still there on a later tick, its node is cancelled through the
     worker's deadline cell and requeued. Each node is cancelled at most
     once, so a merely-slow LP replays to completion. *)
  let wd_stop = Atomic.make false in
  let stall_note (w : wctx) level =
    ignore (Atomic.fetch_and_add n_stalls 1);
    if Obs.recording ~level:Obs.Log.Warn () then
      Obs.emit ~level:Obs.Log.Warn ~cat:"milp" ~tid:(w.wid + 1) "milp.stall"
        [ ("worker", Obs.Json.Int w.wid); ("level", Obs.Json.String level) ]
  in
  let watchdog win =
    (* Per-slot beat value at the last nudge: a second trip over the same
       beat means the nudge did not help — escalate to cancel. *)
    let nudged : (int, float) Hashtbl.t = Hashtbl.create 8 in
    let tick = Float.max 0.005 (win /. 4.0) in
    while not (Atomic.get wd_stop) do
      Unix.sleepf tick;
      if not (Atomic.get wd_stop) then begin
        let now_ = Obs.Clock.wall () in
        Array.iter
          (fun (w : wctx) ->
            Mutex.lock pool_m;
            let lease = wlease.(w.wid) in
            Mutex.unlock pool_m;
            match lease with
            | None -> Hashtbl.remove nudged w.wid
            | Some node ->
                let beat = Atomic.get w.w_beat in
                if now_ -. beat > win then begin
                  if Hashtbl.find_opt nudged w.wid <> Some beat then begin
                    Hashtbl.replace nudged w.wid beat;
                    Atomic.set w.w_nudge true;
                    stall_note w "nudge"
                  end
                  else if node.cancels = 0 then begin
                    node.cancels <- 1;
                    Resilience.Deadline.cancel w.w_cell;
                    stall_note w "cancel"
                  end
                end)
          (Atomic.get all_wctxs)
      end
    done
  in
  let wd_dom =
    match stall_window with
    | Some win when win > 0.0 && not injected_timeout ->
        Some (Domain.spawn (fun () -> watchdog win))
    | _ -> None
  in
  (* ------------------------- worker pool ---------------------------- *)
  (* Work distribution: each domain dives depth-first on a private stack;
     after every branch it keeps the near child and publishes the far
     child to a bounded shared deque (oldest entries are the shallowest,
     i.e. largest, subtrees). Idle domains steal from the old end of the
     deque; when the deque overflows its bound, siblings stay private.
     Termination: [pending] counts pushed-but-unfinished nodes; the
     decrement that reaches zero wakes every sleeper. Every taken node is
     leased until its completion section runs, so worker deaths replay
     exactly the in-flight subtrees and snapshots are complete.

     [domains = 1] is a pool of one worker with no thief to feed: every
     seed node and both children of every branch stay on its private
     stack, and a node it takes back from the deque (parked there by
     recovery) is not a steal. It therefore explores depth-first, near
     child first, in a fixed order.

     The root is the pool's first node, and worker 0 alone takes it:
     reduced-cost fixing rewrites the root box in place, so the root must
     be retired before any helper copies that box. Worker 0 therefore runs
     the pool's own take/process/complete steps until no root is open,
     and only then are the helper contexts copied from its post-fixing
     box and spawned. A frontier without the root spawns them at once. *)
  let run_pool (init : node list) =
    let thieves = domains > 1 in
    (match init with
    | first :: rest when thieves ->
        wlocal.(0) := [ first ];
        q := rest;
        qlen := List.length rest
    | _ -> wlocal.(0) := init);
    let pending = Atomic.make (List.length init) in
    let stop : [ `Budget | `Unbounded | `Exn of exn ] option Atomic.t =
      Atomic.make None
    in
    (* Under [pool_m]. *)
    let request_stop_locked r =
      if Atomic.compare_and_set stop None (Some r) then
        Condition.broadcast pool_cv
    in
    (* Steal the oldest (shallowest) published node. Called under
       [pool_m]; O(qcap) worst case, and qcap is small. *)
    let steal () =
      match !q with
      | [] -> None
      | l ->
          let rec split_last acc = function
            | [ x ] -> (acc, x)
            | x :: tl -> split_last (x :: acc) tl
            | [] -> assert false
          in
          let rev_rest, last = split_last [] l in
          q := List.rev rev_rest;
          decr qlen;
          Some last
    in
    let finish_pending () =
      if Atomic.fetch_and_add pending (-1) = 1 then
        Condition.broadcast pool_cv
    in
    (* Take the next node: own stack first, else steal; leases it before
       releasing the lock. Returns [(node, stolen)]. *)
    let take (w : wctx) =
      Mutex.lock pool_m;
      let rec wait_loop () =
        if Atomic.get stop <> None then None
        else
          match !(wlocal.(w.wid)) with
          | n :: rest ->
              wlocal.(w.wid) := rest;
              Some (n, false)
          | [] -> (
              match steal () with
              | Some n -> Some (n, thieves)
              | None ->
                  if Atomic.get pending = 0 then None
                  else begin
                    Condition.wait pool_cv pool_m;
                    wait_loop ()
                  end)
      in
      let r = wait_loop () in
      (match r with
      | Some (n, _) -> wlease.(w.wid) <- Some n
      | None -> ());
      Mutex.unlock pool_m;
      (match r with
      | Some _ -> Atomic.set w.w_beat (Obs.Clock.wall ())
      | None -> ());
      r
    in
    (* One critical section retires (or republishes) the node, appends
       its certificate and clears the lease, so the frontier invariant
       holds at every instant a snapshot could be taken. *)
    let complete (w : wctx) (node : node) outcome cert =
      Mutex.lock pool_m;
      (match cert with Some c -> w.wcerts <- c :: w.wcerts | None -> ());
      (* [w] still sits at the root chain, so after the root its arrays
         hold the post-fixing box every subtree inherits. *)
      if chain_depth node.bounds = 0 then begin
        root_box_lb := Array.copy w.wlb;
        root_box_ub := Array.copy w.wub
      end;
      (match outcome with
      | Leaf ->
          wlease.(w.wid) <- None;
          finish_pending ()
      | Children (near, far) ->
          (* count the children before retiring the parent so [pending]
             can never dip to 0 with work in flight *)
          ignore (Atomic.fetch_and_add pending 2);
          let published = thieves && !qlen < qcap in
          if published then begin
            q := far :: !q;
            incr qlen;
            Condition.signal pool_cv
          end;
          wlocal.(w.wid) :=
            (if published then [ near ] else [ near; far ])
            @ !(wlocal.(w.wid));
          wlease.(w.wid) <- None;
          finish_pending ()
      | Cancelled ->
          (* watchdog unwedge: the node is still open — requeue it at
             the steal end for any worker to replay, and re-arm this
             worker's cell *)
          q := !q @ [ node ];
          incr qlen;
          wlease.(w.wid) <- None;
          Resilience.Deadline.clear_cell w.w_cell;
          incr n_recoveries;
          Condition.signal pool_cv
      | Stop_budget ->
          (* mid-LP budget stop: the node stays open for the exit gap
             and the final checkpoint *)
          wlocal.(w.wid) := node :: !(wlocal.(w.wid));
          wlease.(w.wid) <- None;
          request_stop_locked `Budget
      | Stop_unbounded ->
          wlease.(w.wid) <- None;
          request_stop_locked `Unbounded;
          finish_pending ());
      write_checkpoint_locked ~force:false ();
      Mutex.unlock pool_m;
      Atomic.set w.w_beat (Obs.Clock.wall ())
    in
    let worker ?(until = fun () -> false) (w : wctx) =
      let rec loop () =
        match if until () then None else take w with
        | None -> ()
        | Some (node, stolen) ->
            (if budget () then begin
               Mutex.lock pool_m;
               (* keep the in-hand node's bound for the exit gap *)
               wlocal.(w.wid) := node :: !(wlocal.(w.wid));
               wlease.(w.wid) <- None;
               request_stop_locked `Budget;
               Mutex.unlock pool_m
             end
             else if
               stolen && Resilience.Fault.fires "milp.steal_drop"
             then begin
               (* the thief dies at the steal handoff, taking the entry
                  with it: recover as a worker death so the leased node
                  replays instead of vanishing *)
               if not (recover w Worker_killed) then raise Worker_killed
             end
             else if dominated node then begin
               let c = dominated_cert w node in
               Mutex.lock pool_m;
               (match c with
               | Some c -> w.wcerts <- c :: w.wcerts
               | None -> ());
               wlease.(w.wid) <- None;
               finish_pending ();
               Mutex.unlock pool_m
             end
             else
               match process w node with
               | exception ((Out_of_memory | Stack_overflow) as e) ->
                   raise e
               | exception e when recover w e -> ()
               | exception e -> raise e
               | outcome, cert -> complete w node outcome cert);
            loop ()
      in
      try loop ()
      with e ->
        (* Unrecoverable (death budget spent, or resource exhaustion):
           requeue the lease so no subtree is silently lost, then stop
           the pool and propagate. *)
        Mutex.lock pool_m;
        (match wlease.(w.wid) with
        | Some n ->
            q := !q @ [ n ];
            incr qlen;
            wlease.(w.wid) <- None
        | None -> ());
        request_stop_locked (`Exn e);
        Mutex.unlock pool_m
    in
    let root_open () =
      Mutex.lock pool_m;
      let r =
        List.exists
          (fun (n : node) -> chain_depth n.bounds = 0)
          (frontier_locked ())
      in
      Mutex.unlock pool_m;
      r
    in
    worker ~until:(fun () -> not (root_open ())) w0;
    let wctxs =
      Array.init domains (fun i ->
          if i = 0 then w0
          else mk_wctx i (Array.copy w0.wlb) (Array.copy w0.wub))
    in
    Atomic.set all_wctxs wctxs;
    let spawned =
      Array.init (domains - 1) (fun i ->
          Domain.spawn (fun () -> worker wctxs.(i + 1)))
    in
    worker w0;
    Array.iter Domain.join spawned;
    (match Atomic.get stop with
    | Some (`Exn e) -> raise e
    | Some `Budget -> budget_hit := true
    | Some `Unbounded -> stopped_unbounded := true
    | None -> ());
    (* Merge per-domain counters into the coordinator's context so the
       stats assembly below has one source. *)
    Array.iter
      (fun (w : wctx) ->
        if w != w0 then begin
          w0.w_iters <- w0.w_iters + w.w_iters;
          w0.w_limited <- w0.w_limited + w.w_limited;
          w0.w_warm <- w0.w_warm + w.w_warm;
          w0.wcerts <- List.rev_append w.wcerts w0.wcerts
        end)
      wctxs
  in
  (* -------------------- root cutting planes -------------------------- *)
  (* Coordinator-only, before the root node is processed: solve the root
     relaxation once, then alternate separation (Chvátal–Gomory rounds
     from the warm tableau, knapsack covers from the model rows) with
     warm dual-simplex resolves. Every accepted cut is appended to
     [!raw_solve] and logged for the certificate, so the audit can
     re-derive it exactly and every later cold solver build sees it.
     The loop leaves its warm state in [w0.wstate]; root processing then
     resolves it in place (a no-op repair) and captures the post-cut
     bound and duals over the extended row system. *)
  let max_cut_rounds = 8 in
  let max_cuts_per_round = 20 in
  let root_cut_prep () =
    if cuts_on && not (budget ()) then begin
      let r0, st =
        Simplex.solve_state ~max_iters:max_lp_iters ~deadline:w0.w_dl
          ~lb:w0.wlb ~ub:w0.wub !raw_solve
      in
      w0.w_iters <- w0.w_iters + r0.Simplex.iterations;
      Obs.Counter.incr ~by:r0.Simplex.iterations c_pivots;
      w0.wstate <- Some st;
      if r0.Simplex.status = Simplex.Optimal then begin
        cut_b0 := r0.Simplex.objective;
        cut_b1 := r0.Simplex.objective;
        let pool = Cutgen.create () in
        let cur = ref r0 in
        let stop = ref false in
        while
          (not !stop) && !cut_rounds < max_cut_rounds && not (budget ())
        do
          let rawe = !raw_solve in
          let x = !cur.Simplex.x in
          List.iter (Cutgen.offer pool)
            (Cutgen.cg_cuts rawe ~lb:w0.wlb ~ub:w0.wub ~x ~int_tol
               ~multipliers:(Simplex.tableau_multipliers st));
          List.iter (Cutgen.offer pool)
            (Cutgen.cover_cuts rawe ~n_rows:(Array.length raw.Model.rows)
               ~lb:w0.wlb ~ub:w0.wub ~x);
          match Cutgen.select pool ~x ~max_cuts:max_cuts_per_round with
          | [] -> stop := true
          | chosen ->
              Simplex.add_rows st
                (Array.of_list
                   (List.map
                      (fun c -> (c.Cert.cut_terms, c.Cert.cut_rhs))
                      chosen));
              raw_solve := extend_raw rawe chosen;
              cuts_log := !cuts_log @ chosen;
              incr cut_rounds;
              let r =
                Simplex.resolve ~max_iters:max_lp_iters ~deadline:w0.w_dl
                  ~lb:w0.wlb ~ub:w0.wub st
              in
              w0.w_iters <- w0.w_iters + r.Simplex.iterations;
              Obs.Counter.incr ~by:r.Simplex.iterations c_pivots;
              (match r.Simplex.status with
              | Simplex.Optimal ->
                  let prev = !cut_b1 in
                  cut_b1 := r.Simplex.objective;
                  cur := r;
                  if Obs.recording () then
                    Obs.emit ~cat:"milp" "milp.cut_round"
                      [
                        ("round", Obs.Json.Int !cut_rounds);
                        ("added", Obs.Json.Int (List.length chosen));
                        ("pool", Obs.Json.Int (Cutgen.pending pool));
                        ("bound0", Obs.Json.Float !cut_b0);
                        ("bound", Obs.Json.Float r.Simplex.objective);
                      ];
                  (* Diminishing returns: a round that moves the bound by
                     less than a relative 1e-9 will not close the tree
                     any faster — stop separating (a second batch of
                     stalled cuts measurably slows every node LP for
                     nothing). *)
                  if
                    r.Simplex.objective -. prev
                    <= 1e-9 *. (1.0 +. Float.abs prev)
                  then stop := true
              | _ ->
                  (* Iteration/time limit mid-resolve: keep the cuts (they
                     are valid regardless) and let node processing deal
                     with the unfinished LP. *)
                  stop := true)
        done;
        (* Cuts pay rent only if they moved the root bound: every cut
           row slows every node LP in the tree (and perturbs the node
           ordering), so a separation pass that failed to lift the
           bound is discarded wholesale — the tree then solves the
           original system with an untouched warm root. *)
        if
          !cuts_log <> []
          && !cut_b1 -. !cut_b0 <= 1e-9 *. (1.0 +. Float.abs !cut_b0)
        then begin
          if Obs.recording () then
            Obs.emit ~cat:"milp" "milp.cuts_discarded"
              [
                ("cuts", Obs.Json.Int (List.length !cuts_log));
                ("rounds", Obs.Json.Int !cut_rounds);
                ("bound", Obs.Json.Float !cut_b0);
              ];
          cuts_log := [];
          raw_solve := raw;
          cut_rounds := 0;
          cut_b0 := Float.nan;
          cut_b1 := Float.nan;
          w0.wstate <- None
        end
      end
    end
  in
  (* ------------------------ the tree ------------------------------- *)
  let explore () =
    if not resumed then root_cut_prep ();
    run_pool (List.map node_of_open start.Checkpoint.frontier);
    (* Exit bound over everything still open, wherever it lives. *)
    Mutex.lock pool_m;
    open_bound_end :=
      List.fold_left
        (fun acc (n : node) -> Float.min acc n.bound)
        infinity (frontier_locked ());
    (* Final flush: a budget-stopped supervised solve always leaves a
       fresh, resumable snapshot behind. *)
    write_checkpoint_locked ~force:true ();
    Mutex.unlock pool_m;
    (* [Stop_unbounded] left subtrees unexplored even though no budget
       was hit; a finite leftover bound keeps [proved] false below. *)
    if !stopped_unbounded && !open_bound_end = infinity then
      open_bound_end := !root_bound
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set wd_stop true;
      Option.iter Domain.join wd_dom)
    explore;
  let open_bound = !open_bound_end in
  (* A node LP that hit its iteration cap was pruned unsolved, so neither
     "all nodes closed" nor a closed gap proves optimality. *)
  let clean = w0.w_limited = 0 in
  let proved = (not !budget_hit) && open_bound = infinity && clean in
  let constant = Model.objective_constant model in
  let best = Atomic.get best_obj in
  let gap =
    match !best_x with
    | None -> infinity
    | Some _ ->
        if proved then 0.0
        else
          let lo = min open_bound best in
          let lo = if Float.is_finite lo then lo else !root_bound in
          Float.abs (best -. lo) /. Float.max 1.0 (Float.abs best)
  in
  let stats =
    {
      nodes = Atomic.get nodes;
      lp_iterations = w0.w_iters;
      elapsed = elapsed ();
      root_bound = !root_bound +. constant;
      gap;
      lp_limited = w0.w_limited;
      warm_hits = w0.w_warm;
      fixed_vars = !fixed_vars;
      first_incumbent_s = !first_inc;
      domains;
      checkpoints = !n_checkpoints;
      recoveries = !n_recoveries;
      stalls = Atomic.get n_stalls;
      cpu_s = Obs.Clock.cpu () -. cpu0;
      cuts_applied = List.length !cuts_log;
      cut_rounds = !cut_rounds;
      gap_closed_root =
        (* Fraction of the root gap the cut rounds closed:
           (post-cut bound - pre-cut bound) / (best - pre-cut bound),
           clamped to [0, 1]. NaN when unavailable: cuts off, no
           incumbent, resumed solve (the pre-cut bound was not
           checkpointed), or a degenerate zero root gap. *)
        (let b0 = !cut_b0 and b1 = !cut_b1 in
         if Float.is_nan b0 || Float.is_nan b1 || not (Float.is_finite best)
         then Float.nan
         else
           let denom = best -. b0 in
           if denom <= 1e-12 *. (1.0 +. Float.abs best) then Float.nan
           else Float.max 0.0 (Float.min 1.0 ((b1 -. b0) /. denom)));
    }
  in
  (* Nodes and pivots are counted live at their hook sites (so the
     resource probe sees throughput mid-solve); only a resumed run's
     closed prefix — nodes finished before the checkpoint, never
     reprocessed here — still needs adding for the counter to equal
     [stats.nodes]. Pivots carry no prefix: [lp_iterations] is
     this-run-only by design, so the live increments already cover it
     exactly. *)
  Obs.Counter.incr ~by:start.Checkpoint.nodes_done c_nodes;
  Obs.Counter.incr ~by:stats.warm_hits c_warm_hits;
  Obs.Counter.incr ~by:stats.fixed_vars c_fixed_vars;
  Obs.Counter.incr ~by:stats.checkpoints c_checkpoints;
  Obs.Counter.incr ~by:stats.recoveries c_recoveries;
  Obs.Counter.incr ~by:stats.stalls c_stalls;
  Obs.Counter.incr ~by:stats.cuts_applied c_cuts_applied;
  Obs.Counter.incr ~by:stats.cut_rounds c_cut_rounds;
  if not (Float.is_nan stats.gap_closed_root) then
    Obs.Series.add s_gap_closed_root ~x:stats.elapsed ~y:stats.gap_closed_root;
  Obs.Series.add s_gap ~x:stats.elapsed ~y:stats.gap;
  if Obs.recording () then
    Obs.emit ~cat:"milp" "milp.done"
      [
        ("nodes", Obs.Json.Int stats.nodes);
        ("pivots", Obs.Json.Int stats.lp_iterations);
        ("gap", Obs.Json.Float stats.gap);
        ("elapsed_s", Obs.Json.Float stats.elapsed);
      ];
  let mk_cert cstatus =
    if not certs_on then None
    else begin
      let c =
        {
          Cert.status = cstatus;
          objective = best;
          incumbent = Option.map Array.copy !best_x;
          incumbents = List.rev !inc_log;
          root_lb = !root_box_lb;
          root_ub = !root_box_ub;
          presolve = start.Checkpoint.presolve;
          cuts = !cuts_log;
          fixes = List.rev !fix_log;
          root_duals = !root_duals;
          root_obj = !root_bound;
          nodes =
            List.sort
              (fun (a : Cert.node) b -> compare a.Cert.id b.Cert.id)
              w0.wcerts;
          budget_hit = !budget_hit;
          lp_limited = w0.w_limited;
          domains;
          gap_tol;
          int_tol;
        }
      in
      if Obs.recording () then
        Obs.emit ~cat:"milp" "milp.cert" (Cert.summary_json c);
      Some c
    end
  in
  match !best_x with
  | Some x ->
      let status =
        if proved || (clean && gap <= gap_tol) then Optimal else Feasible
      in
      let cert =
        mk_cert
          (match status with Optimal -> Cert.Optimal | _ -> Cert.Feasible)
      in
      { status; x; objective = best +. constant; stats; cert }
  | None ->
      let status =
        if !unbounded_root then Unbounded
        else if !infeasible_root && not !budget_hit then Infeasible
        else if proved then Infeasible
        else Unknown
      in
      let cert =
        mk_cert
          (match status with
          | Infeasible -> Cert.Infeasible
          | Unbounded -> Cert.Unbounded
          | _ -> Cert.Unknown)
      in
      { status; x = Array.make raw.n 0.0; objective = infinity; stats; cert }

let value r v = r.x.(Model.var_index v)
let int_value r v = int_of_float (Float.round (value r v))

let pp_status ppf = function
  | Optimal -> Fmt.string ppf "optimal"
  | Feasible -> Fmt.string ppf "feasible"
  | Infeasible -> Fmt.string ppf "infeasible"
  | Unbounded -> Fmt.string ppf "unbounded"
  | Unknown -> Fmt.string ppf "unknown"

let pp_stats ppf s =
  Fmt.pf ppf "%d nodes, %d pivots, %.2fs, gap %.2g%%" s.nodes s.lp_iterations
    s.elapsed (100.0 *. s.gap);
  if s.domains > 1 then Fmt.pf ppf ", %d domains" s.domains;
  if s.warm_hits > 0 then Fmt.pf ppf ", %d warm" s.warm_hits;
  if s.cuts_applied > 0 then
    Fmt.pf ppf ", %d cut%s/%d round%s" s.cuts_applied
      (if s.cuts_applied = 1 then "" else "s")
      s.cut_rounds
      (if s.cut_rounds = 1 then "" else "s");
  if s.fixed_vars > 0 then Fmt.pf ppf ", %d fixed" s.fixed_vars;
  if s.checkpoints > 0 then
    Fmt.pf ppf ", %d checkpoint%s" s.checkpoints
      (if s.checkpoints = 1 then "" else "s");
  if s.recoveries > 0 then Fmt.pf ppf ", %d recovered" s.recoveries;
  if s.stalls > 0 then Fmt.pf ppf ", %d stall%s" s.stalls
      (if s.stalls = 1 then "" else "s");
  if s.lp_limited > 0 then
    Fmt.pf ppf ", %d LP limit hit%s" s.lp_limited
      (if s.lp_limited = 1 then "" else "s")
