type status = Cert.status = Optimal | Feasible | Infeasible | Unbounded | Unknown

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

type checkpoint_sink = Supervisor.sink = {
  ck_path : string;
  ck_every_s : float;
  ck_every_nodes : int option;
  ck_meta : Obs.Json.t;
}

exception Worker_killed = Node.Worker_killed

(* Instrumentation (lib/obs): cumulative across solves; reset by the
   driver. Purely observational — branching decisions never read it. *)
let c_solves = Obs.Counter.get "milp.solves"
let c_nodes = Obs.Counter.get "milp.bnb_nodes"
let c_pivots = Obs.Counter.get "milp.lp_pivots"
let c_warm_hits = Obs.Counter.get "milp.warm_hits"
let c_fixed_vars = Obs.Counter.get "milp.fixed_vars"
let c_checkpoints = Obs.Counter.get "milp.checkpoints"
let c_recoveries = Obs.Counter.get "milp.recoveries"
let c_stalls = Obs.Counter.get "milp.stalls"
let c_cuts_applied = Obs.Counter.get "milp.cuts_applied"
let c_cut_rounds = Obs.Counter.get "milp.cut_rounds"

(* A solve is [Optimal] once its relative gap is at most this. *)
let gap_tol = 1e-6

(* The caller's warm start, validated even when a checkpoint's incumbent
   supersedes it. Near-integral entries are snapped so the stored
   incumbent is exactly integral: the certificate audit checks
   integrality with zero tolerance, and [Model.check] already vouched
   for the unsnapped point at the contract tolerance. *)
let validate_seed model raw ~int_tol x =
  if Array.length x <> raw.Model.n then
    invalid_arg "Milp.solve: incumbent length mismatch";
  (match Model.check model ~values:(fun v -> x.(Model.var_index v)) () with
  | Error msg -> invalid_arg ("Milp.solve: infeasible incumbent: " ^ msg)
  | Ok () -> ());
  let x = Node.snap raw ~int_tol x in
  (x, Node.objective raw x)

(* A fresh solve starts from the same kind of state a resume loads. *)
let fresh_start ~domains (presolve, lb, ub) seed =
  {
    Checkpoint.fingerprint = "" (* snapshots stamp the model's *);
    domains;
    next_nid = 1;
    nodes_done = 0;
    pivots_done = 0;
    lp_limited = 0;
    fixed_vars = 0;
    root_bound = neg_infinity;
    root_lb = lb;
    root_ub = ub;
    incumbent = seed;
    first_incumbent_s = Float.nan;
    elapsed_s = 0.0;
    frontier = [ Node.root ];
    pc = [||];
    certs_on = true;
    cert_nodes = [];
    fixes = [];
    root_duals = None;
    presolve;
    cuts = [];
    meta = Obs.Json.Null;
  }

(* Statistics, status and certificate, all from the pool's one view. *)
let finish ~model ~raw ~domains ~int_tol ~elapsed ~cpu0
    ~(root : Root.t) ~(pool : Pool.t) ~(start : Checkpoint.t) ~certs_on ~nodes
    (report : Supervisor.report) =
  let v = Pool.view pool in
  let stop = Pool.stopped pool in
  let budget_hit = stop = Some `Budget in
  let open_bound =
    let b = Pool.open_bound pool infinity in
    (* An unbounded stop left subtrees unexplored with no budget hit; a
       finite leftover bound keeps [proved] false. *)
    if stop = Some `Unbounded && b = infinity then root.bound else b
  in
  (* A node LP that hit its iteration cap was pruned unsolved, so neither
     "all nodes closed" nor a closed gap proves optimality. *)
  let clean = v.limited = 0 in
  let proved = (not budget_hit) && open_bound = infinity && clean in
  let best = Pool.incumbent pool in
  let gap =
    match v.incumbent with
    | None -> infinity
    | Some _ when proved -> 0.0
    | Some _ ->
        let lo = min open_bound best in
        let lo = if Float.is_finite lo then lo else root.bound in
        Float.abs (best -. lo) /. Float.max 1.0 (Float.abs best)
  in
  let status =
    match v.incumbent with
    | Some _ -> if proved || (clean && gap <= gap_tol) then Optimal else Feasible
    | None ->
        if root.unbounded then Unbounded
        else if (root.infeasible && not budget_hit) || proved then Infeasible
        else Unknown
  in
  let stats =
    {
      nodes;
      lp_iterations = v.pivots;
      elapsed = elapsed ();
      root_bound = root.bound +. Model.objective_constant model;
      gap;
      lp_limited = v.limited;
      warm_hits = v.warm;
      fixed_vars = root.fixed;
      first_incumbent_s = v.first_incumbent_s;
      domains;
      checkpoints = report.checkpoints;
      recoveries = report.recoveries;
      stalls = report.stalls;
      cpu_s = Obs.Clock.cpu () -. cpu0;
      cuts_applied = List.length root.cuts;
      cut_rounds = root.rounds;
      gap_closed_root = Root.gap_closed root ~incumbent:best;
    }
  in
  (* Nodes and pivots are counted live where they happen; only a resumed
     run's closed prefix still needs adding for the counters to equal
     [stats.nodes] and [stats.lp_iterations]. *)
  Obs.Counter.incr ~by:start.nodes_done c_nodes;
  Obs.Counter.incr ~by:start.pivots_done c_pivots;
  Obs.Counter.incr ~by:stats.warm_hits c_warm_hits;
  Obs.Counter.incr ~by:stats.fixed_vars c_fixed_vars;
  Obs.Counter.incr ~by:stats.checkpoints c_checkpoints;
  Obs.Counter.incr ~by:stats.recoveries c_recoveries;
  Obs.Counter.incr ~by:stats.stalls c_stalls;
  Obs.Counter.incr ~by:stats.cuts_applied c_cuts_applied;
  Obs.Counter.incr ~by:stats.cut_rounds c_cut_rounds;
  if Obs.recording () then
    Obs.emit ~cat:"milp" "milp.done"
      [
        ("nodes", Obs.Json.Int stats.nodes);
        ("pivots", Obs.Json.Int stats.lp_iterations);
        ("gap", Obs.Json.Float stats.gap);
        ("elapsed_s", Obs.Json.Float stats.elapsed);
      ];
  let cert =
    if not certs_on then None
    else begin
      let c =
        {
          Cert.status;
          objective = best;
          incumbent = Option.map (fun (x, _) -> Array.copy x) v.incumbent;
          incumbents = v.incumbents;
          root_lb = root.lb;
          root_ub = root.ub;
          presolve = root.presolve;
          cuts = root.cuts;
          fixes = List.rev root.fixes;
          root_duals = root.duals;
          root_obj = root.bound;
          nodes =
            List.sort (fun (a : Cert.node) b -> compare a.id b.id) v.certs;
          budget_hit;
          lp_limited = v.limited;
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
  match v.incumbent with
  | Some (x, obj) ->
      { status; x; objective = obj +. Model.objective_constant model; stats; cert }
  | None ->
      { status; x = Array.make raw.Model.n 0.0; objective = infinity; stats; cert }

let solve ?(time_limit = 60.0) ?(node_limit = 200_000) ?(max_lp_iters = 50_000)
    ?(int_tol = 1e-6)
    ?(deadline = Resilience.Deadline.none) ?incumbent ?branch_priority
    ?(domains = 1) ?(certificates = false) ?checkpoint ?resume ?stall_window
    ?(cuts = true) ?(presolve = true) model =
  let domains = max 1 (min domains 64) in
  Obs.span ~cat:"milp" "milp.solve"
    ~args:[ ("domains", Obs.Json.Int domains) ]
  @@ fun () ->
  Obs.Counter.incr c_solves;
  if Resilience.Fault.fires "milp.raise" then
    failwith "injected fault: milp.raise";
  (* The injected timeout models "budget exhausted before any incumbent":
     no presolve, no seed, no cuts, no watchdog, and every node check
     fails, so the solve reports Unknown. *)
  let injected_timeout = Resilience.Fault.fires "milp.timeout" in
  let raw = Model.to_raw model in
  let resumed = Option.is_some resume in
  let presolved =
    if presolve && (not resumed) && not injected_timeout then Root.presolve raw
    else ([], raw.lb, raw.ub)
  in
  let seed = Option.map (validate_seed model raw ~int_tol) incumbent in
  (* A checkpoint is pinned to the caller's model (before presolve and
     cuts, which it replays): resuming into another polytope would
     silently produce garbage. *)
  let fingerprint = lazy (Checkpoint.fingerprint raw) in
  let start =
    match resume with
    | Some ck ->
        if ck.Checkpoint.fingerprint <> Lazy.force fingerprint then
          invalid_arg
            "Milp.solve: checkpoint fingerprint does not match the model";
        ck
    | None -> fresh_start ~domains presolved seed
  in
  if Obs.recording ~level:Obs.Log.Debug () then
    Obs.emit ~level:Obs.Log.Debug ~cat:"milp" "milp.model"
      [
        ("cols", Obs.Json.Int raw.n);
        ( "integer",
          Obs.Json.Int
            (Array.fold_left (fun a b -> if b then a + 1 else a) 0 raw.integer)
        );
        ("rows", Obs.Json.Int (Array.length raw.rows));
      ];
  (* A resumed solve can only be as strong as its checkpoint: if the
     original run kept no certificates there is no prefix to extend. *)
  let certs_on = certificates && start.certs_on in
  (* The tighter of the caller's deadline and [time_limit], on the
     monotonized wall clock, governs the node loop and every pivot. *)
  let dl = Resilience.Deadline.clip deadline ~budget:time_limit in
  let t0 = Obs.Clock.wall () and cpu0 = Obs.Clock.cpu () in
  let elapsed () = Obs.Clock.wall () -. t0 +. start.elapsed_s in
  let root = Root.create raw ~certs_on start in
  let pool = Pool.create ~domains ~certs_on ~elapsed start in
  (* One seeded incumbent: the checkpoint's (which the original run's
     tie-breaking accepted), else the caller's. *)
  (match (start.incumbent, seed) with
  | _ when injected_timeout -> ()
  | Some inc, _ | None, Some inc -> Pool.seed pool inc
  | None, None -> ());
  let env =
    {
      Node.raw;
      system = (fun () -> root.system);
      max_lp_iters;
      int_tol;
      priority = branch_priority;
      certs_on;
      nodes = Atomic.make start.nodes_done;
      next_nid = Atomic.make start.next_nid;
      incumbent = (fun () -> Pool.incumbent pool);
      improve = Pool.improve pool;
      at_root = Root.at_root root ~incumbent:(fun () -> Pool.incumbent pool);
    }
  in
  let budget () =
    injected_timeout
    || Resilience.Deadline.expired dl
    || Atomic.get env.nodes >= node_limit
  in
  let worker wid lb ub = Node.worker ~wid ~lb ~ub ~pcs:start.pc ~deadline:dl in
  let w0 = worker 0 (Array.copy start.root_lb) (Array.copy start.root_ub) in
  if cuts && (not resumed) && not (budget ()) then begin
    Root.separate root w0 ~max_lp_iters ~int_tol ~budget;
    Pool.pass_root pool
  end;
  let report =
    Supervisor.run ~pool ~env ~root ~sink:checkpoint ~fingerprint ~domains
      ~elapsed ~budget
      ~stall_window:(if injected_timeout then None else stall_window)
      ~w0
      ~helper:(fun wid -> worker wid (Array.copy w0.lb) (Array.copy w0.ub))
  in
  finish ~model ~raw ~domains ~int_tol ~elapsed ~cpu0 ~root ~pool
    ~start ~certs_on ~nodes:(Atomic.get env.nodes) report

let value r v = r.x.(Model.var_index v)
let int_value r v = int_of_float (Float.round (value r v))

let pp_status ppf s = Fmt.string ppf (Cert.status_label s)

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
