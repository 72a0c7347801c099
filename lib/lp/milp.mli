(** Branch-and-bound MILP solver over {!Simplex}.

    Depth-first diving (round-to-nearest child explored first) with
    best-bound pruning, optional warm-start incumbents, and a wall-clock
    budget after which the best feasible solution found is returned — the
    same protocol the paper used with CPLEX's 60-minute cap (Sec. 4.3).

    {!solve} puts four layers together: [Root] (presolve, cutting
    planes, reduced-cost fixing), {!Node} (bound chains, branching, one
    node's LP), [Pool] (work stealing, leases, the shared incumbent)
    and [Supervisor] (worker domains, checkpoints, recovery, the
    watchdog). [Root], [Pool] and [Supervisor] are private to this
    library; their contracts are in [root.mli], [pool.mli] and
    [supervisor.mli]. For runs that terminate by exhausting the tree, status,
    objective and incumbent are independent of the domain count, of
    scheduling, and of recovery and resume (DESIGN.md §3g, §3i). *)

type status = Cert.status =
  | Optimal  (** proved optimal within tolerances *)
  | Feasible  (** budget exhausted; best incumbent returned *)
  | Infeasible
  | Unbounded
  | Unknown  (** budget exhausted before any feasible solution was found *)

type stats = {
  nodes : int;  (** branch-and-bound nodes evaluated *)
  lp_iterations : int;
      (** simplex pivots across all nodes; cumulative across resume, as
          [nodes] and [elapsed] are *)
  elapsed : float;
      (** wall-clock seconds; cumulative across resume (checkpointed
          seconds plus this run's) *)
  root_bound : float;  (** root LP relaxation objective *)
  gap : float;  (** relative gap between incumbent and open bound *)
  lp_limited : int;
      (** node LPs pruned unsolved at their 50,000-pivot cap — numeric
          trouble; nonzero demotes {!Optimal} to {!Feasible} because the
          pruned subtrees were never actually explored *)
  warm_hits : int;
      (** node LPs answered by {!Simplex.resolve}'s warm path (parent
          basis reused) rather than a cold rebuild *)
  fixed_vars : int;
      (** integer variables fixed at the root by reduced-cost bound
          fixing *)
  first_incumbent_s : float;
      (** seconds into the solve when the first incumbent appeared —
          including a caller-seeded warm-start incumbent (recorded at
          ~0 s); [nan] if the solve ended with no incumbent *)
  domains : int;
      (** domain count the tree was explored with (1 = a one-worker
          pool) *)
  checkpoints : int;  (** snapshots written to the [checkpoint] sink *)
  recoveries : int;
      (** supervised recoveries: worker deaths replayed plus watchdog
          cancel-and-requeues *)
  stalls : int;  (** watchdog escalations (nudges + cancels) *)
  cpu_s : float;
      (** process CPU seconds consumed by this solve ({!Obs.Clock.cpu});
          under [domains] > 1 this exceeds [elapsed] — the budget runs
          on the wall clock, CPU time is kept as a separate metric *)
  cuts_applied : int;
      (** cutting planes active in the solved system — separated this run
          or re-installed from a resumed checkpoint *)
  cut_rounds : int;
      (** separation rounds run at the root this run (0 on resume: cuts
          are replayed, never re-separated) *)
  gap_closed_root : float;
      (** fraction of the root gap closed by the cut rounds,
          [(post-cut bound - pre-cut bound) / (incumbent - pre-cut
          bound)], clamped to \[0, 1\]; [nan] when unavailable (cuts
          off, no incumbent, resumed solve, or zero root gap) *)
}

type result = {
  status : status;
  x : float array;  (** meaningful for [Optimal] / [Feasible] *)
  objective : float;  (** includes the model's objective constant *)
  stats : stats;
  cert : Cert.t option;
      (** proof-carrying certificate; [Some] iff [certificates] was
          requested (and, on resume, the checkpointed run kept one) *)
}

type checkpoint_sink = Supervisor.sink = {
  ck_path : string;
  ck_every_s : float;
  ck_every_nodes : int option;
  ck_meta : Obs.Json.t;
}
(** Where and how often {!solve} snapshots its live frontier (see
    [Supervisor.sink] in [supervisor.mli]). *)

exception Worker_killed
(** Raised at node-processing entry by the [milp.worker_kill] and
    [milp.steal_drop] fault points — the stand-in for a worker domain
    dying mid-subtree. Supervised recovery absorbs it up to a per-slot
    death budget; past that it propagates like any worker exception. *)

val solve :
  ?time_limit:float ->
  ?node_limit:int ->
  ?deadline:Resilience.Deadline.t ->
  ?incumbent:float array ->
  ?branch_priority:int array ->
  ?domains:int ->
  ?certificates:bool ->
  ?checkpoint:checkpoint_sink ->
  ?resume:Checkpoint.t ->
  ?stall_window:float ->
  ?cuts:bool ->
  ?presolve:bool ->
  Model.t ->
  result
(** Defaults: [time_limit = 60.] s, [node_limit = 200_000]. An integer
    variable within [1e-6] of an integer counts as integral; a solve is
    {!Optimal} at a relative gap of at most [1e-6]. A provided
    [incumbent] is validated against the model ([Invalid_argument] if it
    is not feasible) and seeds the pruning bound — unless [resume]'s
    checkpoint carries an incumbent, which is then the one installed (the seed is
    still validated). [branch_priority] (one entry per variable, higher
    first) breaks ties in the pseudocost score, which ranks every
    fractional integer column ({!Node}). [presolve] and [cuts] (both default
    [true]) switch off root bound tightening and root cuts ([Root]).

    [domains] (default 1; clamped to \[1, 64\]) sets how many OCaml 5 domains explore the tree ([Pool]).
    One domain explores in a fixed order, so node and pivot counts are
    reproducible. Runs that exhaust the tree return the same status at
    every domain count and objectives within the incumbent's 1e-9 tie
    tolerance (not the same bits); budget-truncated runs keep
    deterministic statuses but may return a different feasible
    incumbent.

    The budget is the tighter of [time_limit] and [deadline] on the
    monotonized wall clock ({!Obs.Clock.wall}), so it means the same
    wall seconds at any domain count ([stats.cpu_s] reports CPU time).
    Node LPs poll it every 64 pivots. On expiry the best incumbent is
    returned with {!Feasible} ({!Unknown} if none was found).

    [checkpoint], [stall_window] (seconds; default off) and crash
    recovery are the [Supervisor]'s. [resume] continues a {!Checkpoint}
    whose fingerprint must match the model ([Invalid_argument]
    otherwise), at any [domains] count; a fresh solve starts from the
    same kind of state with only the root open. [stats.elapsed] and the
    lp_limited accounting are cumulative across resume. Fault points
    ({!Resilience.Fault}): [milp.raise] raises [Failure] at entry;
    [milp.timeout] returns {!Unknown}, modelling a budget that expired
    before any incumbent existed; the rest are in {!Node},
    [Supervisor] and {!Checkpoint}.

    [certificates] (default [false]) makes the solve proof-carrying: the
    result's [cert] holds every closed node's LP claim, branch and
    fathom reason with the incumbent at the decision, the accepted
    incumbents and the root's presolve, cut and fixing evidence, for
    [Analyze.Audit] to re-verify in exact arithmetic (DESIGN.md §3h). A
    resumed solve extends the checkpoint's node log; nodes left open
    get no entry. Collection, like every event below, never changes
    exploration.

    The solve runs in an {!Obs.span} ["milp.solve"] and emits a
    ["milp.node"] debug event per node (depth, branch variable, LP
    status, warm/cold, dual bound, and the ["domain"] that processed it,
    also its Perfetto lane), a ["milp.incumbent"] event per incumbent
    (objective and gap), and ["milp.done"] and ["milp.cert"] at the end. *)

val value : result -> Model.var -> float
val int_value : result -> Model.var -> int
(** Nearest integer to the variable's value. *)

val pp_status : status Fmt.t
val pp_stats : stats Fmt.t
