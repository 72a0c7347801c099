(** Branch-and-bound MILP solver over {!Simplex}.

    Depth-first diving (round-to-nearest child explored first) with
    best-bound pruning, optional warm-start incumbents, and a wall-clock
    budget after which the best feasible solution found is returned — the
    same protocol the paper used with CPLEX's 60-minute cap (Sec. 4.3).

    The tree can be explored by one domain (the default) or by a
    work-stealing pool of OCaml 5 domains ([domains] argument /
    [PIPESYN_DOMAINS] environment variable). Each domain owns a private
    {!Simplex.state}, bound arrays and pseudocost table; subtrees are
    shipped between domains as immutable copy-on-branch bound chains.
    The incumbent is shared, with deterministic tie-breaking (best
    objective, then lexicographically smallest solution vector), so for
    runs that terminate by exhausting the tree the status and objective
    are independent of the domain count and of scheduling (see DESIGN.md
    §3g for the argument and for the budget-truncated caveat).

    Solves are {e supervised} (DESIGN.md §3i): every taken node is
    leased until it is retired, so a worker death replays exactly its
    in-flight subtree, a stall watchdog unwedges workers stuck inside a
    single pathological LP, and the live frontier can be snapshotted to
    disk ({!Checkpoint}) and resumed later. Because recovery and resume
    only permute exploration order, the determinism guarantee above
    extends to interrupted solves: a kill-and-recover or
    checkpoint-and-resume run of an exhaustively solved model returns
    the identical status, objective and incumbent. *)

type status =
  | Optimal  (** proved optimal within tolerances *)
  | Feasible  (** budget exhausted; best incumbent returned *)
  | Infeasible
  | Unbounded
  | Unknown  (** budget exhausted before any feasible solution was found *)

type stats = {
  nodes : int;  (** branch-and-bound nodes evaluated *)
  lp_iterations : int;  (** simplex pivots across all nodes *)
  elapsed : float;
      (** wall-clock seconds; cumulative across resume (checkpointed
          seconds plus this run's) *)
  root_bound : float;  (** root LP relaxation objective *)
  gap : float;  (** relative gap between incumbent and open bound *)
  lp_limited : int;
      (** node LPs pruned unsolved at their iteration cap — numeric
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

(** Where and how often {!solve} snapshots its live frontier. *)
type checkpoint_sink = {
  ck_path : string;  (** written atomically (temp file + rename) *)
  ck_every_s : float;  (** wall-clock cadence between snapshots *)
  ck_every_nodes : int option;
      (** additionally snapshot every [n] processed nodes — the
          deterministic trigger tests use; [None] = cadence only *)
  ck_meta : Obs.Json.t;
      (** opaque driver payload stored verbatim in every snapshot
          ([pipesyn resume] rebuilds its setup from it) *)
}

exception Worker_killed
(** Raised at node-processing entry by the [milp.worker_kill] and
    [milp.steal_drop] fault points — the stand-in for a worker domain
    dying mid-subtree. Supervised recovery absorbs it up to a per-slot
    death budget; past that it propagates like any worker exception. *)

val solve :
  ?time_limit:float ->
  ?node_limit:int ->
  ?max_lp_iters:int ->
  ?gap_tol:float ->
  ?int_tol:float ->
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
(** Defaults: [time_limit = 60.] s, [node_limit = 200_000],
    [gap_tol = 1e-6] (relative), [int_tol = 1e-6]. A provided [incumbent]
    is validated against the model ([Invalid_argument] if it is not
    feasible) and seeds the pruning bound — unless [resume]'s checkpoint
    carries an incumbent, which is then the one installed (the seed is
    still validated). [branch_priority] (one entry
    per variable, higher branches first) guides variable selection:
    within the highest priority class with any fractionality, pseudocost
    branching (observed objective degradation per unit of fractional
    distance, product rule) picks the variable; before any pseudocost
    observations this degenerates to most-fractional.

    Node LPs are warm-started: one {!Simplex.state} is threaded through
    the whole tree and re-optimized per node via {!Simplex.resolve},
    with node bounds stored as copy-on-branch chains (one changed entry
    plus a parent pointer) instead of per-node array copies. Once an
    incumbent exists, reduced-cost bound fixing at the root fixes
    integer variables whose reduced cost exceeds the incumbent gap.

    {2 Presolve and root cutting planes}

    Before the root LP, certified bound tightening ({!Presolve.tighten})
    shrinks the variable box: integrality rounding plus activity-based
    tightening, each event exact-verified at generation time and
    recorded in the certificate for the audit's CERT111 replay.
    [presolve] (default [true]) disables it when [false].

    After presolve and before the root node is branched, up to 8 rounds
    of root cutting planes run: Chvátal–Gomory cuts derived from the
    warm simplex tableau's aggregation multipliers and knapsack cover
    cuts from the model's [<=] rows over binaries, filtered through a
    bounded, violation-ranked pool ({!Cutgen}) and applied at most 20
    per round via {!Simplex.add_rows} (warm dual-simplex resolves in
    between). Every applied cut carries its derivation in the
    certificate ([Cert.cuts]) and is re-verified by the audit in exact
    rational arithmetic (CERT109/CERT110) — an invalid cut can never
    silently tighten the claimed bound. Cuts strengthen the relaxation
    bound but never exclude an integer-feasible point, so status,
    objective and incumbent are unchanged by the cuts-on/off toggle on
    exhaustively solved models (property-tested in [test/test_fuzz.ml]).
    [cuts] (default [true]) disables the rounds when [false]. Each
    round emits a
    ["milp.cut_round"] trace instant (round, cuts added, pool size,
    post-round bound). A resumed solve re-installs the checkpoint's cut
    rows verbatim and never re-separates, so node duals keep matching
    the extended row system.

    [domains] (default: [PIPESYN_DOMAINS], else 1; clamped to
    \[1, 64\]) selects how many OCaml 5 domains explore the tree. The
    root is the pool's first node: the calling domain takes it (and
    applies reduced-cost fixing) before the other domains start and
    copy the post-fixing box. The pool is a work-stealing one in which
    each domain dives depth-first on a private stack, publishing
    the sibling of every branch to a bounded shared deque that idle
    domains steal the shallowest entries from. [domains = 1] is a pool
    of one worker: with no thief to feed it publishes nothing, so it
    explores depth-first, near child first, in a fixed order — node and
    pivot counts are reproducible run to run. Statuses and objectives
    of runs that terminate by exhausting the tree are independent of
    [domains]; budget-truncated runs keep deterministic statuses but may
    return a different (equally feasible) incumbent per domain count,
    because the explored node set differs. Node/pivot statistics and
    trace event order are scheduling-dependent under [domains > 1].

    The effective budget is the tighter of [time_limit] and [deadline]
    (default {!Resilience.Deadline.none}); it is threaded into every
    node's {!Simplex.solve}, where it is polled every 64 pivots — one
    pathological node LP can no longer overshoot the budget arbitrarily.
    On expiry the best incumbent is returned with {!Feasible}
    ({!Unknown} if none was found). The clock is the monotonized wall
    clock ({!Obs.Clock.wall}): a [time_limit] of 5 s means five wall
    seconds at any [domains] count (resilience-v2 moved the budget off
    [Sys.time], whose CPU seconds accumulate across domains and expired
    a [--domains 4] budget roughly 4× early). Process CPU time is still
    reported, separately, as [stats.cpu_s].

    {2 Supervision}

    Every node a worker takes is {e leased} to it until the completion
    critical section retires or republishes the node, so at any instant
    each open node lives in exactly one of the shared deque, a private
    stack, or a lease. On top of that invariant (DESIGN.md §3i):

    {b Crash recovery.} A worker whose node processing raises (fault
    injection, numeric blowup — anything except [Out_of_memory] /
    [Stack_overflow]) is recovered in place: its leased node and entire
    private stack are requeued for any worker to replay, its solver
    state and pseudocost table reset, and it keeps taking work. Each
    slot survives at most 3 deaths; past that — or for resource
    exhaustion — the failure propagates. Recoveries are counted in
    [stats.recoveries] and traced as ["milp.recovery"] instants.

    {b Stall watchdog.} [stall_window] (seconds; default off) spawns a
    watchdog domain that compares each worker's last-progress heartbeat
    against the window. A worker wedged inside one LP for a full window
    is escalated in two rungs: first a {e nudge} (its next LP
    refactorizes cold — the cheap fix for a wedged basis), then, if the
    same lease is still stuck a tick later, a {e cancel} through the
    worker's deadline cell ({!Resilience.Deadline.with_cancel}) — the
    simplex notices within one 64-pivot poll, the node is requeued, and
    the worker re-arms. A node is never cancelled twice, so a
    legitimately slow LP replays to completion; pick a window larger
    than any honest node LP. Escalations land in [stats.stalls] and as
    ["milp.stall"] trace instants (["level"] = ["nudge"]/["cancel"]).

    {b Checkpoint/resume.} [checkpoint] snapshots the live solve into
    {!checkpoint_sink}[.ck_path] on a wall-clock cadence (checked at
    node completions), optionally every [ck_every_nodes] nodes, and
    always once at a budget-stopped exit — so an interrupted solve
    leaves a fresh, resumable file. [resume] rehydrates such a snapshot
    (frontier, incumbent, pseudocost tables, certificate-log prefix,
    root-fixing evidence) and continues; the checkpoint's fingerprint
    must match the model ([Invalid_argument] otherwise). A fresh solve
    starts from the same kind of state — a frontier holding only the
    root, the presolved box, the seeded incumbent, zeroed counters — so
    the two differ only in that a resume replays the checkpoint's
    presolve events and cut rows instead of deriving them. [stats.elapsed]
    and the lp_limited accounting are cumulative across resume, so a
    resumed solve can never claim more than the original plus its own
    work. Resumed solves may use a different [domains] count than the
    original run.

    Recovery, watchdog requeues and resume are invisible to results on
    exhaustively solved models (same status/objective/incumbent, by the
    determinism argument above); node counts, traces and statistics are
    not replayed and will differ.

    Fault points ({!Resilience.Fault}): [milp.raise] raises [Failure] at
    entry; [milp.timeout] returns {!Unknown} immediately, modelling a
    budget that expired before any incumbent existed; [milp.worker_kill]
    and [milp.steal_drop] raise {!Worker_killed} at node-processing
    entry / at the steal handoff (exercising crash recovery);
    [milp.stall] wedges a worker inside a node until the watchdog or the
    global budget unwedges it; [milp.checkpoint_torn] (in
    {!Checkpoint.write}) tears a snapshot file mid-write.

    [certificates] (default [false]) makes the solve proof-carrying: the
    result's [cert] field collects, from every worker domain, each node's
    LP claim (dual vector for optimal, Farkas ray for infeasible), its
    branch edit and fathom reason with the incumbent at the decision, the
    accepted-incumbent log, and the root's reduced-cost fixing events
    with the pre-fixing duals — everything [Analyze.Audit] needs to
    re-verify the run in exact rational arithmetic (DESIGN.md §3h).
    Collection is observational: it never changes exploration. A
    resumed solve extends the
    checkpoint's node log — cancelled or budget-cut nodes are left open
    (no log entry) rather than closed with an unsound fathom, which is
    what keeps resumed certificates audit-clean. A ["milp.cert"] trace
    instant carries the certificate summary when tracing is on.

    When {!Obs.Trace} is enabled the solve emits a ["milp.solve"] span
    (tagged with the domain count), one ["milp.node"] instant per node
    (depth, branch variable, LP status, warm/cold resolve, dual bound,
    and the ["domain"] that processed it — also used as the event's
    Perfetto lane), a ["milp.fixed_vars"] instant when root fixing
    engages, a ["milp.incumbent"] instant per incumbent (objective +
    gap — the convergence timeline, also recorded in the
    ["milp.convergence"] series), and the supervision instants
    ["milp.recovery"], ["milp.stall"] and ["milp.checkpoint"]. Tracing
    is purely observational: it never changes branching, bounds or
    results. *)

val value : result -> Model.var -> float
val int_value : result -> Model.var -> int
(** Nearest integer to the variable's value. *)

val pp_status : status Fmt.t
val pp_stats : stats Fmt.t
