(** Bounded-variable simplex on a condensed tableau (only the nonbasic
    columns are stored; every basic column is a unit vector), with a
    reusable solver state for warm-started branch-and-bound.

    Solves [min c·x  s.t.  A x {<=,=,>=} b,  l <= x <= u] with finite lower
    bounds and possibly infinite upper bounds. Upper bounds are handled
    implicitly (nonbasic-at-upper-bound states and bound flips), which is
    what keeps the MILP's thousands of binaries out of the row space.

    Every LP starts from the slack basis (one slack per row, no other
    columns) with each structural column at the bound its cost prefers,
    which is dual feasible; the dual simplex repairs primal feasibility
    and the primal simplex cleans up. A negative-cost column without an
    upper bound takes part in the dual phase at cost 0. The dual simplex
    prices by exact dual steepest edge: the leaving row maximizes
    [viol² / ‖e_iᵀB⁻¹‖²], with every row's weight kept exact through
    each pivot (reset to 1 on the slack basis, kept across warm
    restarts, computed exactly for rows {!add_rows} appends). Both phases
    switch to Bland's rule after [max 200 (10·(rows + columns))] pivots,
    so neither can cycle; a from-scratch LP that still hits its pivot cap
    is run once more from the slack basis under Bland's rule from its
    first pivot.

    {2 Warm restarts}

    {!solve_state} additionally returns the solver's final tableau, basis
    and bound status as a {!state}; {!resolve} then accepts tightened
    variable bounds and restarts from that basis instead of from the
    slack basis. Because reduced costs do not depend on variable
    bounds, the optimal basis of a parent node LP stays {e dual} feasible
    after a branch, so a child LP is a short dual-simplex repair (a bound
    change on a nonbasic variable is at most a flip; a change on a basic
    one walks the violated variable back to its bound) followed by an
    ordinary primal clean-up — typically a handful of pivots instead of
    hundreds. This is the same lever CPLEX uses to win on the paper's
    Sec. 4.3 instances (see DESIGN.md, "Solver engineering"). *)

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit  (** gave up; treat as unsolved *)
  | Time_limit
      (** the [deadline] expired mid-pivot; treat as unsolved — the MILP
          maps this to its own budget-exhausted handling *)

type result = {
  status : status;
  x : float array;  (** structural variable values, length [raw.n] *)
  objective : float;  (** [c·x] (no model constant), meaningful if Optimal *)
  iterations : int;
}

val solve :
  ?max_iters:int ->
  ?deadline:Resilience.Deadline.t ->
  ?lb:float array ->
  ?ub:float array ->
  Model.raw ->
  result
(** [solve raw] minimizes. [lb]/[ub] override the bounds in [raw] — this is
    how branch-and-bound tightens bounds without rebuilding the model.
    Default [max_iters] is [50_000]. [deadline] (default
    {!Resilience.Deadline.none}) is polled every 64 pivots, so a deadline
    caps even a single pathological LP rather than only being consulted
    between solves. The pivot cap and the deadline are checked only when
    a pivot is due, so a basis that is already optimal is reported
    {!Optimal} at any budget. An LP that hits [max_iters] is run once
    more from the slack basis under Bland's rule, so it may take up to
    [2 · max_iters] pivots before reporting {!Iteration_limit}. The
    [simplex.cycle] fault point ({!Resilience.Fault}) makes every primal
    clean-up give up with {!Iteration_limit} immediately. *)

(** {1 Reusable solver state} *)

type state
(** Tableau + basis + bound status after a {!solve_state} or {!resolve}
    call. Mutable: {!resolve} and {!add_rows} update it in place.

    A structural column that the state's own system fixes ([lb = ub] in
    the {!Model.raw}) is a constant of every LP the state solves, as long
    as the call's bounds keep it at that value: the tableau stores no
    column for it, so no build, pivot or {!add_rows} pays for it, while
    its value still enters every right-hand side. Bounds passed to
    {!solve_state} or {!resolve} that fix a column the system leaves
    free keep it stored: the tree's branching fixes columns only until
    the search leaves a subtree. ({!solve} applies the same rule.) *)

val solve_state :
  ?max_iters:int ->
  ?deadline:Resilience.Deadline.t ->
  ?lb:float array ->
  ?ub:float array ->
  Model.raw ->
  result * state
(** Like {!solve}, but also returns the final solver state for later
    {!resolve} calls. The bound arrays are copied into the state; the
    caller may keep mutating its own arrays. *)

val resolve :
  ?deadline:Resilience.Deadline.t ->
  lb:float array ->
  ub:float array ->
  state ->
  result
(** [resolve ~lb ~ub st] re-optimizes the state's LP under new variable
    bounds, warm-starting from the last basis when it is still dual
    feasible (dual-simplex repair, then primal clean-up), under the
    default [max_iters] of {!solve}. Falls back to a
    cold rebuild — transparently, same result contract as {!solve} —
    whenever the inherited basis is unusable: the previous solve did not
    end {!Optimal}, the repair hit the pivot cap (that rebuild runs under
    Bland's rule from its first pivot), or every
    [refactor_every = 256] calls to bound numerical drift, or a box that
    moves a column the system fixes off its value (the column has no
    tableau column to move in; the rebuild stores it, costing one
    solve from the slack basis). Equivalent to
    [solve ~lb ~ub raw] up to degenerate alternate optima: same status,
    same objective within [1e-6] (property-tested in [test/test_lp.ml]).

    Counters ({!Obs}): [simplex.resolve_pivots] (dual + primal pivots
    spent here), [simplex.resolve_cold_pivots] (the part of them spent
    in cold rebuilds), [simplex.resolve_warm] / [simplex.resolve_cold]
    (which path ran), and [simplex.resolve_cold.<reason>] for each
    reason ([dual_infeasible], [periodic], [stale_basis],
    [repair_limit], [no_state], [unfixed]), which sum to
    [simplex.resolve_cold]. [simplex.build_cells] counts the rows ×
    stored columns of every tableau built, here and in {!solve}. *)

val last_resolve_warm : state -> bool
(** Whether the most recent {!resolve} used the warm path (including
    warm-detected infeasibility) rather than a cold rebuild. *)

val reduced_cost : state -> int -> float
(** Reduced cost of structural column [j] under the model's objective.
    Meaningful after an {!Optimal} solve; used for reduced-cost bound
    fixing in {!Milp}. A column the state's system fixes (see {!state})
    is never priced, and this returns its objective coefficient. *)

val basis_status : state -> int -> [ `Basic | `At_lower | `At_upper ]
(** Basis status of structural column [j] in the current basis. A
    column the state's system fixes is never basic: it reports
    [`At_upper] when its objective coefficient is negative, else
    [`At_lower]; both bounds are its fixed value. *)

(** {1 Certificate extraction}

    See {!Cert} and DESIGN.md §3h. Both accessors read the state's live
    tableau; they are meaningful immediately after the corresponding
    terminal status and are consumed by {!Milp}'s certificate emitter. *)

val duals : state -> float array option
(** Multipliers on the original model rows under the currently installed
    cost row, in the Lagrangian convention the audit re-checks: after an
    [Optimal] solve, [-u·b + Σ_j min over the box of (c + Aᵀu)_j·x_j]
    re-evaluated in exact arithmetic is a safe lower bound on the LP —
    and equals its optimum up to float drift. [None] when the state was
    built from crossed bounds and holds no tableau. *)

val iter_multipliers : state -> int -> (int -> float -> unit) -> bool
(** [iter_multipliers st j f], for a structural column [j] that is basic
    in the current tableau, reads the aggregation multipliers [λ] (one
    per row of the state's system, including any rows added with
    {!add_rows}) such that [Σ_i λ_i · row_i] reproduces [j]'s tableau
    row on the structural columns: it calls [f i λ_i] for every row [i]
    whose multiplier is nonzero, from the last row down, and returns
    [true]. It calls nothing and returns [false] when [j] is nonbasic or
    the state holds no tableau. No array is built: the multipliers are
    read off the row's slack entries. This is the suggestion {!Cutgen}
    turns into a Chvátal–Gomory derivation — only a suggestion: cut
    generation recomputes the aggregation exactly from [λ] and the
    original rows. *)

val edge_weights : state -> (float * float) array
(** One pair per row of the state's system: the dual steepest-edge
    weight the solver maintains for the row, and [‖e_iᵀB⁻¹‖²] summed
    afresh from the current tableau (the row's entries at the nonbasic
    slack columns, squared, plus 1 when its basic column is a slack).
    The two agree up to rounding; empty when the state holds no
    tableau. *)

val add_rows : state -> ((int * float) array * float) array -> unit
(** [add_rows st rows] appends [<=] rows (cutting planes, as
    [(sparse terms, rhs)]) to the state's system in place. The warm
    basis is preserved: each new row's slack enters basic after the row
    is reduced against the inherited basis, reduced costs are untouched,
    and the next {!resolve} repairs the newly violated rows with a short
    dual-simplex walk instead of re-solving from scratch. Subsequent
    {!duals} / {!last_infeasibility} vectors cover the extended row set
    (model rows first, added rows in call order). *)

val system : state -> Model.raw
(** The state's row system: the model it was solved over, then every
    row {!add_rows} appended, in call order. *)

val last_infeasibility : state -> Cert.farkas option
(** Evidence for the most recent [Infeasible] outcome of {!solve_state} /
    {!resolve}: a Farkas ray (the violated row of B⁻¹ on which the dual
    simplex found no entering column) or the crossed-bounds variable. Reset on
    every {!resolve}; [None] after non-infeasible outcomes. *)
