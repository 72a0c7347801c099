(** Downstream technology mapping: per-stage LUT covering of an already
    scheduled CDFG (the reproduction's stand-in for Vivado logic synthesis
    after the HLS tool fixed the pipeline registers).

    The mapper must respect the schedule's register boundaries — a cone may
    only absorb nodes from the same clock cycle. This is precisely the
    structural pessimism the paper identifies: downstream mapping cannot
    shorten a pipeline that the scheduler already cut at the wrong places
    (Sec. 1).

    Covering uses the classic area-flow heuristic: in topological order
    each node is assigned its cheapest cut by
    [area + Σ flow(leaf) / fanout(leaf)], then a cover is extracted
    backward from the stage outputs. *)

val required_roots : Ir.Cdfg.t -> Sched.Schedule.t -> bool array
(** Nodes that must exist as physical signals given the schedule: primary
    outputs, inputs, constants, black boxes, producers consumed in another
    cycle (or through a loop-carried edge), and operands of black boxes. *)

val map_schedule :
  ?deadline:Resilience.Deadline.t ->
  ?truncated:bool ref ->
  device:Fpga.Device.t ->
  delays:Fpga.Delays.t ->
  cuts:Cuts.t ->
  Ir.Cdfg.t ->
  Sched.Schedule.t ->
  Sched.Cover.t
(** Cover every required root with stage-local cones of minimum area flow.
    The result always passes {!Sched.Cover.validate}.

    When [deadline] (default {!Resilience.Deadline.none}) expires
    mid-labelling — or the [techmap.timeout] fault point fires — the
    remaining nodes are assigned their trivial cut and [truncated] (if
    given) is set. The cover stays valid; only area optimality degrades. *)

type exact_reason = [ `Timeout | `Infeasible | `Unbounded ]
(** Why {!map_exact} produced no cover. [`Timeout] means its
    [time_limit] expired before any incumbent. *)

type exact_failure = { reason : exact_reason; stats : Lp.Milp.stats }

val exact_reason_to_string : exact_reason -> string
val pp_exact_failure : exact_failure Fmt.t

val map_exact :
  ?time_limit:float ->
  device:Fpga.Device.t ->
  delays:Fpga.Delays.t ->
  cuts:Cuts.t ->
  Ir.Cdfg.t ->
  Sched.Schedule.t ->
  (Sched.Cover.t, exact_failure) result
(** ILP minimum-area covering (cf. the paper's reference [7], here
    cut-based): binary cut-selection variables, Eq. 2–4 cover constraints,
    [min Σ area·c], warm-started from {!map_schedule}'s area-flow cover.
    Stage-local like {!map_schedule}. On failure the result says {e why}
    the exact cover is unavailable — a timeout (the MILP exhausted
    [time_limit], default 10 s, with no incumbent) is actionable (raise
    the budget), infeasible/unbounded is
    structural — so callers can report the cause instead of silently
    falling back to the heuristic. Exact-vs-heuristic is DESIGN.md
    ablation A5. *)

val map_global :
  ?deadline:Resilience.Deadline.t ->
  ?truncated:bool ref ->
  device:Fpga.Device.t ->
  delays:Fpga.Delays.t ->
  cuts:Cuts.t ->
  Ir.Cdfg.t ->
  Sched.Cover.t
(** Area-flow covering of the whole graph with no register boundaries —
    the mapping half of the map-first heuristic ({!Sched.Mapsched}).
    [deadline]/[truncated] behave as in {!map_schedule}. *)

