(** Additive-delay modulo scheduler — the stand-in for the commercial HLS
    tool's heuristic (Sec. 4): list scheduling in topological order with
    operation chaining under pre-characterized delays, iterated to a fixed
    point over loop-carried dependences, with greedy modulo reservation of
    black-box resources.

    The scheduler is deliberately {e mapping-agnostic}: every operation
    incurs its characterized delay, so a chain of cheap logic operations
    fills the cycle long before a real LUT mapping would — exactly the
    pessimism the paper's Figure 1 illustrates. *)

type error =
  | Recurrence_too_tight of string
      (** a loop-carried cycle cannot meet the target II *)
  | Resource_infeasible of string
      (** black-box demand exceeds availability at the target II *)

val op_delay : delays:Fpga.Delays.t -> Ir.Cdfg.t -> int -> float
(** Characterized (additive-model) delay of one operation; comparisons are
    charged for their operand width. Shared with the SDC scheduler. *)

val op_latency :
  device:Fpga.Device.t -> delays:Fpga.Delays.t -> Ir.Cdfg.t -> int -> int
(** Whole cycles before the result is available under the additive model. *)

val black_box_uses : Ir.Cdfg.t -> (string * int) list
(** Black-box operations per resource class, each used class once, in one
    fixed (hash-table) order — the demand side of {!res_mii} and of the
    pre-flight analyzer's resource diagnostics. *)

val res_mii : resources:Fpga.Resource.budget -> Ir.Cdfg.t -> int
(** Resource-constrained lower bound on the II: per black-box resource
    class, [ceil (uses / limit)]. [max_int] when a used class has zero
    units. *)

val rec_mii : device:Fpga.Device.t -> delays:Fpga.Delays.t -> Ir.Cdfg.t -> int
(** Recurrence-constrained lower bound on the II: the smallest II at which
    no dependence cycle carries more chained delay (in fractional cycles,
    additive model) than its registers grant it. Capped at 64. *)

val recurrence_feasible :
  device:Fpga.Device.t -> delays:Fpga.Delays.t -> ii:int -> Ir.Cdfg.t -> bool
(** Whether the continuous relaxation of the dependence constraints admits
    the given [ii] — the test underlying {!rec_mii}, and the pre-flight
    analyzer's ({!Analyze.Preflight}) RecMII check. *)

val recurrence_witness :
  device:Fpga.Device.t -> delays:Fpga.Delays.t -> ii:int -> Ir.Cdfg.t ->
  int list option
(** The same relaxation run with parent pointers for [n + 1] rounds
    ([n] nodes): when it does not converge, the binding dependence cycle
    found by walking the parent chain back from a node the last round
    moved, in edge order from its entry node; [None] when the relaxation
    converges or the walk finds no cycle. *)

val min_ii :
  delays:Fpga.Delays.t -> device:Fpga.Device.t ->
  resources:Fpga.Resource.budget -> Ir.Cdfg.t -> int
(** [max (ResMII, RecMII)]: the classic lower bound on the initiation
    interval (Rau's iterative modulo scheduling). *)

(** {1 The list scheduler}

    One ASAP modulo list scheduler over two views of a graph: {!schedule}
    places every node behind its operands at its characterized delay,
    {!Mapsched.schedule} the cover's roots behind their cones' inputs at
    their cuts' delays. *)

type view = {
  order : int list;  (** the placed nodes, in topological order *)
  deps : Ir.Cdfg.edge array array;  (** per node id, what it waits on *)
  delay : int -> float;
  lat : int -> int;
}

val modulo :
  device:Fpga.Device.t -> resources:Fpga.Resource.budget -> ii:int ->
  Ir.Cdfg.t -> view -> int array * float array
(** The placement fixed point: rounds of ASAP placement with chaining and
    greedy modulo reservation of black boxes, until nothing moves or for
    100 rounds. Cycle and start per node id; unplaced nodes keep 0. *)

val check :
  resources:Fpga.Resource.budget -> ii:int -> Ir.Cdfg.t -> view ->
  int array -> float array -> (Schedule.t, error) result
(** [Recurrence_too_tight] for the first loop-carried dependence (node-id
    order) read before it crosses a register; else, when a cycle ran past
    the horizon, [Resource_infeasible] if a black box of the graph has a
    limited resource class and [Recurrence_too_tight] (naming the
    horizon) if none has; else the schedule. *)

val schedule :
  device:Fpga.Device.t ->
  delays:Fpga.Delays.t ->
  resources:Fpga.Resource.budget ->
  ii:int ->
  Ir.Cdfg.t ->
  (Schedule.t, error) result
(** {!modulo} and {!check} over the additive view: ASAP modulo schedule
    with chaining at the given [ii]. On success the schedule satisfies all
    dependence, cycle-time and resource constraints under the additive
    delay model (validated in tests via {!Verify} with a trivial cover). *)

val pp_error : error Fmt.t
