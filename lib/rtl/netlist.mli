(** Register-transfer-level netlists: the explicit structure behind the
    emitted Verilog, plus a cycle-accurate simulator.

    A netlist has input ports, combinational wires (in dependency order),
    black-box instances, pipeline registers (with FPGA-style initial
    values), and output ports. {!of_design} builds one from a verified
    (CDFG, cover, schedule) triple; {!simulate} clocks it — which is how
    the test suite proves that pipelining preserved the kernel's
    semantics, register placement included. *)

type signal = { name : string; width : int }

type expr =
  | Ref of signal
  | Lit of { width : int; value : int64 }
  | App of Ir.Op.t * expr list * int  (** op, operands, result width *)

type instance = {
  kind : string;  (** black-box module name *)
  args : expr list;
  out : signal;
}

type reg = { q : signal; d : expr; init : int64 }

type t = {
  module_name : string;
  inputs : signal list;
  wires : (signal * [ `Expr of expr | `Instance of instance ]) list;
      (** dependency order *)
  regs : reg list;
  fill : signal option;
      (** the pipeline-fill counter among [regs], present when a
          loop-carried read must be gated to its init value while the
          pipeline fills (a recurrence source scheduled after stage 0):
          counts cycles since reset and saturates at the largest
          [S(cons) + II·dist] it gates *)
  outputs : (signal * expr) list;
}

val of_design :
  ?module_name:string ->
  Ir.Cdfg.t ->
  Sched.Cover.t ->
  Sched.Schedule.t ->
  t
(** @raise Invalid_argument if the cover fails {!Sched.Cover.validate}. *)

val register_bits : t -> int
(** Pipeline register bits: every register except the [fill]
    counter, which is control state outside the QoR FF model. *)

val lut_expressions : t -> int
(** Combinational [`Expr] wires, excluding plain input aliases. *)

type sim_result = {
  cycles : int;
  outputs : (string * int64 array) list;
      (** per output port, one value per cycle *)
}

val simulate :
  ?black_box:(kind:string -> int64 array -> int64) ->
  t ->
  cycles:int ->
  inputs:(cycle:int -> name:string -> int64) ->
  sim_result
(** Clock the netlist [cycles] times. Combinational wires settle within
    the cycle (they are stored in dependency order); registers update at
    the cycle boundary. *)
