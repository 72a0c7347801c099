(** Classification of word-level operations for delay/area characterization.

    The IR maps each opcode to one of these classes; the FPGA library only
    ever reasons about classes, which keeps the device model independent of
    the IR. *)

type t =
  | Logic  (** bitwise AND/OR/XOR/NOT and 2:1 MUX — LUT fabric logic *)
  | Wire
      (** zero-cost rewiring: shift by constant, bit slice, concat,
          constants, primary inputs *)
  | Arith  (** ADD/SUB/CMP — carry-chain arithmetic, delay grows with width *)
  | Black_box of string
      (** operations that never map to LUTs (memory ports, DSP multiplies);
          the string names the resource class, e.g. ["bram_port"] *)

val equal : t -> t -> bool
val is_black_box : t -> bool
val is_mappable : t -> bool
(** [true] for classes whose nodes may appear inside a LUT cone ([Logic] and
    [Wire]); [Arith] nodes may be roots or, when narrow enough to pass the
    per-bit feasibility test, cone members. *)

