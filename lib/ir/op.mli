(** Word-level opcodes of the CDFG.

    The set mirrors what the paper's Sec. 3.1 classifies: bitwise logic,
    constant shifts, carry-chain arithmetic, and black-box operations that
    never map to LUTs (memory ports, DSP multiplies, streamed I/O). *)

type bitwise = And | Or | Xor
type cmp = Eq | Ne | Lt | Le | Gt | Ge  (** unsigned comparisons *)

type t =
  | Input of string  (** primary input, named *)
  | Const of int64
  | Not
  | Bitwise of bitwise
  | Shl of int  (** left shift by a constant — pure wiring *)
  | Shr of int  (** logical right shift by a constant — pure wiring *)
  | Slice of { lo : int; hi : int }  (** bits [hi:lo], inclusive — wiring *)
  | Concat  (** [Concat [high; low]] — wiring *)
  | Add
  | Sub
  | Cmp of cmp
  | Mux  (** operands [cond; if_true; if_false], [cond] is 1 bit wide *)
  | Black_box of { kind : string; resource : string }
      (** e.g. [kind = "sbox_load"], [resource = "bram_port"] *)

val arity : t -> int option
(** Expected operand count, [None] for [Black_box] (any). *)

val classify : t -> Fpga.Op_class.t
(** Delay/area class used by the device model. *)

val result_width : t -> operand_widths:int list -> int
(** Width of the produced value given operand widths.
    @raise Invalid_argument when operand widths violate the opcode's
    rules (see {!val:validate_widths}). *)

val validate_widths : t -> operand_widths:int list -> (unit, string) result
(** Checks the width discipline: bitwise/arith operands equal widths; [Mux]
    condition is 1 bit and arms match; [Slice] within range; etc. *)

val eval :
  t ->
  width:int ->
  black_box:(kind:string -> int64 array -> int64) ->
  int64 array ->
  int64
(** Bit-accurate semantics of the opcode on operand values already masked
    to their widths; the result is masked to [width]. [Input] and [Const]
    take no operands ([Input] evaluation is handled by the simulator).
    @raise Invalid_argument on arity mismatch. *)


val equal : t -> t -> bool
val pp : t Fmt.t
val to_string : t -> string
