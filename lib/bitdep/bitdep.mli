(** Bit-level dependence tracking on the word-level CDFG (paper Sec. 3.1).

    For every output bit of an operation, [dep] reports which bits of which
    operand {e nodes} it depends on. The three classes of the paper are
    implemented — bitwise (one bit per operand), shift (one shifted bit),
    arithmetic (all lower bits of both operands) — plus constant-aware
    refinements: comparing against a constant [c] with [tz] trailing zeros
    only reads bits [>= tz] (this is how the paper's "[B >= 0] is an MSB
    test" observation falls out), masking with a constant passes bits
    through or zeroes them, and adding a constant leaves bits below [tz c]
    untouched.

    {!closure} closes [dep] transitively inside a cone, yielding the exact
    set of {e boundary bits} a K-LUT implementing that cone's bit would
    need — the feasibility measure for word-level cuts. It is the one
    closure: [support], [max_support_width] and [lut_bits] are views of
    it. A closure writes every support it builds into one pooled [int
    array] of its {!table} (an offset and a length per bit, the pool
    refilled from the start by each closure), so it allocates nothing
    per bit. *)

module Bitpos : sig
  type t = {
    node : int;
    bit : int;
    dist : int;
        (** 0 for a combinational read; [> 0] when the bit is read through
            a pipeline register carrying a loop-carried dependence *)
  }

  val compare : t -> t -> int
  val pp : t Fmt.t

  module Set : Set.S with type elt = t
end

module Int_set : Set.S with type elt = int

type one_step = {
  reads : Bitpos.t list;  (** operand bits this output bit depends on *)
  passthrough : bool;
      (** [true] iff the output bit equals the (then unique) read bit —
          pure rewiring that needs no LUT *)
}

val dep : Ir.Cdfg.t -> node:int -> bit:int -> one_step
(** One-step dependence of bit [bit] of [node], following the paper's
    [DEP] definitions with constant refinements. Bits of constant operands
    are omitted (they are hardwired into the LUT mask).
    @raise Invalid_argument if [bit] is outside the node's width. *)

type table
(** The one-step [dep] of every (node, bit) of one graph, plus the scratch
    one {!closure} runs in. Build one per graph and pass it to every
    closure over that graph; it holds no results across closures. Not
    safe to share between domains. *)

val table : Ir.Cdfg.t -> table

type cone_support = {
  max_support : int;
      (** max over the root's output bits of the boundary-bit support size
          — a cone is K-feasible iff this is [<= K] *)
  lut_bits : int;
      (** number of output bits that actually need a LUT: bits with two or
          more support bits, or a single support bit reached through
          non-wiring logic. Constant and pass-through bits are free. *)
}

val closure :
  ?bound:int -> table -> root:int -> cone:int list -> cone_support option
(** Transitive closure of [dep] from every output bit of [root], expanding
    through the nodes listed in [cone] (in any order) and stopping at
    nodes outside it; registered ([dist > 0]) reads always stop, even if
    the producer is in the cone.
    Each (node, bit) is closed once per call.

    [None] iff some output bit's support exceeds [bound] (default
    unbounded). The closure stops at the first set that grows past
    [bound]: every support reached below a root bit is contained in that
    root bit's support, so that root bit must exceed [bound] too.
    @raise Invalid_argument if [cone] does not contain [root]. *)

type bit_support = {
  bits : Bitpos.Set.t;  (** boundary bits feeding this output bit *)
  pure_wire : bool;
      (** the bit is a plain copy of a single boundary bit (or a constant)
          routed only through wiring — it needs no LUT *)
}

(** {2 Views}

    Each runs {!closure} once, unbounded, on a fresh {!table}, over
    [Int_set.elements cone]. *)

val support :
  Ir.Cdfg.t -> root:int -> cone:Int_set.t -> bit:int -> bit_support
(** Output bit [bit]'s support as a set of bit positions. *)

val max_support_width : Ir.Cdfg.t -> root:int -> cone:Int_set.t -> int
(** [max_support] of the closure. *)

val lut_bits : Ir.Cdfg.t -> root:int -> cone:Int_set.t -> int
(** [lut_bits] of the closure. *)
