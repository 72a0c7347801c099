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

    A {!table} holds [dep] of every bit of one graph in flat arrays (one
    set of rules: [dep] lists the reads the table stores). {!compose}
    builds the support of every output bit of one node within a cone one
    level up, from the supports of its in-cone operands' sub-cones — the
    exact set of {e boundary bits} a K-LUT implementing that bit would
    need, the feasibility measure for word-level cuts. Each composition is
    a record in the table's one growable int arena, named by its offset,
    so cut enumeration ([Cuts.enumerate]) allocates no array per cone; it
    drops the records it does not keep with {!mark}, {!release} and
    {!keep}. The from-scratch transitive closure of [dep] that the tests
    hold {!compose} against lives with the tests. *)

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
(** The one-step [dep] of every (node, bit) of one graph, the scratch
    {!compose} runs in, and the arena holding every composition made over
    it. Not safe to share between domains. *)

val with_table : Ir.Cdfg.t -> (table -> 'a) -> 'a
(** [with_table g f] runs [f] on a table of [g] with an empty arena. The
    table's arrays are the calling domain's, reused from the last table
    whose [with_table] returned, so a sweep of calls allocates them once;
    nothing composed in one call is seen by the next. [f] must not keep
    the table, or any supports, past its return. *)

type cone_support = {
  max_support : int;
      (** max over the root's output bits of the boundary-bit support size
          — a cone is K-feasible iff this is [<= K] *)
  lut_bits : int;
      (** number of output bits that actually need a LUT: bits with two or
          more support bits, or a single support bit reached through
          non-wiring logic. Constant and pass-through bits are free. *)
}

type supports = int
(** The support of every output bit of one node within one cone, as the
    offset of its record in the table's arena. Bit [b]'s part starts
    [b * (k + 2)] ints in and holds its size, its wire flag (1 when the
    bit is a plain copy of at most one boundary bit routed only through
    wiring, else 0) and then its first [min size k] keys, unordered. A
    size above [k] marks a too-wide bit: it is [k + 1] when the bit reads
    a too-wide bit of an in-cone operand, else the exact count. [-1]
    stands for an operand outside the cone. *)

val compose :
  ?stop:bool -> table -> k:int -> root:int -> supports array -> supports
(** [compose t ~k ~root ops]: the supports of [root]'s output bits within
    the cone of [root] plus, for each operand position [i] (an index into
    [root]'s [preds]) with [ops.(i) >= 0], the operand's sub-cone whose
    supports [ops.(i)] are (built with the same [k]), written at the top
    of the arena. An operand with [ops.(i) = -1] is a boundary, and
    registered ([dist > 0]) reads always are. With no operands this is the
    node's trivial cone, whose sizes are all exact.

    [-1], and nothing written, iff [stop] (default [false]) and some
    output bit is too wide; it then stops at the first such bit. Else
    {!max_support} and {!lut_bits} read the record's measure until the
    next [compose]. *)

val max_support : table -> int
(** The [max_support] of the supports the last {!compose} on [t] returned
    (one that did not return [-1]), counted as it wrote them. *)

val lut_bits : table -> int
(** The [lut_bits] of the supports the last {!compose} on [t] returned,
    counted as it wrote them. *)

val mark : table -> int
(** The arena's top: the offset the next {!compose} writes at. *)

val release : table -> int -> unit
(** [release t m] drops every record at or above the {!mark} [m]. Their
    ints stay readable until the next {!compose} or {!keep}. *)

val keep : table -> k:int -> root:int -> supports -> supports
(** [keep t ~k ~root sup] copies [root]'s record [sup] to the arena's top
    and returns its new offset. After a {!release}, keeping the dropped
    records worth keeping in increasing offset order compacts them. *)
