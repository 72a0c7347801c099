(** Word-level cut enumeration (paper Sec. 3.1, Algorithm 1).

    For every CDFG node [v] this module enumerates the K-feasible cuts the
    MILP may select. A {e cut} is the set of boundary nodes of a cone rooted
    at [v]; selecting it means the whole cone is implemented as [Bits(v)]
    bit-slice K-LUTs whose inputs are the boundary bits.

    Deviations from bit-level enumeration, per DESIGN.md:
    - feasibility is per output bit: the cone is K-feasible iff every output
      bit's boundary-bit support has at most K bits. Each distinct
      canonical cone of a merge gets one {!Bitdep.compose} bounded by K,
      which yields its support and its area together, over one
      {!Bitdep.table} per {!enumerate} call. It composes the root's
      supports from those its operands' chosen cuts already hold, and
      composes an operand's sub-cone afresh only when another operand put
      a leaf inside that cut's cone;
    - a candidate none of whose chosen cuts' cones holds one of its leaves
      takes its cone from those cuts; only the others walk their cone
      from the root;
    - a merge keeps its work in flat int scratch that every merge of the
      call reuses: leaf sets are bit masks over the leaves the merge's
      operands offer, candidates and distinct cones interned entries of
      one table, a cone's members a slice of a members pool, and its
      supports an offset into the table's arena. Only the at most
      [max_cuts] kept cones become {!cut}s; the supports of the rest are
      dropped from the arena when the merge ends;
    - cones never cross loop-carried ([dist > 0]) edges — LUTs are
      combinational, so registered operands are always boundaries;
    - black-box, input and constant nodes are never cone members;
    - the {e trivial} cut (the node alone, its operands as boundaries) is
      always present and always legal even when wider than K — it is the
      additive-model fallback (carry chains, black boxes). *)

type cut = {
  root : int;
  leaves : int list;
      (** boundary node ids, sorted, deduplicated; these are the nodes that
          must themselves be roots when this cut is selected (Eq. 4) *)
  cone : Bitdep.Int_set.t;  (** covered nodes, including [root] *)
  support : int;  (** max per-output-bit boundary support width *)
  area : int;
      (** LUT cost of selecting this cut: the per-bit LUT count for logic
          cones ({!Bitdep.cone_support}'s [lut_bits]), the carry-chain
          width for single-node arithmetic, a compressor-tree estimate for
          single-node comparisons, 0 for wires and black boxes *)
}

type t = cut array array
(** [cuts.(v)] are the selectable cuts of node [v]; index 0 is always the
    trivial cut. *)

type params = {
  k : int;  (** LUT input count *)
  max_cuts : int;  (** per-node cap on stored cuts, trivial cut excluded *)
  max_candidates : int;  (** per-node cap on merge combinations explored *)
  max_leaf_words : int;  (** quick reject on word-level leaf count *)
}

val default_params : k:int -> params
(** [max_cuts = 10], [max_candidates = 512], [max_leaf_words = k + 2]. *)

val enumerate :
  ?params:params ->
  ?deadline:Resilience.Deadline.t ->
  ?truncated:bool ref ->
  k:int ->
  Ir.Cdfg.t ->
  t
(** Algorithm 1: worklist-driven merge of predecessor cut sets. Cuts are
    ranked by (area, support, leaf count) and pruned to [max_cuts] per node;
    the trivial cut is never pruned.

    When [deadline] (default {!Resilience.Deadline.none}) expires the
    worklist is abandoned: [truncated] (if given) is set and the partial
    result is returned. The result is always valid — every node's cut set
    is initialised with its trivial cut, so truncation only reduces the
    number of non-trivial alternatives offered downstream.

    Fault points ({!Resilience.Fault}): [cuts.raise] raises [Failure] at
    entry; [cuts.timeout] forces immediate truncation. *)

val trivial_only : ?k:int -> Ir.Cdfg.t -> t
(** The cut sets used by MILP-base: every node keeps only its trivial cut
    (equivalent to skipping cut enumeration, Sec. 4). [k] (default 4, the
    default device's) is the LUT input count; it prices a comparison's
    trivial cut, so pass the device's K to get the same cut 0 as
    {!enumerate}. *)

val is_trivial : cut -> bool
(** The cone contains only the root. *)

val is_input : cut -> Ir.Cdfg.edge -> bool
(** An edge into a cone node is a {e cone input} when it is loop-carried
    or its source lies outside the cone: the value crosses the cone's
    boundary, through a register or from another root. The one definition
    every timing, liveness, legality and netlist walk uses. *)

val iter_inputs : Ir.Cdfg.t -> cut -> (int -> Ir.Cdfg.edge -> unit) -> unit
(** [iter_inputs g cut f] calls [f w e] for every cone input [e] of a cone
    node [w] ({!is_input}), cone nodes in increasing id order and each
    node's edges in operand order. *)

val delay :
  device:Fpga.Device.t -> delays:Fpga.Delays.t -> Ir.Cdfg.t -> cut -> float
(** Combinational delay charged to the cut's root when this cut is
    selected: one LUT delay for mapped cones, the characterized delay for
    single-node arithmetic / black boxes, 0 for pure wiring. *)

val total_cuts : t -> int
val pp_cut : Ir.Cdfg.t -> cut Fmt.t
val pp_node_cuts : Ir.Cdfg.t -> (int * cut array) Fmt.t
