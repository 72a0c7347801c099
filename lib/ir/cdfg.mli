(** Word-level control data-flow graph (CDFG).

    Nodes are word-level operations; edges carry an inter-iteration
    dependence distance ([dist = 0] for intra-iteration dependences, [> 0]
    for loop-carried ones, footnote 1 of the paper). Graphs are immutable;
    construct them with {!module:Builder}. *)

type edge = {
  src : int;  (** producing node id *)
  dist : int;  (** dependence distance in iterations, [>= 0] *)
  init : int64;
      (** value observed by iterations [k < dist] (reset state of the
          recurrence register); ignored when [dist = 0] *)
}

type node = {
  id : int;
  op : Op.t;
  width : int;  (** width in bits of the produced value, [Bits(v)] *)
  preds : edge array;  (** operand order is significant *)
  name : string option;  (** for diagnostics and DOT output *)
}

type t

val create : nodes:node list -> outputs:int list -> t
(** Internal constructor used by {!module:Builder}; validates the graph.
    @raise Invalid_argument if {!validate} would return an error. *)

val num_nodes : t -> int
val node : t -> int -> node
val op : t -> int -> Op.t
val width : t -> int -> int
val preds : t -> int -> edge array
val succs : t -> int -> (int * int) list
(** [(consumer, dist)] pairs, deterministic order. *)

val outputs : t -> int list
(** Primary outputs, in declaration order, non-empty. *)

val is_output : t -> int -> bool

val inputs : t -> int list
(** Ids of [Input] nodes, in id order. *)

val node_name : t -> int -> string
(** User name if present, otherwise ["n<id>"]. *)

val topo_order : t -> int list
(** Topological order of the intra-iteration ([dist = 0]) subgraph; the
    graph restricted to such edges is acyclic by construction. *)

val fold : (node -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (node -> unit) -> t -> unit

val validate : t -> (unit, string) result
(** Structural invariants: ids dense and in range, distances non-negative,
    width discipline per opcode, the [dist = 0] subgraph acyclic, outputs
    non-empty and valid, input names unique. *)

val stats : t -> string
(** One-line summary: node/edge/black-box counts. *)

val pp : t Fmt.t
