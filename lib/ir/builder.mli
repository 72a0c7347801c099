(** Imperative construction of {!Cdfg.t} values.

    The builder assigns dense ids, infers result widths, and supports
    loop-carried recurrences through {e feedback cells}: a cell is a typed
    placeholder that can be consumed immediately and driven later by the
    node computing the next-iteration value. Feedback cells disappear from
    the final graph — their consumers end up with a direct edge to the
    driving node, carrying the cell's dependence distance and reset value. *)

type t
type value
(** Handle to a node (or feedback cell) inside a builder. *)

val create : unit -> t

(** {1 Sources} *)

val input : t -> ?name:string -> width:int -> string -> value
(** [input b ~width name] declares a primary input. The positional string is
    the input's name; [?name] overrides the diagnostic label. *)

val const : t -> width:int -> int64 -> value

val feedback : t -> width:int -> init:int64 -> dist:int -> value
(** A recurrence placeholder: reading it yields the driving node's value
    from [dist] iterations ago, [init] before that.
    @raise Invalid_argument if [dist < 1]. *)

val drive : t -> cell:value -> value -> unit
(** Connect the node computing the next value of the recurrence to the
    cell. Must be called exactly once per cell before {!finish}.
    @raise Invalid_argument if [cell] is not a feedback cell, is already
    driven, or widths differ. *)

(** {1 Operations} *)

val not_ : t -> ?name:string -> value -> value
val and_ : t -> ?name:string -> value -> value -> value
val or_ : t -> ?name:string -> value -> value -> value
val xor_ : t -> ?name:string -> value -> value -> value
val shl : t -> ?name:string -> value -> int -> value
val shr : t -> ?name:string -> value -> int -> value
val slice : t -> ?name:string -> value -> lo:int -> hi:int -> value

val concat : t -> ?name:string -> value -> value -> value
(** [concat b high low] — first operand supplies the high bits. *)

val add : t -> ?name:string -> value -> value -> value
val sub : t -> ?name:string -> value -> value -> value
val cmp : t -> ?name:string -> Op.cmp -> value -> value -> value
val mux : t -> ?name:string -> cond:value -> value -> value -> value

val black_box :
  t -> ?name:string -> kind:string -> resource:string -> width:int ->
  value list -> value

(** {1 Reductions} *)

val reduce : t -> ?name:string -> (t -> value -> value -> value) -> value list -> value
(** Balanced binary reduction tree, e.g.
    [reduce b xor_ values] builds an XOR tree.
    @raise Invalid_argument on the empty list. *)

(** {1 Finalization} *)

val output : t -> value -> unit
(** Mark a node as primary output (in call order). *)

val finish : t -> Cdfg.t
(** Validates and freezes the graph.
    @raise Invalid_argument if a feedback cell is undriven, no output was
    declared, or the graph violates {!Cdfg.validate}. *)

val width_of : t -> value -> int
