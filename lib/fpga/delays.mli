(** Characterized (additive-model) operation delays.

    These are the pre-characterized delays a traditional scheduler assumes
    — the paper's "additive delay model". They stand in for the values the
    authors back-annotated from the commercial HLS tool's schedule report
    (Sec. 4). The mapping-aware flow only uses them for nodes that stay
    outside LUT cones (arithmetic carry chains and black boxes). *)

type t
(** A delay characterization table. *)

val default : t
(** Calibrated so the paper's anecdotes hold: a bitwise logic op costs
    1.37 ns (the delay the authors observed for XOR), constant shifts are
    free wiring, arithmetic grows linearly with width, black boxes have
    per-class delays. *)

val make :
  ?logic:float ->
  ?arith_base:float ->
  ?arith_per_bit:float ->
  ?black_box:(string * float) list ->
  unit -> t
(** Override individual characterizations. [black_box] maps resource-class
    names to delays; unknown classes fall back to [logic].
    @raise Invalid_argument on negative delays. *)

val with_logic : t -> logic:float -> t
(** Same characterization with the bitwise-logic delay replaced — used to
    build warm-start schedules that are feasible under a mapped (one LUT
    per logic op) delay model. *)

val additive : t -> cls:Op_class.t -> width:int -> float
(** Delay of one operation of class [cls] producing a [width]-bit result
    under the additive model. [Wire] is always 0. *)

val latency_cycles : t -> device:Device.t -> cls:Op_class.t -> width:int -> int
(** Number of whole clock cycles consumed before the result is available:
    [floor (additive / usable_period)] — 0 for ops that fit in a fraction of
    a cycle, following Eq. (10)'s [d_v / T_CP] term. *)

