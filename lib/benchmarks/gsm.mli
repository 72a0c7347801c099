(** GSM application (Table 1, "Communication"): the saturating fixed-point
    accumulation at the heart of GSM full-rate LPC (the [GSM_ADD] /
    reflection-coefficient style chain) — a cascade of add/saturate
    stages against compile-time rails, with a black-box coefficient-table
    lookup feeding the chain. Saturation tests compare against constants,
    which the bit-level dependence tracker narrows to a handful of high
    bits (DESIGN.md). *)

val build : ?width:int -> ?stages:int -> unit -> Ir.Cdfg.t
(** Defaults: [width = 12], [stages = 3]. Inputs ["s"] (sample) and ["c"]
    (coefficient selector); output the saturated accumulation. *)

val black_box_handler : width:int -> kind:string -> int64 array -> int64

val reference : width:int -> stages:int -> s:int64 -> c:int64 -> int64
