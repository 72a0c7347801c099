(** Shared construction helpers for the benchmark CDFGs and their software
    reference models. *)

val mask : width:int -> int64 -> int64

(** {1 Hardware builders} *)

val eq_zero :
  Ir.Builder.t -> chunk:int -> Ir.Builder.value -> Ir.Builder.value
(** 1-bit "value == 0" test decomposed into [chunk]-bit slices whose
    equality tests are ANDed together — the bit-level decomposition a
    frontend applies so wide zero-tests become LUT-mappable (cf. the
    paper's reference [21]). *)

val mux_const :
  Ir.Builder.t -> width:int -> cond:Ir.Builder.value -> int64 -> int64 ->
  Ir.Builder.value
(** [mux_const b ~width ~cond if_true if_false] between two constants. *)

val xor_reduce : Ir.Builder.t -> Ir.Builder.value list -> Ir.Builder.value
(** Balanced xor tree. *)

val popcount :
  Ir.Builder.t -> Ir.Builder.value -> width:int -> Ir.Builder.value
(** SWAR popcount of a [width]-bit value (width must be a power of two,
    [<= 32]); result has the same width. *)

(** {1 Reference-model helpers} *)

val popcount_ref : width:int -> int64 -> int64
