(** Exact dyadic-rational arithmetic for the certificate audit
    ({!Audit}, DESIGN.md §3h).

    Doubles are dyadic rationals [m·2^e]; the audit only needs ring
    operations (sums of products) and comparisons on them, so this
    representation — an arbitrary-precision sign-magnitude mantissa plus
    a binary exponent — is exact and closed under every operation the
    checker performs. There is deliberately no division: the whole audit
    is phrased to avoid it, which is what lets the module stay
    self-contained (no external bignum dependency). *)

type t

val zero : t
val of_int : int -> t

val of_float : float -> t
(** Exact conversion — no rounding.
    @raise Invalid_argument on NaN or infinity (callers handle infinite
    bounds structurally, not numerically). *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val sign : t -> int
(** [-1], [0] or [+1]. *)

val is_zero : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val lt : t -> t -> bool
val leq : t -> t -> bool
val geq : t -> t -> bool

val is_integer : t -> bool
(** Exact integrality test — zero tolerance. *)

val to_float : t -> float
(** A nearby double, for diagnostics messages only. It truncates to the
    top three limbs of whatever alignment the operations that built the
    number left, so two equal values may read differently: nothing that
    decides a result may depend on it ({!Acc.to_float} is correctly
    rounded). *)

val sum : int -> (int -> t) -> t
(** [sum n f] is [f 0 + ... + f (n-1)], exactly. *)

val pp : t Fmt.t

(** {1 Exact accumulator}

    A mutable fixed-point register for sums of products of doubles, with
    no allocation per term: a Kulisch accumulator of 26-bit limbs that
    spans every double×double×double product. Carries are deferred and
    only the range of limbs written is cleared or normalized. {!Cutgen}
    derives its Chvátal–Gomory aggregations on it; the audit keeps the
    plain {!t} fold as its independent check. *)
module Acc : sig
  type qd := t
  type t

  val create : unit -> t
  (** A zero register (about 2 KiB). *)

  val clear : t -> unit
  (** Reset to zero, in time proportional to the limbs written. *)

  val add_prod : t -> float -> float -> unit
  (** [add_prod acc a b] adds [a·b] exactly, subnormals included.
      @raise Invalid_argument when [a] or [b] is NaN or infinite, as
      {!of_float} does. *)

  val add_scaled : t -> t -> float -> unit
  (** [add_scaled acc src f] adds [src·f] exactly ([src] a different
      register, read only). [src] must hold a sum of double×double
      products, so the result stays in range.
      @raise Invalid_argument when [f] is NaN or infinite. *)

  val is_zero : t -> bool
  val sign : t -> int
  val is_integer : t -> bool

  val floor : t -> float option
  (** [Some ⌊q⌋] exactly when [-2^53 <= ⌊q⌋ < 2^53] (so the floor is a
      double and so is the floor plus one), else [None]. *)

  val no_floor : int
  (** [min_int]: {!floor_int}'s answer where {!floor} says [None]. *)

  val floor_int : t -> int
  (** {!floor} without the allocation: [⌊q⌋] as an int when [-2^53 <=
      ⌊q⌋ < 2^53], else {!no_floor}. *)

  val to_float : t -> float
  (** The value rounded to the nearest double, ties to even; overflows
      to an infinity. *)

  val to_qd : t -> qd
  (** The exact value. *)
end
