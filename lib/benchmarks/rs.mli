(** Reed-Solomon encoder benchmarks (paper Fig. 1–2 and the RS row of
    Table 1).

    [kernel] is the data-flow graph of the paper's Figure 1: one LFSR tap
    of a Reed-Solomon encoder —

    {v
      u1 = t xor (t >> 1)  (symbol pre-scaling, two levels)
      u = u1 xor (u1 << 1)
      A = s << 1           (shift of the running state, pure wiring)
      B = u xor A          (mix in the incoming symbol)
      E : s <- B           (loop-carried state, distance 1)
      C = B >= 2^(w-1)     (the paper's "B >= 0" sign test: an MSB probe)
      D = C ? B xor poly : B   (conditional reduction, primary output)
    v}

    Adapted from the figure so the recurrence (one xor) meets II = 1 under
    both the additive and the mapped delay model; see DESIGN.md.

    [full] is a multi-tap GF(2^w) LFSR encoder: every generator-polynomial
    tap multiplies the feedback symbol with a constant via shift-and-xor
    Galois multiplication and folds it into the parity register chain, with
    the syndrome symbol streamed in each cycle. *)

val kernel : ?width:int -> unit -> Ir.Cdfg.t
(** Default [width = 8]; Figure 2 uses [width = 2]. *)

val kernel_reference : width:int -> t:int64 -> state:int64 -> int64 * int64
(** One iteration of the kernel in software:
    [(next_state, primary_output)]. *)

val full : ?width:int -> ?taps:int -> unit -> Ir.Cdfg.t
(** Default [width = 4], [taps = 4] parity symbols. *)

val full_reference :
  width:int -> taps:int -> data:int64 list -> int64 list
(** Feed [data] symbols through the software encoder; returns the final
    parity registers (low tap first). *)

(** {1 Galois-field building blocks} (shared with GFMUL and AES) *)

val poly_for : width:int -> int64
(** Field polynomial's low bits (0x1d masked to the width). *)

val xtime : Ir.Builder.t -> width:int -> Ir.Builder.value -> Ir.Builder.value
(** Multiply by x in GF(2^width): shift, MSB probe, conditional reduce. *)

val xtime_ref : width:int -> int64 -> int64
