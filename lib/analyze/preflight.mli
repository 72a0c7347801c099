(** Pipelining pre-flight: the feasibility screen run {e before} MILP
    construction (and before the heuristic schedulers), mirroring the
    recurrence/resource MII reports commercial HLS tools print before
    attempting to pipeline a loop.

    Reuses {!Sched.Heuristic.res_mii} / {!Sched.Heuristic.rec_mii} for the
    bounds and adds witnesses: the binding recurrence cycle (extracted from
    the non-convergent longest-path relaxation) and the binding resource
    class.

    Codes:
    - [PRE001] (error): requested [II] is below RecMII; the witness is a
      dependence cycle that cannot close at that II.
    - [PRE002] (error): requested [II] is below ResMII; the witness names
      the binding black-box resource class with its demand and limit.
    - [PRE003] (warning, or error under [~strict_period:true]): the target
      clock period is below the slowest single-operation delay. This
      reproduction schedules such operations over multiple cycles, so by
      default the finding only warns; under the paper's single-cycle
      reading of Eq. 8 it is fatal, which [strict_period] selects.
    - [PRE004] (error): a black-box resource class is used but has a zero
      budget — no initiation interval is feasible. *)

type config = {
  device : Fpga.Device.t;
  delays : Fpga.Delays.t;
  resources : Fpga.Resource.budget;
  ii : int;  (** requested initiation interval *)
}

val pass_name : string

val check : ?strict_period:bool -> config -> Ir.Cdfg.t -> Diag.t list
(** All pre-flight findings; [strict_period] defaults to [false]. *)

