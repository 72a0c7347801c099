(** The paper's MILP exactly as printed (Sec. 3.2, Eq. 2–15):

    - one-hot cycle binaries [s_{v,t}] for {e every} node (Eq. 5–6);
    - dependence constraints per CDFG edge (Eq. 7);
    - cycle-time constraints with per-operation delays (Eq. 8) and the
      printed big-M-free chaining form (Eq. 9);
    - register counting through [def]/[kill]/[live] binaries per node and
      cycle (Eq. 10–12), with the loop-carried kill index shifted by
      [II·dist] (the paper leaves the distance implicit);
    - modulo resource constraints (Eq. 14);
    - objective [α · Σ Bits(v)·root_v + β · Σ_m Reg(m)] (Eq. 13, 15).

    This formulation is O(V·M) larger than the default compact one
    ({!Formulation}); the repository keeps it as the fidelity reference —
    property tests check both produce the same optimal area/register
    objective on small kernels — and as the DESIGN.md ablation A1. *)

type t

val build : Formulation.config -> Ir.Cdfg.t -> Cuts.t -> t
val model : t -> Lp.Model.t
val extract : t -> Lp.Milp.result -> Sched.Schedule.t * Sched.Cover.t

val objective_breakdown :
  t -> Lp.Milp.result -> lut_bits:int ref -> reg_bits:int ref -> unit
(** Reads the two Eq. 15 terms back out of a solution (tests). *)
