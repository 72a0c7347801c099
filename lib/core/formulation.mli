(** The mapping-aware modulo scheduling MILP (paper Sec. 3.2), in the
    compact {e lifetime} form used by default (DESIGN.md):

    - cover constraints, Eq. (2)–(4), on cut-selection binaries [c_{v,i}];
    - an integer cycle variable [S_v] and continuous start time [L_v] per
      node instead of the paper's [s_{v,t}] one-hot binaries ([s_{v,t}]
      binaries are still created for black boxes under finite resource
      budgets, where Eq. (14) needs the modulo phase);
    - chaining/cycle-time constraints, Eq. (8)–(9), conditioned on cut
      selection with big-M terms, with the selected cut's delay entering as
      the linear expression [Σ_j delay_j · c_{v,j}];
    - one register-lifetime variable [reg_v] per node with one constraint
      per (cut, leaf) pair replacing the O(V·M) def/kill/live system of
      Eq. (10)–(12); the objective value Σ Bits·reg equals Eq. (13)+(15)'s
      register count (property-tested against {!Formulation_exact});
    - objective Eq. (15): [α · Σ area_i · c_{v,i} + β · Σ Bits(v) · reg_v].

    The delay charged to a selected cut is injectable so the same builder
    serves MILP-map (mapped delays) and MILP-base (additive characterized
    delays with trivial cuts only). *)

type config = {
  device : Fpga.Device.t;
  delays : Fpga.Delays.t;
  resources : Fpga.Resource.budget;
  ii : int;
  max_latency : int;  (** bound [M] on pipeline cycles, from the baseline *)
  alpha : float;  (** LUT weight in Eq. (15) *)
  beta : float;  (** register weight in Eq. (15) *)
  cut_delay : Ir.Cdfg.t -> Cuts.cut -> float;
      (** delay model for selected cuts *)
}

val mapped_delay : device:Fpga.Device.t -> delays:Fpga.Delays.t ->
  Ir.Cdfg.t -> Cuts.cut -> float
(** {!Cuts.delay}: one LUT level per mapped cone (MILP-map). *)

val additive_delay : delays:Fpga.Delays.t -> Ir.Cdfg.t -> Cuts.cut -> float
(** The characterized delay of the root operation regardless of the cone
    (MILP-base / traditional scheduling). *)

type t
(** A built formulation: the model plus variable handles. *)

val build : config -> Ir.Cdfg.t -> Cuts.t -> t

val model : t -> Lp.Model.t

val branch_priorities : t -> int array
(** Branching tie-break for {!Lp.Milp.solve}: among columns with equal
    pseudocost scores, cut-selection binaries first (they shape area and
    timing), then roots and resource one-hots, then cycle variables. *)

val incumbent_of_schedule :
  t -> Sched.Schedule.t -> Sched.Cover.t -> float array
(** Translate a feasible (schedule, cover) pair — typically the heuristic
    baseline with the all-trivial cover — into a warm-start assignment.
    @raise Invalid_argument if the pair does not fit the formulation. *)

val extract : t -> Lp.Milp.result -> Sched.Schedule.t * Sched.Cover.t
(** Read the schedule and cover out of a feasible MILP result. *)

val size : t -> string
(** Human-readable variable/constraint counts (Table 2 commentary). *)

type leaf_info = {
  has_comb : bool;  (** some dist-0 edge into the cone *)
  min_reg_dist : int option;  (** tightest registered entry *)
  max_dist : int;  (** worst-case lifetime distance *)
}

val leaf_infos : Ir.Cdfg.t -> Cuts.cut -> (int * leaf_info) list
(** How each leaf's value enters the cone, sorted by leaf — shared with
    the paper-exact formulation. *)
