(** Modulo schedules: for every CDFG node, the clock cycle [S_v] it is
    assigned to and its start time [L_v] within the cycle (ns). *)

type t = {
  ii : int;  (** initiation interval, cycles *)
  cycle : int array;  (** [S_v] per node id *)
  start : float array;  (** [L_v] per node id, [0 <= L_v <= T_cp] *)
}

val make : ii:int -> cycle:int array -> start:float array -> t
(** @raise Invalid_argument on length mismatch, [ii < 1], or negative
    cycles/starts. *)

val latency : t -> int
(** Highest assigned cycle (pipeline depth measure; stages = latency + 1). *)

val phase : t -> int -> int
(** [cycle.(v) mod ii] — the modulo-resource phase of node [v]. *)

val shift_to_zero : t -> t
(** Renumber cycles so the earliest is 0. *)

val pp_detailed : Ir.Cdfg.t -> t Fmt.t
