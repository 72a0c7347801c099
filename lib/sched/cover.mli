(** LUT covers: the mapping half of a mapping-aware schedule.

    A cover selects at most one cut per node; nodes with a selected cut are
    {e roots} (they exist as physical signals, [root_v = 1] in the MILP),
    all other nodes live only inside selected cones. *)

type t = { chosen : Cuts.cut option array }

val make : Ir.Cdfg.t -> (int * Cuts.cut) list -> t
(** @raise Invalid_argument on duplicate or mismatched roots. *)

val all_trivial : Ir.Cdfg.t -> Cuts.t -> t
(** Every node selects its trivial cut — the additive-model cover used by
    the HLS-tool and MILP-base flows before downstream mapping. *)

val is_root : t -> int -> bool
val chosen : t -> int -> Cuts.cut option
val roots : t -> int list
val lut_area : t -> int
(** Sum of the selected cuts' LUT areas. *)

val validate : Ir.Cdfg.t -> t -> (unit, string) result
(** Checks the paper's cover constraints: primary outputs are roots
    (Eq. 3); every leaf of a selected cut is itself a root (Eq. 4); every
    node reachable backward from an output is covered by some selected
    cone; black boxes and inputs are never cone-interior. *)

val iter_interior : Ir.Cdfg.t -> t -> (int -> int -> unit) -> unit
(** [iter_interior g t f] calls [f v o] for every covered node [v] that is
    not a root, [o] being the highest-id root whose selected cone contains
    [v]: the owner whose slot an interior node displays. *)

val pp : Ir.Cdfg.t -> t Fmt.t
