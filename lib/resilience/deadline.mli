(** Cooperative wall-clock deadlines for the synthesis flow.

    A deadline is an absolute expiry instant on the monotonized wall
    clock ({!Obs.Clock.wall}) — resilience-v2 moved it off [Sys.time],
    whose per-process CPU seconds accumulate across OCaml 5 domains and
    made a [--domains 4] budget expire ~4x early. Subsystems receive a
    deadline and poll {!expired} at loop granularity (simplex pivots,
    branch-and-bound nodes, cut-enumeration worklist items, area-flow
    labelling) rather than only between coarse phases; {!none} makes
    every check free-ish and never expires, so deadline-free callers pay
    almost nothing.

    Deadlines compose downward: {!clip} derives a sub-deadline that a
    phase may not outlive, and {!split} schedules a sequence of phases
    inside one global budget, with unused time rolling over to later
    phases (cumulative checkpoints).

    A deadline may additionally carry a {b cancellation cell}
    ({!with_cancel}): an atomic flag another domain can raise to make
    {!expired} true immediately. The stall watchdog uses this to unwedge
    a worker stuck inside a single pathological LP — the simplex polls
    the same deadline it polls for time, so a cancel takes effect within
    one poll interval (64 pivots). *)

type t
(** Abstract; immutable (the optional cancel cell it references is the
    mutable part). The no-deadline value never expires. *)

type cell = bool Atomic.t
(** External cancellation flag, shared between the canceller (watchdog)
    and every deadline derived {e from} the cell's owner via
    {!with_cancel}. *)

val none : t
(** Never expires; [remaining none = infinity]. *)

val of_budget : float -> t
(** [of_budget s] expires [max 0. s] seconds from now (no cell). *)

val clip : t -> budget:float -> t
(** [clip d ~budget] is the earlier of [d] and [of_budget budget] — the
    standard way to give a phase a local budget that still respects the
    global deadline. The cell (if any) is inherited from [d]. *)


val new_cell : unit -> cell
(** A fresh, un-cancelled cell. *)

val with_cancel : t -> cell -> t
(** [with_cancel d cell] expires when [d] does {e or} when [cell] has
    been cancelled, whichever is first. *)

val cancel : cell -> unit
(** Raise the flag: every deadline carrying [cell] is expired from now
    on (until {!clear_cell}). Safe from any domain. *)

val clear_cell : cell -> unit
(** Lower the flag — used when re-arming a worker's cell after its
    cancelled node has been requeued. *)

val cancelled : t -> bool
(** Whether [t] carries a cell that has been cancelled. Distinguishes a
    watchdog cancel from ordinary time expiry: [expired t && not
    (cancelled t)] is a genuine budget/deadline hit. *)

val remaining : t -> float
(** Seconds until time expiry; [infinity] for {!none}, negative once
    expired. Ignores the cancel cell. *)

val expired : t -> bool
(** [cancelled t || remaining t <= 0.]. *)

val is_none : t -> bool
(** No expiry instant {e and} no cancel cell. *)

val split : t -> (string * float) list -> (string * t) list
(** [split d weights] schedules the named phases sequentially inside [d]:
    phase [i] receives a deadline at the cumulative
    [sum w_0..w_i / sum w] fraction of the remaining time, never past
    [d]. Because checkpoints are cumulative, a phase finishing early
    donates its slack to every later phase. With [d = none] every phase
    gets {!none}. Non-positive weights are treated as [0.]. *)
