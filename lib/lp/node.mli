(** Branch-and-bound nodes and the work one node costs a worker: bound
    chains, pseudocost branching, and {!process}.

    A node's bounds are the root box plus a chain of single-entry
    tightenings, one per branch. {b Chain invariant}: every entry is
    allocated once at branch time, while the parent's bounds are the
    materialized ones, so its [prev] is exactly the parent's value, and
    it is never mutated; the root box is only rewritten before the first
    branch ({!fix}). Chains are immutable and hold bounds relative to the
    post-fixing root box, which every worker copies, so a subtree can be
    shipped to any worker and {!Checkpoint} can store it as the chain's
    edits. *)

type chain =
  | Root
  | Tighten of {
      j : int;
      side : Cert.side;
      v : float;  (** bound value at and below this node *)
      prev : float;  (** the parent's value, for undo *)
      depth : int;
      parent : chain;
    }

val depth : chain -> int

type t = {
  nid : int;
      (** certificate id, allocated when the node is created (0 at the
          root), so tree links survive work stealing and resume *)
  parent : int;  (** parent's [nid]; -1 at the root *)
  bounds : chain;
  bound : float;  (** parent LP objective: the node's dual bound *)
  bvar : int;  (** variable branched to create this node; -1 at root *)
  bfrac : float;  (** fractional part of [bvar] in the parent LP *)
  dir_up : bool;  (** up child ([lb := ceil]) or down child ([ub := floor]) *)
}

val root : t
(** The unprocessed root: id 0, unbounded below. *)

(** Per-variable pseudocosts: observed objective degradation per unit of
    fractional distance, down and up. One table per worker slot. *)
type pc = {
  dn_sum : float array;
  dn_n : int array;
  up_sum : float array;
  up_n : int array;
}

val pc_copy : pc -> pc

val snap : Model.raw -> int_tol:float -> float array -> float array
(** Round near-integral integer entries to exact integers. *)

val objective : Model.raw -> float array -> float
(** Objective without the model constant. *)

(** {2 Workers} *)

type control
(** A worker's cancel cell, the deadline carrying it, and its nudge
    flag; written only through the functions below. *)

(** One exploring domain's private solver context. *)
type worker = private {
  wid : int;  (** worker slot; 0 takes the root *)
  lb : float array;
  ub : float array;
  mutable cur : chain;  (** the chain [lb]/[ub] hold *)
  mutable lp : Simplex.state option;  (** warm-start state *)
  mutable pc : pc;
  mutable pivots : int;
  mutable warm : int;  (** node LPs answered by the warm path *)
  ctl : control;
  cnode : Obs.Counter.t;  (** [milp.nodes.d<wid>], for the probe *)
}

val worker :
  wid:int -> lb:float array -> ub:float array -> pcs:pc array ->
  deadline:Resilience.Deadline.t -> worker
(** A worker at the root of the box [lb]/[ub], which it owns. It starts
    from [pcs.(wid)] when that table fits the model. *)

val lp : worker -> max_iters:int -> Model.raw -> Simplex.result
(** The LP over the worker's box: a warm {!Simplex.resolve} when it holds
    a state, else a cold build over the given rows. The one place pivots
    are counted. *)

val fix : worker -> int -> Cert.side -> unit
(** Fix an integer column at its [Lower] (or [Upper]) bound. Only at
    [Root], before the first branch. *)

val nudge : worker -> unit
(** Watchdog rung 1: the next node LP refactorizes cold. *)

val cancel : worker -> unit
(** Watchdog rung 2: expire the worker's deadline mid-LP. {!process}
    re-arms it as it returns [Cancelled]. *)

val reset : worker -> unit
(** No warm state, fresh pseudocosts, no cancel or nudge: after a death,
    or to drop a discarded cut pass. *)

(** {2 Processing} *)

(** What processing one node asks of the pool. [Children (near, far)]:
    [near] (round-to-nearest) is explored next, [far] is the publishable
    sibling. [Limited] is a leaf pruned at its LP iteration cap.
    [Cancelled] and [Stop_budget] leave the node open. *)
type outcome =
  | Leaf
  | Limited
  | Children of t * t
  | Cancelled
  | Stop_budget
  | Stop_unbounded

exception Worker_killed

(** What node processing reads from the other layers. *)
type env = {
  raw : Model.raw;  (** the caller's model *)
  system : unit -> Model.raw;  (** the rows node LPs solve (with cuts) *)
  max_lp_iters : int;
  int_tol : float;
  priority : int array option;
  certs_on : bool;
  nodes : int Atomic.t;  (** processed nodes; written only here *)
  next_nid : int Atomic.t;  (** id allocator; written only here *)
  incumbent : unit -> float;  (** the pruning bound *)
  improve :
    wid:int -> node_id:int -> nid:int -> depth:int -> float array -> float ->
    bool;  (** offer an integral point; whether it was accepted *)
  at_root : worker -> Simplex.result -> unit;  (** after the root LP *)
}

val process : env -> worker -> t -> outcome * Cert.node option
(** Decide one node: prune it on its parent bound without an LP
    ([F_dominated]), or solve its LP and fathom it, accept an integral
    point, or branch by pseudocosts within the highest [priority] class.
    Returns its certificate entry for when it is retired ([None] while
    it stays open or without certificates). Fault sites, after the
    dominance check: [milp.worker_kill] raises {!Worker_killed} before
    the node is counted; [milp.stall] sleeps until the worker's deadline
    expires or is cancelled. *)
