(** The work-stealing node pool and the shared incumbent (DESIGN.md §3g).

    Each worker dives depth-first on a private stack and publishes the
    far child of every branch to a bounded shared deque (capacity
    [max 64 (8 · domains)]) while there is room and another worker to
    steal it; idle workers steal the oldest, shallowest entry. A
    one-worker pool publishes nothing, so it explores in a fixed order.

    {b Lease invariant.} Every node a worker takes is leased to it until
    {!complete} retires or republishes it in one critical section, so at
    any instant each open node is in exactly one of the deque, a private
    stack, or a lease. Snapshots ({!view}) are therefore complete, and a
    dead worker's subtree can be replayed from its lease and stack.

    {b Incumbent.} The pruning bound is read lock-free (at worst one
    improvement stale, so only ever too weak). Acceptance is serialized:
    a strictly better objective replaces, and a tie within 1e-9 goes to
    the lexicographically smaller vector, so the final incumbent does
    not depend on which worker found it first.

    {b Lock order.} The pool lock comes before the incumbent lock:
    workers take the incumbent lock only while not holding the pool's. *)

type t

val create :
  domains:int -> certs_on:bool -> elapsed:(unit -> float) -> Checkpoint.t -> t
(** A pool holding the start state's frontier (on worker 0's stack; with
    thieves only its first node stays there). The start state's closed
    prefix (pruned-unsolved count, certificate log) is counted in every
    {!view}. *)

val join : t -> Node.worker -> unit
(** Register the worker of its slot. *)

val seed : t -> float array * float -> unit
(** Install a seeded incumbent before any worker runs (certificate id
    -1). *)

val incumbent : t -> float
(** The pruning bound; [infinity] without an incumbent. *)

val improve :
  t -> wid:int -> node_id:int -> nid:int -> depth:int -> float array -> float ->
  bool
(** Offer an integral point found at node [nid]; whether it became the
    incumbent. Emits ["milp.incumbent"] with the gap to {!open_bound}. *)

val open_bound : ?except:int -> t -> float -> float
(** The least of the given value and every open node's dual bound,
    leaving out worker [except]'s lease. *)

val root_open : t -> bool
(** Whether the root node is still open. *)

val take : t -> Node.worker -> budget:(unit -> bool) -> (Node.t * bool) option
(** The worker's next node, leased to it: its own stack first, else a
    steal ([true] when taken from another worker). [None] when the pool
    is stopped or exhausted, or when [budget ()] holds once a node is in
    hand; that node then stays open on the worker's stack and the pool
    stops. Blocks while others still hold work. *)

val complete :
  t -> Node.worker -> Node.t -> Node.outcome -> Cert.node option -> unit
(** Retire the worker's lease with the node's outcome, log its
    certificate entry and count a [Limited] leaf, in one critical
    section, so a {!view} never counts a node that is still open.
    [Children] are pushed; [Cancelled] requeues the node at the steal
    end; [Stop_budget] is the budget stop of {!take}; [Stop_unbounded]
    stops the pool. *)

val evict : ?failed:exn -> t -> Node.worker -> unit
(** After a worker death: requeue its lease, then its stack top-down, at
    the steal end, so the dead node replays first and the dive resumes
    in order. With [failed], the worker is not recovered: the pool stops with
    that exception. *)

val stopped : t -> [ `Budget | `Unbounded | `Exn of exn ] option

val leases : t -> (Node.worker * (Node.t * float) option) list
(** Each registered worker with its lease and the wall instant of its
    last take or completion. *)

(** A consistent picture of the pool: the one fold of per-worker state
    that snapshots, statistics and the certificate all read. Counters
    and the certificate log include the start state's closed prefix. *)
type view = {
  frontier : Node.t list;  (** leases, then stacks, then the deque *)
  incumbent : (float array * float) option;
  incumbents : (int * float) list;  (** accepted (node id, objective), oldest first *)
  first_incumbent_s : float;
  pivots : int;  (** this run's pivots *)
  limited : int;
  warm : int;
  certs : Cert.node list;
  pcs : Node.pc array;  (** per registered slot *)
}

val view : t -> view
