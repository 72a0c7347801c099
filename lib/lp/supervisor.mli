(** Supervised exploration (DESIGN.md §3i): runs the worker domains over
    a {!Pool}, snapshots the solve, recovers dead workers and unwedges
    stalled ones. Each rests on the pool's lease invariant and only
    permutes exploration order, so none changes the status, objective
    or incumbent of an exhaustively solved model.

    {b Checkpoints.} With a {!sink}, the solve is snapshotted
    ({!Checkpoint}) after a node is retired once [ck_every_s] wall
    seconds have passed or [ck_every_nodes] more nodes were processed,
    and always once when the pool stops, so an interrupted solve leaves
    a fresh, resumable file. Every snapshot reads the pool's one
    {!Pool.view}. Resume is {!Milp.solve}'s [resume] argument.

    {b Crash recovery.} A worker whose node processing raises (fault
    injection, numeric blowup — anything except [Out_of_memory] and
    [Stack_overflow]) is recovered in place: its lease and private stack
    are requeued ({!Pool.evict}), its solver state and pseudocosts reset,
    and it keeps taking work. Each slot survives at most 3 deaths; past
    that, or for resource exhaustion, the pool stops and the exception
    propagates. Recoveries are traced as ["milp.recovery"].

    {b Stall watchdog.} With a stall window, a watchdog domain checks
    each leased worker's last take or completion. A worker stuck for a
    full window is nudged (its next LP refactorizes cold); if the same
    lease is still stuck a tick later, it is cancelled through its
    deadline cell (noticed within one 64-pivot poll) and the node is
    requeued. A node is never cancelled twice, so a slow LP replays to
    completion; the window must exceed any honest node LP. Escalations
    are traced as ["milp.stall"] (["level"] ["nudge"] or ["cancel"]). *)

(** Where and how often to snapshot; re-exported as
    {!Milp.checkpoint_sink}. *)
type sink = {
  ck_path : string;  (** written atomically (temp file + rename) *)
  ck_every_s : float;  (** wall-clock cadence between snapshots *)
  ck_every_nodes : int option;
      (** additionally snapshot every [n] processed nodes — the
          deterministic trigger tests use; [None] = cadence only *)
  ck_meta : Obs.Json.t;
      (** opaque driver payload stored verbatim in every snapshot
          ([pipesyn resume] rebuilds its setup from it) *)
}

type report = {
  checkpoints : int;  (** snapshots written *)
  recoveries : int;  (** worker deaths replayed plus cancelled nodes requeued *)
  stalls : int;  (** watchdog nudges plus cancels *)
}

val run :
  pool:Pool.t ->
  env:Node.env ->
  root:Root.t ->
  sink:sink option ->
  fingerprint:string Lazy.t ->
  domains:int ->
  elapsed:(unit -> float) ->
  budget:(unit -> bool) ->
  stall_window:float option ->
  w0:Node.worker ->
  helper:(int -> Node.worker) ->
  report
(** Explore until the pool is exhausted or stopped. Worker 0 runs alone
    until the root is retired; then [helper i] builds worker [i] (from
    worker 0's post-fixing box) for the other [domains - 1] domains.
    [budget] is checked before every node. A worker's unrecoverable
    exception is re-raised here after every domain has joined. *)
