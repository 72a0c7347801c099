(** Versioned on-disk snapshots of a live branch-and-bound solve
    (DESIGN.md §3i).

    A checkpoint captures everything {!Milp.solve} needs to continue a
    solve as if it had never stopped: the open-node frontier (each
    node's bound-edit list from the root, so chains rebuild exactly),
    the shared incumbent, the per-worker pseudocost tables, the
    certificate log prefix of already-closed nodes, and the root-fixing
    evidence the audit re-checks. Floats are serialized as hex-float
    strings ([%h]), which round-trip bit-for-bit — the checkpoint
    round-trip property test checks [read ∘ write] is the identity.

    The format is self-describing (schema tag
    ["pipesyn-checkpoint-v1"]), fingerprinted against the exact model it
    was taken from, and checksummed: writes go through a temp file plus
    atomic rename, and {!read} rejects torn or corrupted files (the
    [milp.checkpoint_torn] fault injects exactly that). *)

val schema : string
(** ["pipesyn-checkpoint-v1"]. *)

type t = {
  fingerprint : string;  (** {!fingerprint} of the model solved *)
  domains : int;  (** worker-domain count of the checkpointed solve *)
  next_nid : int;  (** next certificate node id to allocate *)
  nodes_done : int;  (** nodes processed before the snapshot *)
  pivots_done : int;
      (** simplex pivots before the snapshot, earlier legs included;
          read as 0 from a file written without it *)
  lp_limited : int;
      (** unsolved-pruned node count so far — carried so a resumed solve
          cannot claim Optimal past nodes the original run gave up on *)
  fixed_vars : int;
  root_bound : float;  (** root LP objective (no model constant) *)
  root_lb : float array;  (** post-fixing root box the chains hang off *)
  root_ub : float array;
  incumbent : (float array * float) option;  (** best (x, objective) *)
  first_incumbent_s : float;
  elapsed_s : float;  (** solve seconds consumed before the snapshot *)
  frontier : Node.t list;
  pc : Node.pc array;  (** per worker slot, index = slot id *)
  certs_on : bool;  (** whether the solve was emitting certificates *)
  cert_nodes : Cert.node list;  (** closed nodes' certificate entries *)
  fixes : (int * Cert.side) list;
  root_duals : float array option;
  presolve : Cert.tighten list;
      (** root bound-tightening events, application order; replayed into
          the resumed certificate *)
  cuts : Cert.cut list;
      (** applied cut rows, derivation order — a resume re-extends the
          model with exactly these rows (never re-separates), so node
          duals in [cert_nodes] keep matching the extended row system *)
  meta : Obs.Json.t;
      (** opaque driver payload (benchmark, method, CLI settings) the
          solver stores and returns verbatim — [pipesyn resume] rebuilds
          its setup from it *)
}

val fingerprint : Model.raw -> string
(** Digest of every array the solver consumes. {!Milp.solve} refuses to
    resume a checkpoint whose fingerprint does not match the model it
    was handed. *)

val to_json : t -> Obs.Json.t
(** The full file document: [{"schema": …, "checksum": …,
    "payload": …}]. *)

val of_json : Obs.Json.t -> (t, string) result
(** Validates schema and checksum, then decodes. [Error] on schema
    mismatch, checksum mismatch (torn/corrupted) or malformed payload. *)

val write : path:string -> t -> unit
(** Serialize to [path] via temp file + atomic rename, so the file under
    [path] is always either the previous snapshot or a complete new one.
    When the [milp.checkpoint_torn] fault fires, a truncated file is
    written in place instead (to test {!read}'s rejection). *)

val read : path:string -> (t, string) result
(** Parse and validate a checkpoint file. *)
