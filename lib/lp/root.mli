(** The root of a branch-and-bound solve: presolve, the cut-extended row
    system, root cutting planes, and reduced-cost fixing.

    {b Presolve.} Before the root LP, certified bound tightening
    ({!Presolve.tighten}) shrinks the variable box: integrality rounding
    plus activity-based tightening, each event exact-verified at
    generation time and recorded in the certificate for the audit's
    CERT111 replay.

    {b Cutting planes.} Up to 8 rounds of Chvátal–Gomory cuts (from the
    warm tableau), each applying the 20 most violated of its own fresh
    candidates ({!Cutgen.select}), with warm resolves in between.
    Separation stops when a round moves the bound by less than a
    relative 1e-9; a pass that did not lift it is discarded. Each cut's
    derivation is in the certificate and re-verified exactly by the
    audit (CERT109). Cuts exclude no integer point, so they do not
    change status, objective or incumbent of exhaustively solved models
    ([test/test_fuzz.ml]).

    A resumed solve takes the presolve events and cut rows from its
    checkpoint and never re-derives them, so node duals keep matching
    the rows the closed nodes were solved over.

    {b Reduced-cost fixing.} Once an incumbent exists, the root node's LP
    fixes every integer variable whose reduced cost exceeds the
    incumbent gap. It runs before the first branch and before helper
    workers copy the root box (the chain invariant of {!Node}).

    Everything here is written by worker 0 alone, before any other
    worker starts. *)

type t = private {
  raw : Model.raw;  (** the caller's model *)
  certs_on : bool;
  presolve : Cert.tighten list;  (** application order *)
  mutable system : Model.raw;
      (** model rows plus every applied cut, bounded by the start box
          (the presolved one on a fresh solve) *)
  mutable cuts : Cert.cut list;  (** derivation order *)
  mutable rounds : int;  (** separation rounds run this solve *)
  mutable bound_pre_cuts : float;  (** [nan] without a cut pass *)
  mutable bound_post_cuts : float;
  mutable bound : float;
      (** objective of the last root LP solved to optimality (the root
          node's own, else the cut loop's last), no model constant;
          [neg_infinity] until one is *)
  mutable infeasible : bool;  (** the root LP was infeasible *)
  mutable unbounded : bool;  (** the root LP was unbounded *)
  mutable duals : float array option;  (** pre-fixing root duals *)
  mutable fixes : (int * Cert.side) list;  (** newest first *)
  mutable fixed : int;
  mutable lb : float array;  (** the root box every subtree inherits *)
  mutable ub : float array;
}

val presolve : Model.raw -> Cert.tighten list * float array * float array
(** Certified bound tightening: the events and the tightened box. *)

val create : Model.raw -> certs_on:bool -> Checkpoint.t -> t
(** The root as the start state left it: its presolve events, cut rows,
    fixings, duals, bound and box. *)

val separate : t -> Node.worker -> budget:(unit -> bool) -> unit
(** Solve the root LP on the worker and run the cut rounds, leaving the
    worker's warm state over the extended rows. Each optimal LP sets
    [bound]. *)

val at_root : t -> incumbent:(unit -> float) -> Node.worker -> Simplex.result -> unit
(** Record the root LP's bound (only when it is optimal), verdict and
    duals, fix by reduced cost when an incumbent exists, and take the
    post-fixing box. *)

val gap_closed : t -> incumbent:float -> float
(** Fraction of the root gap the cut rounds closed,
    [(post - pre) / (incumbent - pre)] clamped to \[0, 1\]; [nan] without
    a cut pass, an incumbent, or a root gap. *)
