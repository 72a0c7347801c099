(** Frontend optimization passes on the word-level CDFG — the stand-in for
    the "compilation and other optimizations" the paper's flow applies
    before scheduling (Sec. 4). All passes preserve the graph's
    input/output semantics (property-tested against the simulator) and the
    relative order of primary outputs.

    Passes:
    - {!dead_code}: drop nodes unreachable (backward, through loop-carried
      edges too) from any primary output;
    - {!fold_constants}: evaluate operations whose operands are all
      constants, and apply algebraic identities
      ([x^0], [x&0], [x&ones], [x|0], [x|ones], [x+0], [x-0],
      [mux(const, a, b)], [shl/shr by 0], self-xor, self-and/or);
    - {!cse}: merge structurally identical operations (same opcode, same
      operand edges including distances and reset values); inputs and
      black boxes are never merged;
    - {!simplify}: the three passes iterated to a fixed point. *)

type stats = { removed : int; folded : int; merged : int; rounds : int }

val dead_code : Ir.Cdfg.t -> Ir.Cdfg.t * int
(** Returns the pruned graph and the number of nodes removed. *)

val fold_constants : Ir.Cdfg.t -> Ir.Cdfg.t * int
(** Returns the rewritten graph and the number of nodes folded or
    bypassed. *)

val cse : Ir.Cdfg.t -> Ir.Cdfg.t * int
(** Returns the deduplicated graph and the number of nodes merged. *)

val simplify : Ir.Cdfg.t -> Ir.Cdfg.t * stats
(** Fixed-point pipeline (at most 8 rounds). *)

val pp_stats : stats Fmt.t
