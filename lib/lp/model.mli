(** Mixed-integer linear program builder.

    A thin, allocation-friendly layer over the raw arrays consumed by
    {!Simplex} and {!Milp}. Variables have finite lower bounds (possibly
    infinite upper bounds); constraints are linear with [<=], [>=] or [=]
    sense; the objective is minimized (negate coefficients to maximize).

    Names are [string Lazy.t]: a builder passes
    [lazy (Printf.sprintf ...)] and the text is formatted only when a
    diagnostic reads it. {!var_name} and {!check}'s failure message force
    names; building, {!rows}, {!to_raw} and every solver path never do,
    so a name's thunk runs only for a model someone inspects. *)

type t
type var

type sense = Le | Ge | Eq

val create : ?name:string -> unit -> t

val add_var :
  t -> ?integer:bool -> ?lb:float -> ?ub:float -> string Lazy.t -> var
(** Defaults: [integer = false], [lb = 0.], [ub = infinity].
    @raise Invalid_argument if [lb] is infinite, [ub < lb], or NaN. *)

val bool_var : t -> string Lazy.t -> var
(** Integer variable in [0, 1]. *)

val add_le : t -> ?name:string Lazy.t -> (float * var) list -> float -> unit
val add_ge : t -> ?name:string Lazy.t -> (float * var) list -> float -> unit
val add_eq : t -> ?name:string Lazy.t -> (float * var) list -> float -> unit
(** [add_le m terms rhs] adds [Σ coef·x <= rhs]; [add_ge] and [add_eq]
    likewise. The row stores [terms] sorted by variable, each variable's
    coefficients summed from [0.0] in list order, exact zeros dropped; a
    list already strictly increasing by variable is stored without a
    sort. *)

val set_objective : t -> ?constant:float -> (float * var) list -> unit
(** Minimization objective; replaces any previous objective. *)

val fix : t -> var -> float -> unit
(** Narrow a variable's bounds to a single value. *)

val num_vars : t -> int
val num_constraints : t -> int
val var_index : var -> int
val var_of_index : t -> int -> var
val var_name : t -> var -> string
(** Forces the variable's name. *)

val is_integer : t -> var -> bool
val bounds : t -> var -> float * float
val objective_constant : t -> float

val objective_terms : t -> (float * var) list
(** The current minimization objective as [(coefficient, variable)] pairs;
    duplicates summed, zero coefficients dropped. *)

val rows :
  t -> (string Lazy.t option * (float * var) list * sense * float) array
(** All constraints in insertion order as
    [(name, terms, sense, rhs)] — the introspection surface used by the
    static model lints ({!Analyze.Lp_lint}). Names stay unforced: a
    reader forces the ones it prints. Terms are normalized (sorted by
    column, duplicates summed, zeros dropped). *)

type raw = {
  n : int;  (** variable count *)
  lb : float array;
  ub : float array;
  integer : bool array;
  obj : float array;
  rows : (int * float) array array;  (** sparse rows, sorted by column *)
  senses : sense array;
  rhs : float array;
}

val to_raw : t -> raw
(** Freeze into the solver's input form. [rows] shares each row's term
    array with the model: rows never change once added, and no reader
    writes them. *)

val with_le_rows : raw -> ((int * float) array * float) array -> raw
(** [raw] with [(terms, rhs)] rows (cutting planes) appended as [<=]
    rows; [raw] itself when there are none. *)

val check : t -> values:(var -> float) -> ?eps:float -> unit -> (unit, string) result
(** Verify an assignment against bounds, integrality and all constraints —
    used to validate incumbents and solver output in tests. Forces only
    the name of the first violated variable or row, for the message. *)

val pp_stats : t Fmt.t
