(** Resource classes and availability for black-box operations (Eq. 14).

    Only black-box operations are resource-constrained in the paper's
    formulation; LUT fabric is modelled through the objective instead. *)

type budget
(** Available units per resource class. *)

val unlimited : budget
val of_list : (string * int) list -> budget
(** @raise Invalid_argument on negative counts or duplicate classes. *)

val limit : budget -> string -> int option
(** [None] when the class is unconstrained. *)

val classes : budget -> string list
(** Classes with an explicit (finite) limit, sorted. *)

