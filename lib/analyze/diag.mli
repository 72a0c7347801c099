(** The diagnostic currency of the static-analysis layer.

    Every lint and checker in {!module:Analyze} reports findings as values
    of {!t}: a severity, a stable machine-readable code, a location in the
    offending artifact, a human-readable message and a {e witness} — the
    concrete evidence (a cycle path, a duplicated row pair, an undriven
    wire) that lets a reader confirm the finding without re-running the
    pass. Codes are namespaced per artifact ([CDFGnnn], [PREnnn], [LPnnn],
    [NETnnn], [CERTnnn]) and documented in README.md ("Diagnostics"); they
    are stable across releases so downstream tooling can match on them. *)

type severity =
  | Error  (** the flow would fail or produce an illegal result *)
  | Warning  (** suspicious, very likely unintended *)
  | Info  (** an optimization opportunity; never gates *)

type location =
  | Node of int  (** CDFG node id *)
  | Edge of int * int  (** CDFG dependence [src -> dst] *)
  | Row of int  (** LP constraint index (insertion order) *)
  | Column of int  (** LP variable index *)
  | Wire of string  (** netlist signal name *)
  | Global  (** whole-artifact finding *)

type t = {
  severity : severity;
  code : string;  (** stable code, e.g. ["CDFG001"] *)
  pass : string;  (** registry name of the producing pass *)
  loc : location;
  message : string;
  witness : string list;
      (** evidence trail, outermost first (e.g. the nodes of a cycle) *)
}

val make :
  ?witness:string list -> severity -> code:string -> pass:string ->
  loc:location -> string -> t

val errorf :
  ?witness:string list -> code:string -> pass:string -> loc:location ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val warnf :
  ?witness:string list -> code:string -> pass:string -> loc:location ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val infof :
  ?witness:string list -> code:string -> pass:string -> loc:location ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"] — the strings used in JSON. *)

val compare : t -> t -> int
(** Severity first (errors before warnings before infos), then code, then
    location (structurally: [Node 2] before [Node 10]), then message and
    witness — a {e total} order, so every sorted report is byte-identical
    across runs regardless of pass-internal ordering. *)

val errors : t list -> t list
val warnings : t list -> t list
val has_errors : t list -> bool

val summary : t list -> string
(** One line, e.g. ["2 errors, 1 warning"]; ["clean"] when empty. *)

val loc_to_string : location -> string

val to_json : t -> Obs.Json.t
(** [{"severity": …, "code": …, "pass": …, "loc": …, "message": …,
    "witness": […]}]. *)

val pp : t Fmt.t
val pp_report : t list Fmt.t
(** Sorted by {!compare}, one diagnostic per line, summary last. *)
