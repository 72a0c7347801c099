type severity = Error | Warning | Info

type location =
  | Node of int
  | Edge of int * int
  | Row of int
  | Column of int
  | Wire of string
  | Global

type t = {
  severity : severity;
  code : string;
  pass : string;
  loc : location;
  message : string;
  witness : string list;
}

let make ?(witness = []) severity ~code ~pass ~loc message =
  { severity; code; pass; loc; message; witness }

let errorf ?witness ~code ~pass ~loc fmt =
  Fmt.kstr (make ?witness Error ~code ~pass ~loc) fmt

let warnf ?witness ~code ~pass ~loc fmt =
  Fmt.kstr (make ?witness Warning ~code ~pass ~loc) fmt

let infof ?witness ~code ~pass ~loc fmt =
  Fmt.kstr (make ?witness Info ~code ~pass ~loc) fmt

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let loc_to_string = function
  | Node v -> Printf.sprintf "node:%d" v
  | Edge (u, v) -> Printf.sprintf "edge:%d->%d" u v
  | Row i -> Printf.sprintf "row:%d" i
  | Column i -> Printf.sprintf "col:%d" i
  | Wire w -> Printf.sprintf "wire:%s" w
  | Global -> "global"

let loc_rank = function
  | Node _ -> 0
  | Edge _ -> 1
  | Row _ -> 2
  | Column _ -> 3
  | Wire _ -> 4
  | Global -> 5

(* Structural, not stringly: [Node 2] sorts before [Node 10]. *)
let compare_loc a b =
  match (a, b) with
  | Node x, Node y | Row x, Row y | Column x, Column y -> Int.compare x y
  | Edge (a1, a2), Edge (b1, b2) ->
      let c = Int.compare a1 b1 in
      if c <> 0 then c else Int.compare a2 b2
  | Wire x, Wire y -> String.compare x y
  | _ -> Int.compare (loc_rank a) (loc_rank b)

(* A total order — message and witness break remaining ties — so any
   sorted report is deterministic however the producing pass ordered its
   findings. *)
let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = compare_loc a.loc b.loc in
      if c <> 0 then c
      else
        let c = String.compare a.message b.message in
        if c <> 0 then c
        else Stdlib.compare a.witness b.witness

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let summary ds =
  if ds = [] then "clean"
  else
    let count sev = List.length (List.filter (fun d -> d.severity = sev) ds) in
    let plural n what =
      if n = 0 then None
      else Some (Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s"))
    in
    List.filter_map Fun.id
      [
        plural (count Error) "error";
        plural (count Warning) "warning";
        plural (count Info) "info";
      ]
    |> String.concat ", "

let to_json d =
  Obs.Json.Obj
    [
      ("severity", Obs.Json.String (severity_name d.severity));
      ("code", Obs.Json.String d.code);
      ("pass", Obs.Json.String d.pass);
      ("loc", Obs.Json.String (loc_to_string d.loc));
      ("message", Obs.Json.String d.message);
      ("witness", Obs.Json.List (List.map (fun w -> Obs.Json.String w) d.witness));
    ]

let pp ppf d =
  Fmt.pf ppf "%-7s %s %s: %s"
    (severity_name d.severity) d.code (loc_to_string d.loc) d.message;
  match d.witness with
  | [] -> ()
  | ws -> Fmt.pf ppf "  [%s]" (String.concat " -> " ws)

let pp_report ppf ds =
  let ds = List.sort compare ds in
  List.iter (fun d -> Fmt.pf ppf "%a@." pp d) ds;
  Fmt.pf ppf "%s" (summary ds)
