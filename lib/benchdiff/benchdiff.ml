(* Noise-aware comparison of two metrics files (see the .mli for the
   comparison policy). The design constraint is asymmetric risk: a
   false red blocks an unrelated PR, a false green only delays a real
   finding to the next baseline refresh — so every comparison that
   depends on wall-clock noise (budget-hit node counts, sub-floor
   times) is skipped rather than thresholded tighter. *)

type thresholds = {
  time_rel : float;
  time_floor_s : float;
  count_rel : float;
  gap_abs : float;
}

let default_thresholds =
  { time_rel = 0.5; time_floor_s = 0.25; count_rel = 0.10; gap_abs = 0.10 }

type verdict = Regression | Improvement | Unchanged

type delta = {
  d_bench : string;
  d_method : string;
  d_metric : string;
  d_old : float;
  d_new : float;
  d_rel : float;
  d_verdict : verdict;
  d_note : string;
}

type report = {
  r_schema : int;
  r_rows : int;
  r_deltas : delta list;
  r_missing : (string * string) list;
  r_added : (string * string) list;
  r_regressions : int;
  r_improvements : int;
}

(* Lower rank is better. Unknown strings rank alongside "error": a
   status this tool has never heard of is not evidence of health. *)
let status_rank = function
  | "optimal" -> 0
  | "feasible" -> 1
  | "heuristic" -> 2
  | "infeasible" | "unbounded" | "unknown" -> 3
  | _ -> 4

(* A result row as read from a metrics file: the three strings every row
   must carry, and the row itself for the numbers compared. *)
type row = { name : string; method_ : string; status : string; j : Obs.Json.t }

let str k j =
  match Obs.Json.member k j with
  | Some (Obs.Json.String s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" k)

let row_of_json j =
  let ( let* ) = Result.bind in
  let* name = str "name" j in
  let* method_ = str "method" j in
  let* status = str "status" j in
  Ok { name; method_; status; j }

(* Nullable fields: JSON null (the method never entered the MILP) and
   an absent key both read as None. *)
let int_field k r =
  match Obs.Json.member k r.j with Some (Obs.Json.Int i) -> Some i | _ -> None

let num_field k r = Option.bind (Obs.Json.member k r.j) Obs.Json.number

let parse_file label j =
  match Obs.Json.member "schema_version" j with
  | Some (Obs.Json.Int v) when v <> Obs.Metrics.schema_version ->
      Error
        (Printf.sprintf
           "schema version mismatch: %s is v%d, this binary writes v%d — \
            regenerate the baseline with the current binary"
           label v Obs.Metrics.schema_version)
  | Some (Obs.Json.Int _) -> (
      match Obs.Json.member "results" j with
      | Some (Obs.Json.List rows) ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | r :: rest -> (
                match row_of_json r with
                | Ok m -> go (m :: acc) rest
                | Error e ->
                    Error (Printf.sprintf "%s: bad result row: %s" label e))
          in
          go [] rows
      | _ -> Error (label ^ ": missing \"results\" list"))
  | _ -> Error (label ^ ": missing \"schema_version\"")

let key r = (r.name, r.method_)

let rel_delta ~old_ ~new_ =
  (new_ -. old_) /. Float.max 1e-9 (Float.abs old_)

let diff ?(thresholds = default_thresholds) old_ new_ =
  let ( let* ) = Result.bind in
  let* rows_old = parse_file "OLD" old_ in
  let* rows_new = parse_file "NEW" new_ in
  let tbl = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace tbl (key m) m) rows_new;
  let deltas = ref [] in
  let missing = ref [] in
  let rows = ref 0 in
  let flag d = deltas := d :: !deltas in
  let compare_row o n =
    incr rows;
    let bench, meth = key o in
    let mk d_metric d_old d_new d_verdict d_note =
      {
        d_bench = bench;
        d_method = meth;
        d_metric;
        d_old;
        d_new;
        d_rel = rel_delta ~old_:d_old ~new_:d_new;
        d_verdict;
        d_note;
      }
    in
    (* Status rank: any worsening is a regression regardless of
       thresholds — "optimal -> feasible" is exactly the GFMUL
       history this tool exists to catch. *)
    let ro = status_rank o.status and rn = status_rank n.status in
    if rn > ro then
      flag
        (mk "status" (float_of_int ro) (float_of_int rn) Regression
           (Printf.sprintf "status worsened: %s -> %s" o.status n.status))
    else if rn < ro then
      flag
        (mk "status" (float_of_int ro) (float_of_int rn) Improvement
           (Printf.sprintf "status improved: %s -> %s" o.status n.status));
    (* Wall time: relative threshold plus an absolute floor so
       sub-floor solves (pure noise at CI machine granularity) never
       flag either way. *)
    (match (num_field "solve_s" o, num_field "solve_s" n) with
    | Some so, Some sn when Float.max so sn >= thresholds.time_floor_s ->
        let r = rel_delta ~old_:so ~new_:sn in
        if r > thresholds.time_rel then
          flag
            (mk "solve_s" so sn Regression
               (Printf.sprintf "solve time %+.0f%% (%.2fs -> %.2fs)"
                  (100.0 *. r) so sn))
        else if r < -.thresholds.time_rel then
          flag
            (mk "solve_s" so sn Improvement
               (Printf.sprintf "solve time %+.0f%% (%.2fs -> %.2fs)"
                  (100.0 *. r) so sn))
    | _ -> ());
    (* Deterministic counters, but only between two exhaustive
       (optimal) solves: a budget-hit run explores whatever fits in
       the wall budget, so its counts are machine speed, not the
       algorithm. *)
    let both_optimal = o.status = "optimal" && n.status = "optimal" in
    let count metric =
      match (int_field metric o, int_field metric n) with
      | Some co, Some cn when both_optimal && (co > 0 || cn > 0) ->
          let fo = float_of_int co and fn = float_of_int cn in
          let r = rel_delta ~old_:fo ~new_:fn in
          if r > thresholds.count_rel then
            flag
              (mk metric fo fn Regression
                 (Printf.sprintf "%s %+.1f%% (%d -> %d)" metric (100.0 *. r)
                    co cn))
          else if r < -.thresholds.count_rel then
            flag
              (mk metric fo fn Improvement
                 (Printf.sprintf "%s %+.1f%% (%d -> %d)" metric (100.0 *. r)
                    co cn))
      | _ -> ()
    in
    count "bnb_nodes";
    count "lp_pivots";
    (* Root-gap closure: absolute decrease beyond the threshold means
       the cut machinery got weaker. NaN (not applicable) on either
       side skips the comparison. *)
    let gap r =
      Option.value ~default:Float.nan (num_field "gap_closed_root" r)
    in
    let go = gap o and gn = gap n in
    if Float.is_finite go && Float.is_finite gn then
      if go -. gn > thresholds.gap_abs then
        flag
          (mk "gap_closed_root" go gn Regression
             (Printf.sprintf "root gap closure fell %.0f%% -> %.0f%%"
                (100.0 *. go) (100.0 *. gn)))
      else if gn -. go > thresholds.gap_abs then
        flag
          (mk "gap_closed_root" go gn Improvement
             (Printf.sprintf "root gap closure rose %.0f%% -> %.0f%%"
                (100.0 *. go) (100.0 *. gn)))
  in
  List.iter
    (fun o ->
      match Hashtbl.find_opt tbl (key o) with
      | Some n ->
          Hashtbl.remove tbl (key o);
          compare_row o n
      | None -> missing := key o :: !missing)
    rows_old;
  let added = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  let deltas = List.rev !deltas in
  let n_reg =
    List.length (List.filter (fun d -> d.d_verdict = Regression) deltas)
    + List.length !missing
  in
  let n_imp =
    List.length (List.filter (fun d -> d.d_verdict = Improvement) deltas)
  in
  Ok
    {
      r_schema = Obs.Metrics.schema_version;
      r_rows = !rows;
      r_deltas = deltas;
      r_missing = List.sort compare !missing;
      r_added = List.sort compare added;
      r_regressions = n_reg;
      r_improvements = n_imp;
    }

let regressed r = r.r_regressions > 0

let verdict_name = function
  | Regression -> "regression"
  | Improvement -> "improvement"
  | Unchanged -> "unchanged"

let delta_to_json d =
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String d.d_bench);
      ("method", Obs.Json.String d.d_method);
      ("metric", Obs.Json.String d.d_metric);
      ("old", Obs.Json.Float d.d_old);
      ("new", Obs.Json.Float d.d_new);
      ("rel", Obs.Json.Float d.d_rel);
      ("verdict", Obs.Json.String (verdict_name d.d_verdict));
      ("note", Obs.Json.String d.d_note);
    ]

let key_to_json (bench, meth) =
  Obs.Json.Obj
    [ ("bench", Obs.Json.String bench); ("method", Obs.Json.String meth) ]

let report_to_json r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "pipesyn-bench-diff-v1");
      ("metrics_schema", Obs.Json.Int r.r_schema);
      ("rows", Obs.Json.Int r.r_rows);
      ("regressions", Obs.Json.Int r.r_regressions);
      ("improvements", Obs.Json.Int r.r_improvements);
      ("missing", Obs.Json.List (List.map key_to_json r.r_missing));
      ("added", Obs.Json.List (List.map key_to_json r.r_added));
      ("deltas", Obs.Json.List (List.map delta_to_json r.r_deltas));
    ]

let pp_report ppf r =
  Format.fprintf ppf "bench-diff: %d row%s compared (metrics schema v%d)@."
    r.r_rows
    (if r.r_rows = 1 then "" else "s")
    r.r_schema;
  List.iter
    (fun (b, m) -> Format.fprintf ppf "  MISSING   %s / %s (row disappeared)@." b m)
    r.r_missing;
  List.iter
    (fun (b, m) -> Format.fprintf ppf "  new row   %s / %s@." b m)
    r.r_added;
  List.iter
    (fun d ->
      Format.fprintf ppf "  %s %s / %s: %s@."
        (match d.d_verdict with
        | Regression -> "REGRESSED "
        | Improvement -> "improved  "
        | Unchanged -> "unchanged ")
        d.d_bench d.d_method d.d_note)
    r.r_deltas;
  if r.r_regressions = 0 && r.r_deltas = [] && r.r_missing = [] then
    Format.fprintf ppf "  no significant deltas@.";
  Format.fprintf ppf "verdict: %d regression%s, %d improvement%s@."
    r.r_regressions
    (if r.r_regressions = 1 then "" else "s")
    r.r_improvements
    (if r.r_improvements = 1 then "" else "s")
