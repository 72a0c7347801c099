(** Noise-aware regression comparison of two metrics files — the engine
    behind [pipesyn bench-diff OLD.json NEW.json] and the CI
    regression gate.

    Rows are keyed by (benchmark, method). Deterministic counters
    (B&B nodes, simplex pivots) are compared with a relative threshold,
    but only when {e both} rows solved to ["optimal"] — a budget-hit
    solve explores however many nodes fit in the wall budget, so its
    counters are machine-speed noise, not signal. Wall time is compared
    with a relative threshold plus an absolute floor (sub-floor solves
    never flag). A status that worsens in rank
    (optimal < feasible < heuristic-or-worse) and a row that disappears
    are always regressions; nullable fields ([None] = the method never
    entered the MILP) are skipped rather than compared against
    numbers. *)

type thresholds = {
  time_rel : float;
      (** relative wall-time increase that flags a regression
          (default 0.5 = +50%) *)
  time_floor_s : float;
      (** absolute seconds both below which time deltas are ignored
          (default 0.25) *)
  count_rel : float;
      (** relative node/pivot increase that flags a regression
          (default 0.10) *)
  gap_abs : float;
      (** absolute decrease of [gap_closed_root] that flags a
          regression (default 0.10) *)
}

val default_thresholds : thresholds

type verdict = Regression | Improvement | Unchanged

type delta = {
  d_bench : string;  (** benchmark name *)
  d_method : string;
  d_metric : string;  (** ["solve_s"], ["bnb_nodes"], ["lp_pivots"],
                          ["gap_closed_root"], ["status"] *)
  d_old : float;
  d_new : float;
  d_rel : float;  (** (new - old) / max(|old|, tiny); nan for status *)
  d_verdict : verdict;
  d_note : string;  (** human-readable one-liner *)
}

type report = {
  r_schema : int;  (** common schema version of the two files *)
  r_rows : int;  (** (benchmark, method) keys present in both files *)
  r_deltas : delta list;  (** flagged deltas only (no Unchanged spam) *)
  r_missing : (string * string) list;
      (** keys present in OLD but absent in NEW — regressions *)
  r_added : (string * string) list;
      (** keys only in NEW — informational *)
  r_regressions : int;
  r_improvements : int;
}

val diff :
  ?thresholds:thresholds -> Obs.Json.t -> Obs.Json.t -> (report, string) result
(** [diff old_ new_] compares two parsed metrics files. [Error] on a
    malformed file, a row without a string [name], [method] or
    [status], or a file whose schema version is not
    {!Obs.Metrics.schema_version} (regenerate the baseline rather than
    guessing at field semantics); per-row findings land in the
    report. *)

val regressed : report -> bool
(** Whether the report carries at least one regression (flagged delta
    or missing row) — the [exit 1] condition. *)

val report_to_json : report -> Obs.Json.t
(** Machine-readable report: [{"schema": "pipesyn-bench-diff-v1",
    "rows": …, "regressions": …, "improvements": …, "missing": […],
    "added": […], "deltas": […]}]. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable multi-line rendering. *)
