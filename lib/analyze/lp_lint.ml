let pass_name = "lp-lint"
let max_reports = 25
let eps = 1e-9

let sense_str = function Lp.Model.Le -> "<=" | Lp.Model.Ge -> ">=" | Lp.Model.Eq -> "="

(* Per-code capping: keep the first [max_reports], replace the tail by one
   summarizing diagnostic so a pathological model cannot flood the report. *)
let cap code diags =
  let n = List.length diags in
  if n <= max_reports then diags
  else
    match List.filteri (fun i _ -> i < max_reports) diags with
    | [] -> []
    | d :: _ as kept ->
        kept
        @ [
            Diag.make (d : Diag.t).Diag.severity ~code ~pass:pass_name
              ~loc:Diag.Global
              (Printf.sprintf "...and %d more %s findings (capped at %d)"
                 (n - max_reports) code max_reports);
          ]

let row_label name i =
  match name with Some s -> s | None -> Printf.sprintf "row%d" i

let check m =
  let rows = Lp.Model.rows m in
  let empty_inf = ref [] and empty_vac = ref [] and dups = ref [] in
  (* rows keyed by the exact bits of sense, rhs and every coefficient *)
  let seen : (Lp.Model.sense * int64 * (int * int64) list, int) Hashtbl.t =
    Hashtbl.create 256
  in
  Array.iteri
    (fun i (name, terms, sense, rhs) ->
      (match terms with
      | [] ->
          let holds =
            match sense with
            | Lp.Model.Le -> 0.0 <= rhs +. eps
            | Lp.Model.Ge -> 0.0 >= rhs -. eps
            | Lp.Model.Eq -> Float.abs rhs <= eps
          in
          if holds then
            empty_vac :=
              Diag.warnf ~code:"LP002" ~pass:pass_name ~loc:(Diag.Row i)
                "%s: empty row (0 %s %g) constrains nothing" (row_label name i)
                (sense_str sense) rhs
              :: !empty_vac
          else
            empty_inf :=
              Diag.errorf ~code:"LP001" ~pass:pass_name ~loc:(Diag.Row i)
                "%s: trivially infeasible empty row (0 %s %g is false)"
                (row_label name i) (sense_str sense) rhs
              :: !empty_inf
      | _ :: _ ->
          let key =
            ( sense,
              Int64.bits_of_float rhs,
              List.map
                (fun (c, v) -> (Lp.Model.var_index v, Int64.bits_of_float c))
                terms )
          in
          (match Hashtbl.find_opt seen key with
          | Some j ->
              dups :=
                Diag.warnf ~code:"LP003" ~pass:pass_name ~loc:(Diag.Row i)
                  ~witness:
                    [ row_label (let n, _, _, _ = rows.(j) in n) j;
                      row_label name i ]
                  "%s duplicates %s (same terms, sense and rhs)"
                  (row_label name i)
                  (row_label (let n, _, _, _ = rows.(j) in n) j)
                :: !dups
          | None -> Hashtbl.add seen key i)))
    rows;
  (* Column checks: free columns and integer-infeasible bounds. *)
  let nvars = Lp.Model.num_vars m in
  let referenced = Array.make nvars false in
  Array.iter
    (fun (_, terms, _, _) ->
      List.iter (fun (_, v) -> referenced.(Lp.Model.var_index v) <- true) terms)
    rows;
  List.iter
    (fun (_, v) -> referenced.(Lp.Model.var_index v) <- true)
    (Lp.Model.objective_terms m);
  let free = ref [] and badint = ref [] in
  for i = 0 to nvars - 1 do
    let v = Lp.Model.var_of_index m i in
    let lb, ub = Lp.Model.bounds m v in
    if Lp.Model.is_integer m v && Float.ceil (lb -. eps) > Float.floor (ub +. eps)
    then
      badint :=
        Diag.errorf ~code:"LP005" ~pass:pass_name ~loc:(Diag.Column i)
          "integer variable %s has no integer in [%g, %g]"
          (Lp.Model.var_name m v) lb ub
        :: !badint;
    if (not referenced.(i)) && lb <> ub then
      free :=
        Diag.warnf ~code:"LP004" ~pass:pass_name ~loc:(Diag.Column i)
          "variable %s appears in no constraint or objective"
          (Lp.Model.var_name m v)
        :: !free
  done;
  cap "LP001" (List.rev !empty_inf)
  @ cap "LP002" (List.rev !empty_vac)
  @ cap "LP003" (List.rev !dups)
  @ cap "LP004" (List.rev !free)
  @ cap "LP005" (List.rev !badint)

(* Structural lint over a certificate's applied cut rows (LP006): the
   audit proves each cut's *derivation*; this pass rejects rows that are
   not even well-formed sparse rows — empty, non-finite, out-of-range or
   duplicated columns — before the audit's arithmetic touches them. *)
let check_cuts ~n cuts =
  let bad = ref [] in
  List.iteri
    (fun k (c : Lp.Cert.cut) ->
      let reportf fmt =
        Printf.ksprintf
          (fun s ->
            bad :=
              Diag.errorf ~code:"LP006" ~pass:pass_name ~loc:(Diag.Row k)
                "cut %d: %s" k s
              :: !bad)
          fmt
      in
      if Array.length c.Lp.Cert.cut_terms = 0 then reportf "empty term list";
      if not (Float.is_finite c.Lp.Cert.cut_rhs) then
        reportf "non-finite right-hand side";
      let seen = Hashtbl.create 16 in
      Array.iter
        (fun (j, cf) ->
          if j < 0 || j >= n then reportf "column %d out of range" j
          else if Hashtbl.mem seen j then reportf "duplicate column %d" j
          else Hashtbl.replace seen j ();
          if not (Float.is_finite cf) then
            reportf "non-finite coefficient on column %d" j;
          if cf = 0.0 then reportf "zero coefficient on column %d" j)
        c.Lp.Cert.cut_terms)
    cuts;
  cap "LP006" (List.rev !bad)
