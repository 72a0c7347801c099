let pass_name = "audit"
let max_reports = 25

(* Contract tolerances (see DESIGN.md §3h). The arithmetic below is exact;
   what is checked is the solver's *published* accuracy contract, so every
   threshold is an explicit constant here rather than an epsilon hidden in
   a float comparison.
   - [feas_eps]: Model.check's default feasibility tolerance (1e-6).
   - [lp_rel]: Simplex.resolve's relative objective accuracy (1e-6).
   - [inc_slack]: Milp's incumbent acceptance slack (1e-9). *)
let feas_eps = 1e-6
let lp_rel = 1e-6
let inc_slack = 1e-9

type ctx = {
  mutable raw : Lp.Model.raw;
      (* verified cut rows are folded in progressively, so node duals and
         later cut derivations reference the same extended row system the
         solver actually used *)
  cert : Lp.Cert.t;
  mutable m : int;  (** row count, including folded-in cut rows *)
  qcache : (float, Lp.Qd.t) Hashtbl.t;
      (* model coefficients repeat massively (0, ±1, shared bounds); caching
         the float→Qd conversion keeps the audit linear in nnz, not in
         nnz × limb work *)
  by_id : (int, Lp.Cert.node) Hashtbl.t;
  node_bounds : (int, Lp.Qd.t option) Hashtbl.t;
      (* exact dual bound per Lp_optimal node, filled by the claim checks
         and reused by the pruning replay; [None] = -infinity *)
  mutable diags : Diag.t list;  (* newest first *)
  counts : (string, int) Hashtbl.t;
}

let report ctx sev ~code ~loc ?witness msg =
  let seen = Option.value ~default:0 (Hashtbl.find_opt ctx.counts code) in
  Hashtbl.replace ctx.counts code (seen + 1);
  if seen < max_reports then
    ctx.diags <- Diag.make ?witness sev ~code ~pass:pass_name ~loc msg :: ctx.diags
  else if seen = max_reports then
    ctx.diags <-
      Diag.make sev ~code ~pass:pass_name ~loc:Diag.Global
        (Printf.sprintf "further %s findings suppressed (capped at %d)" code
           max_reports)
      :: ctx.diags

let errorf ctx ~code ~loc ?witness fmt =
  Printf.ksprintf (report ctx Diag.Error ~code ~loc ?witness) fmt

(* Cached exact conversion. Finite floats only — callers deal with the
   infinities structurally. *)
let q ctx f =
  match Hashtbl.find_opt ctx.qcache f with
  | Some v -> v
  | None ->
      let v = Lp.Qd.of_float f in
      Hashtbl.add ctx.qcache f v;
      v

let qstr x = Printf.sprintf "%.9g" (Lp.Qd.to_float x)

(* ------------------------------------------------------------------ *)
(* Exact dual bounds (Neumaier–Shcherbina)                             *)
(* ------------------------------------------------------------------ *)

(* Clamp a float multiplier into the sign cone its row sense requires.
   Any clamped vector still yields a valid bound — clamping (like any
   float drift) can only weaken it, never falsely strengthen it. Non-
   finite entries are weakened to 0 for the same reason. *)
let clamp sense ui =
  if not (Float.is_finite ui) then 0.0
  else
    match sense with
    | Lp.Model.Le -> if ui < 0.0 then 0.0 else ui
    | Lp.Model.Ge -> if ui > 0.0 then 0.0 else ui
    | Lp.Model.Eq -> ui

(* [reduced_costs ctx ~use_obj u] = (r, t) with r = c + Aᵀû and
   t = -û·b, where û is the sense-clamped u and c is the objective (or 0
   for Farkas checks). Everything exact. *)
let reduced_costs ctx ~use_obj u =
  let raw = ctx.raw in
  let r =
    Array.init raw.Lp.Model.n (fun j ->
        if use_obj then q ctx raw.Lp.Model.obj.(j) else Lp.Qd.zero)
  in
  let t = ref Lp.Qd.zero in
  Array.iteri
    (fun i row ->
      let ui = clamp raw.Lp.Model.senses.(i) u.(i) in
      if ui <> 0.0 then begin
        let uq = q ctx ui in
        t := Lp.Qd.sub !t (Lp.Qd.mul uq (q ctx raw.Lp.Model.rhs.(i)));
        Array.iter
          (fun (j, a) -> r.(j) <- Lp.Qd.add r.(j) (Lp.Qd.mul uq (q ctx a)))
          row
      end)
    raw.Lp.Model.rows;
  (r, !t)

(* min over the box [lb, ub] of Σ r_j x_j; [None] = -infinity (a negative
   reduced cost against an infinite upper bound, or positive against an
   infinite lower bound). *)
let box_min ctx r lb ub =
  let acc = ref Lp.Qd.zero and finite = ref true in
  for j = 0 to ctx.raw.Lp.Model.n - 1 do
    let s = Lp.Qd.sign r.(j) in
    if s > 0 then
      if Float.is_finite lb.(j) then
        acc := Lp.Qd.add !acc (Lp.Qd.mul r.(j) (q ctx lb.(j)))
      else finite := false
    else if s < 0 then
      if Float.is_finite ub.(j) then
        acc := Lp.Qd.add !acc (Lp.Qd.mul r.(j) (q ctx ub.(j)))
      else finite := false
  done;
  if !finite then Some !acc else None

(* Safe exact bound certified by the float vector [u] on
   min {c·x : Ax sense b, lb <= x <= ub} — valid for *any* u. *)
let dual_bound ctx ~use_obj u lb ub =
  let r, t = reduced_costs ctx ~use_obj u in
  match box_min ctx r lb ub with
  | None -> None
  | Some bm -> Some (Lp.Qd.add t bm)

(* ------------------------------------------------------------------ *)
(* Tree bookkeeping                                                    *)
(* ------------------------------------------------------------------ *)

(* Walk [node]'s parent chain collecting branch edits, then replay them
   onto a copy of the post-fixing root box. [None] when the chain is
   broken or cyclic (reported as CERT101/CERT106 elsewhere). *)
let node_box ctx (node : Lp.Cert.node) =
  let cert = ctx.cert in
  let rec edits acc n guard =
    if guard > 1_000_000 then None
    else
      match n.Lp.Cert.branch with
      | None -> Some acc
      | Some e -> (
          match Hashtbl.find_opt ctx.by_id n.Lp.Cert.parent with
          | Some p -> edits (e :: acc) p (guard + 1)
          | None -> None)
  in
  match edits [] node 0 with
  | None -> None
  | Some es ->
      let lb = Array.copy cert.Lp.Cert.root_lb
      and ub = Array.copy cert.Lp.Cert.root_ub in
      let ok =
        List.for_all
          (fun (j, side, v) ->
            if j < 0 || j >= ctx.raw.Lp.Model.n then false
            else begin
              (match side with
              | Lp.Cert.Lower -> lb.(j) <- v
              | Lp.Cert.Upper -> ub.(j) <- v);
              true
            end)
          es
      in
      if ok then Some (lb, ub) else None

let claim_str = function
  | Lp.Cert.Lp_optimal _ -> "optimal"
  | Lp.Cert.Lp_infeasible _ -> "infeasible"
  | Lp.Cert.Lp_unsolved -> "unsolved"

(* ------------------------------------------------------------------ *)
(* Incumbent checks (CERT102 / CERT107)                                *)
(* ------------------------------------------------------------------ *)

let check_incumbent ctx =
  let cert = ctx.cert and raw = ctx.raw in
  let has_inc =
    match cert.Lp.Cert.status with
    | Lp.Cert.Optimal | Lp.Cert.Feasible -> true
    | Lp.Cert.Infeasible | Lp.Cert.Unbounded | Lp.Cert.Unknown -> false
  in
  match (cert.Lp.Cert.incumbent, has_inc) with
  | None, false -> ()
  | None, true ->
      errorf ctx ~code:"CERT107" ~loc:Diag.Global
        "status %s claims an incumbent but the certificate records none"
        (Lp.Cert.status_label cert.Lp.Cert.status)
  | Some _, false ->
      errorf ctx ~code:"CERT107" ~loc:Diag.Global
        "status %s forbids an incumbent but the certificate records one"
        (Lp.Cert.status_label cert.Lp.Cert.status)
  | Some x, true ->
      if Array.length x <> raw.Lp.Model.n then
        errorf ctx ~code:"CERT101" ~loc:Diag.Global
          "incumbent has %d entries, model has %d variables" (Array.length x)
          raw.Lp.Model.n
      else begin
        let epsq = q ctx feas_eps in
        for j = 0 to raw.Lp.Model.n - 1 do
          if not (Float.is_finite x.(j)) then
            errorf ctx ~code:"CERT102" ~loc:(Diag.Column j)
              "incumbent entry is not finite"
          else begin
            let xq = q ctx x.(j) in
            if
              Float.is_finite raw.Lp.Model.lb.(j)
              && Lp.Qd.lt xq (Lp.Qd.sub (q ctx raw.Lp.Model.lb.(j)) epsq)
            then
              errorf ctx ~code:"CERT102" ~loc:(Diag.Column j)
                "incumbent %.9g below lower bound %.9g" x.(j)
                raw.Lp.Model.lb.(j);
            if
              Float.is_finite raw.Lp.Model.ub.(j)
              && Lp.Qd.lt (Lp.Qd.add (q ctx raw.Lp.Model.ub.(j)) epsq) xq
            then
              errorf ctx ~code:"CERT102" ~loc:(Diag.Column j)
                "incumbent %.9g above upper bound %.9g" x.(j)
                raw.Lp.Model.ub.(j);
            (* integrality is exact — the solver snaps accepted incumbents,
               so zero tolerance is the honest check *)
            if raw.Lp.Model.integer.(j) && not (Lp.Qd.is_integer xq) then
              errorf ctx ~code:"CERT102" ~loc:(Diag.Column j)
                "integer variable holds non-integral value %.17g" x.(j)
          end
        done;
        Array.iteri
          (fun i row ->
            let lhs =
              Lp.Qd.sum (Array.length row) (fun k ->
                  let jj, a = row.(k) in
                  Lp.Qd.mul (q ctx a) (q ctx x.(jj)))
            in
            let rhs = q ctx raw.Lp.Model.rhs.(i) in
            let bad =
              match raw.Lp.Model.senses.(i) with
              | Lp.Model.Le -> Lp.Qd.lt (Lp.Qd.add rhs epsq) lhs
              | Lp.Model.Ge -> Lp.Qd.lt lhs (Lp.Qd.sub rhs epsq)
              | Lp.Model.Eq ->
                  Lp.Qd.lt (Lp.Qd.add rhs epsq) lhs
                  || Lp.Qd.lt lhs (Lp.Qd.sub rhs epsq)
            in
            if bad then
              errorf ctx ~code:"CERT102" ~loc:(Diag.Row i)
                ~witness:[ qstr lhs; Printf.sprintf "%.9g" raw.Lp.Model.rhs.(i) ]
                "incumbent violates constraint row (exact lhs %s)" (qstr lhs))
          raw.Lp.Model.rows;
        (* recorded objective must be the incumbent's exact objective *)
        if Float.is_finite cert.Lp.Cert.objective then begin
          let exact =
            Lp.Qd.sum raw.Lp.Model.n (fun j ->
                Lp.Qd.mul (q ctx raw.Lp.Model.obj.(j)) (q ctx x.(j)))
          in
          let claimed = q ctx cert.Lp.Cert.objective in
          let tol =
            q ctx (lp_rel *. Float.max 1.0 (Float.abs cert.Lp.Cert.objective))
          in
          if
            Lp.Qd.lt (Lp.Qd.add claimed tol) exact
            || Lp.Qd.lt exact (Lp.Qd.sub claimed tol)
          then
            errorf ctx ~code:"CERT107" ~loc:Diag.Global
              ~witness:[ qstr exact ]
              "recorded objective %.9g disagrees with the incumbent's exact \
               objective %s"
              cert.Lp.Cert.objective (qstr exact)
        end
        else
          errorf ctx ~code:"CERT107" ~loc:Diag.Global
            "incumbent present but recorded objective is not finite"
      end

let check_incumbent_log ctx =
  let cert = ctx.cert in
  match cert.Lp.Cert.incumbent with
  | None ->
      if cert.Lp.Cert.incumbents <> [] then
        errorf ctx ~code:"CERT107" ~loc:Diag.Global
          "incumbent log has %d entries but no final incumbent"
          (List.length cert.Lp.Cert.incumbents)
  | Some _ when not (Float.is_finite cert.Lp.Cert.objective) -> ()
  | Some _ -> (
      let zq = q ctx cert.Lp.Cert.objective in
      let floor_ = Lp.Qd.sub zq (q ctx inc_slack) in
      List.iter
        (fun (id, v) ->
          if (not (Float.is_finite v)) || Lp.Qd.lt (q ctx v) floor_ then
            errorf ctx ~code:"CERT107" ~loc:(Diag.Node id)
              "accepted incumbent %.9g is better than the final objective \
               %.9g — stale final incumbent"
              v cert.Lp.Cert.objective)
        cert.Lp.Cert.incumbents;
      match List.rev cert.Lp.Cert.incumbents with
      | [] ->
          errorf ctx ~code:"CERT107" ~loc:Diag.Global
            "final incumbent present but the acceptance log is empty"
      | (_, last) :: _ ->
          if
            Float.is_finite last
            && not
                 (Lp.Qd.leq
                    (Lp.Qd.sub (q ctx last) zq)
                    (q ctx inc_slack))
          then
            errorf ctx ~code:"CERT107" ~loc:Diag.Global
              "last accepted incumbent %.9g does not match the final \
               objective %.9g"
              last cert.Lp.Cert.objective)

(* ------------------------------------------------------------------ *)
(* Per-node checks (CERT101 / CERT103 / CERT104 / CERT106)             *)
(* ------------------------------------------------------------------ *)

let check_branch_edit ctx (n : Lp.Cert.node) =
  match n.Lp.Cert.branch with
  | None ->
      if n.Lp.Cert.parent <> -1 then
        errorf ctx ~code:"CERT106" ~loc:(Diag.Node n.Lp.Cert.id)
          "non-root node %d carries no branch edit" n.Lp.Cert.id
  | Some (j, side, v) -> (
      if j < 0 || j >= ctx.raw.Lp.Model.n then
        errorf ctx ~code:"CERT106" ~loc:(Diag.Node n.Lp.Cert.id)
          "branch variable %d out of range" j
      else if not ctx.raw.Lp.Model.integer.(j) then
        errorf ctx ~code:"CERT106" ~loc:(Diag.Node n.Lp.Cert.id)
          "branch on continuous variable %d" j
      else if (not (Float.is_finite v)) || not (Lp.Qd.is_integer (q ctx v)) then
        errorf ctx ~code:"CERT106" ~loc:(Diag.Node n.Lp.Cert.id)
          "branch bound %.17g on variable %d is not integral" v j;
      match Hashtbl.find_opt ctx.by_id n.Lp.Cert.parent with
      | None ->
          errorf ctx ~code:"CERT101" ~loc:(Diag.Node n.Lp.Cert.id)
            "node %d references missing parent %d" n.Lp.Cert.id
            n.Lp.Cert.parent
      | Some p -> (
          if n.Lp.Cert.depth <> p.Lp.Cert.depth + 1 then
            errorf ctx ~code:"CERT106" ~loc:(Diag.Node n.Lp.Cert.id)
              "depth %d inconsistent with parent depth %d" n.Lp.Cert.depth
              p.Lp.Cert.depth;
          match p.Lp.Cert.fathom with
          | Lp.Cert.F_branched { bvar; down_id; down_ub; up_id; up_lb } ->
              let expect =
                if n.Lp.Cert.id = down_id then Some (Lp.Cert.Upper, down_ub)
                else if n.Lp.Cert.id = up_id then Some (Lp.Cert.Lower, up_lb)
                else None
              in
              (match expect with
              | None ->
                  errorf ctx ~code:"CERT106" ~loc:(Diag.Node n.Lp.Cert.id)
                    "node %d is not among parent %d's recorded children"
                    n.Lp.Cert.id p.Lp.Cert.id
              | Some (eside, ev) ->
                  if side <> eside || v <> ev || j <> bvar then
                    errorf ctx ~code:"CERT106" ~loc:(Diag.Node n.Lp.Cert.id)
                      "branch edit (var %d, %s, %.9g) disagrees with parent \
                       %d's branch record (var %d)"
                      j
                      (match side with
                      | Lp.Cert.Lower -> "lower"
                      | Lp.Cert.Upper -> "upper")
                      v p.Lp.Cert.id bvar)
          | _ ->
              errorf ctx ~code:"CERT106" ~loc:(Diag.Node n.Lp.Cert.id)
                "parent %d of node %d did not branch" p.Lp.Cert.id
                n.Lp.Cert.id))

(* The two children of a branch must partition the integer points of the
   parent interval: up_lb = down_ub + 1, both integral. *)
let check_branch_arith ctx (n : Lp.Cert.node) =
  match n.Lp.Cert.fathom with
  | Lp.Cert.F_branched { bvar; down_ub; up_lb; _ } ->
      let bad =
        (not (Float.is_finite down_ub))
        || (not (Float.is_finite up_lb))
        || (not (Lp.Qd.is_integer (q ctx down_ub)))
        || not
             (Lp.Qd.equal (q ctx up_lb)
                (Lp.Qd.add (q ctx down_ub) (Lp.Qd.of_int 1)))
      in
      if bad then
        errorf ctx ~code:"CERT106" ~loc:(Diag.Node n.Lp.Cert.id)
          "branch on variable %d does not partition the interval (x <= \
           %.9g | x >= %.9g)"
          bvar down_ub up_lb
  | _ -> ()

let check_claim ctx (n : Lp.Cert.node) box =
  let nid = n.Lp.Cert.id in
  match n.Lp.Cert.claim with
  | Lp.Cert.Lp_unsolved -> ()
  | Lp.Cert.Lp_optimal { obj; duals } -> (
      if not (Float.is_finite obj) then
        errorf ctx ~code:"CERT101" ~loc:(Diag.Node nid)
          "optimal LP claim with non-finite objective"
      else if Array.length duals <> ctx.m then
        errorf ctx ~code:"CERT101" ~loc:(Diag.Node nid)
          "dual vector has %d entries, model has %d rows" (Array.length duals)
          ctx.m
      else
        match box with
        | None -> ()
        | Some (lb, ub) -> (
            let beta = dual_bound ctx ~use_obj:true duals lb ub in
            Hashtbl.replace ctx.node_bounds nid beta;
            let tol = q ctx (lp_rel *. Float.max 1.0 (Float.abs obj)) in
            match beta with
            | None ->
                errorf ctx ~code:"CERT103" ~loc:(Diag.Node nid)
                  "dual vector certifies no finite bound (claimed %.9g)" obj
            | Some b ->
                if Lp.Qd.lt b (Lp.Qd.sub (q ctx obj) tol) then
                  errorf ctx ~code:"CERT103" ~loc:(Diag.Node nid)
                    ~witness:[ qstr b; Printf.sprintf "%.9g" obj ]
                    "exact dual bound %s is below the claimed LP objective \
                     %.9g"
                    (qstr b) obj))
  | Lp.Cert.Lp_infeasible ev -> (
      match ev with
      | None ->
          errorf ctx ~code:"CERT101" ~loc:(Diag.Node nid)
            "infeasibility claimed without evidence"
      | Some (Lp.Cert.Empty_box j) -> (
          if j < 0 || j >= ctx.raw.Lp.Model.n then
            errorf ctx ~code:"CERT106" ~loc:(Diag.Node nid)
              "empty-box witness variable %d out of range" j
          else
            match box with
            | None -> ()
            | Some (lb, ub) ->
                let crossed =
                  Float.is_finite lb.(j)
                  && (ub.(j) = Float.neg_infinity
                     || (Float.is_finite ub.(j)
                        && Lp.Qd.lt (q ctx ub.(j)) (q ctx lb.(j))))
                in
                if not crossed then
                  errorf ctx ~code:"CERT104" ~loc:(Diag.Node nid)
                    "claimed empty box on variable %d, but [%.9g, %.9g] is \
                     not empty"
                    j lb.(j) ub.(j))
      | Some (Lp.Cert.Ray u) -> (
          if Array.length u <> ctx.m then
            errorf ctx ~code:"CERT101" ~loc:(Diag.Node nid)
              "Farkas ray has %d entries, model has %d rows" (Array.length u)
              ctx.m
          else
            match box with
            | None -> ()
            | Some (lb, ub) -> (
                match dual_bound ctx ~use_obj:false u lb ub with
                | Some b when Lp.Qd.sign b > 0 -> ()
                | Some b ->
                    errorf ctx ~code:"CERT104" ~loc:(Diag.Node nid)
                      ~witness:[ qstr b ]
                      "Farkas ray proves only %s > 0 is required for \
                       infeasibility"
                      (qstr b)
                | None ->
                    errorf ctx ~code:"CERT104" ~loc:(Diag.Node nid)
                      "Farkas ray certifies no finite bound")))

let check_incumbent_at ctx (n : Lp.Cert.node) =
  let cert = ctx.cert in
  if Float.is_finite n.Lp.Cert.incumbent_at then
    match cert.Lp.Cert.incumbent with
    | None ->
        errorf ctx ~code:"CERT107" ~loc:(Diag.Node n.Lp.Cert.id)
          "node observed incumbent %.9g but the run ended with none"
          n.Lp.Cert.incumbent_at
    | Some _ ->
        if
          Float.is_finite cert.Lp.Cert.objective
          && Lp.Qd.lt
               (q ctx n.Lp.Cert.incumbent_at)
               (Lp.Qd.sub (q ctx cert.Lp.Cert.objective) (q ctx inc_slack))
        then
          errorf ctx ~code:"CERT107" ~loc:(Diag.Node n.Lp.Cert.id)
            "node observed incumbent %.9g better than the final objective \
             %.9g — lost incumbent update"
            n.Lp.Cert.incumbent_at cert.Lp.Cert.objective

(* ------------------------------------------------------------------ *)
(* Pruning replay (CERT105 / CERT107)                                  *)
(* ------------------------------------------------------------------ *)

(* Exact bound for [node]'s box certified by the nearest ancestor (or
   self) holding an optimal LP claim. Used for F_dominated nodes and for
   branched children that were never processed. *)
let ancestor_bound ctx (node : Lp.Cert.node) box =
  let rec up (n : Lp.Cert.node) guard =
    if guard > 1_000_000 then None
    else
      match n.Lp.Cert.claim with
      | Lp.Cert.Lp_optimal { duals; _ } when Array.length duals = ctx.m ->
          Some duals
      | _ ->
          if n.Lp.Cert.parent < 0 then None
          else
            Option.bind
              (Hashtbl.find_opt ctx.by_id n.Lp.Cert.parent)
              (fun p -> up p (guard + 1))
  in
  match up node 0 with
  | None -> None
  | Some duals ->
      let lb, ub = box in
      Some (dual_bound ctx ~use_obj:true duals lb ub)

(* Fathom threshold: a subtree is soundly excluded if its exact bound is
   >= z_final - gap_tol·max(1,|z|) - lp_rel·max(1,|bound|) — the solver's
   published gap contract plus its LP accuracy contract. *)
let fathom_floor ctx ~ref_obj =
  let z = ctx.cert.Lp.Cert.objective in
  let slack =
    (ctx.cert.Lp.Cert.gap_tol *. Float.max 1.0 (Float.abs z))
    +. (lp_rel *. Float.max 1.0 (Float.abs ref_obj))
  in
  Lp.Qd.sub (q ctx z) (q ctx slack)

let check_completeness_optimal ctx =
  let cert = ctx.cert in
  if not (Float.is_finite cert.Lp.Cert.objective) then ()
  else
    List.iter
      (fun (n : Lp.Cert.node) ->
        let nid = n.Lp.Cert.id in
        match n.Lp.Cert.fathom with
        | Lp.Cert.F_infeasible -> (
            match n.Lp.Cert.claim with
            | Lp.Cert.Lp_infeasible _ -> ()
            | c ->
                errorf ctx ~code:"CERT101" ~loc:(Diag.Node nid)
                  "node fathomed as infeasible but its LP claim is %s"
                  (claim_str c))
        | Lp.Cert.F_integral -> (
            match n.Lp.Cert.claim with
            | Lp.Cert.Lp_optimal { obj; _ } ->
                if
                  Float.is_finite obj
                  && Lp.Qd.lt (q ctx obj)
                       (Lp.Qd.sub
                          (q ctx cert.Lp.Cert.objective)
                          (q ctx inc_slack))
                then
                  errorf ctx ~code:"CERT107" ~loc:(Diag.Node nid)
                    "integral leaf with objective %.9g better than the \
                     final objective %.9g — stale incumbent"
                    obj cert.Lp.Cert.objective
            | c ->
                errorf ctx ~code:"CERT101" ~loc:(Diag.Node nid)
                  "integral fathom without an optimal LP claim (%s)"
                  (claim_str c))
        | Lp.Cert.F_bound -> (
            match n.Lp.Cert.claim with
            | Lp.Cert.Lp_optimal { obj; _ } -> (
                match Hashtbl.find_opt ctx.node_bounds nid with
                | Some (Some b) ->
                    if Lp.Qd.lt b (fathom_floor ctx ~ref_obj:obj) then
                      errorf ctx ~code:"CERT105" ~loc:(Diag.Node nid)
                        ~witness:[ qstr b ]
                        "bound-fathomed node's exact dual bound %s is below \
                         the final objective %.9g minus the gap contract"
                        (qstr b) cert.Lp.Cert.objective
                | Some None ->
                    errorf ctx ~code:"CERT105" ~loc:(Diag.Node nid)
                      "bound-fathomed node's dual bound is not finite"
                | None -> ())
            | c ->
                errorf ctx ~code:"CERT105" ~loc:(Diag.Node nid)
                  "bound fathom without an optimal LP claim (%s)"
                  (claim_str c))
        | Lp.Cert.F_dominated -> (
            match node_box ctx n with
            | None -> ()
            | Some box -> (
                match ancestor_bound ctx n box with
                | None ->
                    errorf ctx ~code:"CERT101" ~loc:(Diag.Node nid)
                      "dominated node has no dual evidence on its ancestor \
                       chain"
                | Some None ->
                    errorf ctx ~code:"CERT105" ~loc:(Diag.Node nid)
                      "dominated node's ancestor bound is not finite"
                | Some (Some b) ->
                    if Lp.Qd.lt b (fathom_floor ctx ~ref_obj:n.Lp.Cert.bound)
                    then
                      errorf ctx ~code:"CERT105" ~loc:(Diag.Node nid)
                        ~witness:[ qstr b ]
                        "dominated node's exact ancestor bound %s is below \
                         the final objective %.9g minus the gap contract"
                        (qstr b) cert.Lp.Cert.objective))
        | Lp.Cert.F_budget ->
            errorf ctx ~code:"CERT107" ~loc:(Diag.Node nid)
              "optimal status with a budget-abandoned node"
        | Lp.Cert.F_branched { bvar; down_id; down_ub; up_id; up_lb } ->
            List.iter
              (fun (cid, mk) ->
                if not (Hashtbl.mem ctx.by_id cid) then
                  (* the child was never processed (the run closed the gap
                     first); cover its box with this node's own duals *)
                  match n.Lp.Cert.claim with
                  | Lp.Cert.Lp_optimal { obj; duals }
                    when Array.length duals = ctx.m -> (
                      match node_box ctx n with
                      | None -> ()
                      | Some (lb, ub) -> (
                          let lb = Array.copy lb and ub = Array.copy ub in
                          mk lb ub;
                          match dual_bound ctx ~use_obj:true duals lb ub with
                          | None ->
                              errorf ctx ~code:"CERT105" ~loc:(Diag.Node nid)
                                "unprocessed child %d has no finite covering \
                                 bound"
                                cid
                          | Some bb ->
                              if Lp.Qd.lt bb (fathom_floor ctx ~ref_obj:obj)
                              then
                                errorf ctx ~code:"CERT105"
                                  ~loc:(Diag.Node nid) ~witness:[ qstr bb ]
                                  "unprocessed child %d's exact covering \
                                   bound %s is below the final objective \
                                   %.9g minus the gap contract"
                                  cid (qstr bb) cert.Lp.Cert.objective))
                  | _ ->
                      errorf ctx ~code:"CERT101" ~loc:(Diag.Node nid)
                        "child %d missing and parent holds no duals to \
                         cover it"
                        cid)
              [
                (down_id, fun _lb ub -> ub.(bvar) <- down_ub);
                (up_id, fun lb _ub -> lb.(bvar) <- up_lb);
              ])
      cert.Lp.Cert.nodes

(* An Infeasible verdict is a completeness claim with no incumbent: every
   recorded node must either branch (with both children present) or carry
   infeasibility evidence. *)
let check_completeness_infeasible ctx =
  List.iter
    (fun (n : Lp.Cert.node) ->
      match n.Lp.Cert.fathom with
      | Lp.Cert.F_infeasible -> ()
      | Lp.Cert.F_branched { down_id; up_id; _ } ->
          List.iter
            (fun cid ->
              if not (Hashtbl.mem ctx.by_id cid) then
                errorf ctx ~code:"CERT101" ~loc:(Diag.Node n.Lp.Cert.id)
                  "infeasible verdict with unprocessed child %d" cid)
            [ down_id; up_id ]
      | _ ->
          errorf ctx ~code:"CERT107" ~loc:(Diag.Node n.Lp.Cert.id)
            "infeasible verdict but node was not fathomed as infeasible")
    ctx.cert.Lp.Cert.nodes

(* ------------------------------------------------------------------ *)
(* Presolve replay (CERT111)                                           *)
(* ------------------------------------------------------------------ *)

(* Replay the recorded bound-tightening events, in order, onto a copy of
   the model box, exact-verifying each one: an integrality rounding
   (t_row = -1) must round the then-current bound to the adjacent
   integer, and an activity-based tightening (t_row = i) must be implied
   by row i's exact minimum rest activity over the then-current box.
   Every event is applied even when it fails (with a CERT111 error), so
   downstream checks — cut validity, the root-box consistency in
   {!check_fixes} — run against the box the solver actually used.
   Returns the post-presolve box B_p. *)
let check_presolve ctx =
  let raw = ctx.raw in
  let n = raw.Lp.Model.n in
  let lb = Array.copy raw.Lp.Model.lb and ub = Array.copy raw.Lp.Model.ub in
  let qone = Lp.Qd.of_int 1 in
  List.iteri
    (fun idx (e : Lp.Cert.tighten) ->
      let j = e.Lp.Cert.t_var in
      if j < 0 || j >= n then
        errorf ctx ~code:"CERT111" ~loc:Diag.Global
          "tightening %d targets variable %d out of range" idx j
      else begin
        let v = e.Lp.Cert.t_new in
        let hi = e.Lp.Cert.t_hi in
        let ok =
          if not (Float.is_finite v) then false
          else if e.Lp.Cert.t_row = -1 then
            (* integrality rounding of the then-current bound *)
            raw.Lp.Model.integer.(j)
            && Lp.Qd.is_integer (q ctx v)
            &&
            if hi then
              Float.is_finite ub.(j)
              && Lp.Qd.leq (q ctx v) (q ctx ub.(j))
              && Lp.Qd.lt (Lp.Qd.sub (q ctx ub.(j)) qone) (q ctx v)
            else
              Float.is_finite lb.(j)
              && Lp.Qd.geq (q ctx v) (q ctx lb.(j))
              && Lp.Qd.lt (q ctx v) (Lp.Qd.add (q ctx lb.(j)) qone)
          else if
            e.Lp.Cert.t_row < 0
            || e.Lp.Cert.t_row >= Array.length raw.Lp.Model.rows
          then false
          else begin
            (* activity-based tightening from row i, replayed through its
               <=-form view: a ub tightening needs view coefficient
               cj > 0, a lb tightening cj < 0 — which pins the view
               direction for Le/Ge rows and selects it for Eq rows *)
            let i = e.Lp.Cert.t_row in
            let row = raw.Lp.Model.rows.(i) in
            match Array.find_opt (fun (k, _) -> k = j) row with
            | None | Some (_, 0.0) -> false
            | Some (_, a) ->
                let dir =
                  match raw.Lp.Model.senses.(i) with
                  | Lp.Model.Le -> 1.0
                  | Lp.Model.Ge -> -1.0
                  | Lp.Model.Eq ->
                      if hi = (a > 0.0) then 1.0 else -1.0
                in
                let cj = dir *. a in
                if (cj > 0.0) <> hi then false
                else begin
                  (* exact minimum rest activity over the current box *)
                  let ma =
                    try
                      Some
                        (Array.fold_left
                           (fun acc (k, ak) ->
                             if k = j then acc
                             else
                               let ck = dir *. ak in
                               if ck > 0.0 then
                                 if Float.is_finite lb.(k) then
                                   Lp.Qd.add acc
                                     (Lp.Qd.mul (q ctx ck) (q ctx lb.(k)))
                                 else raise Exit
                               else if ck < 0.0 then
                                 if Float.is_finite ub.(k) then
                                   Lp.Qd.add acc
                                     (Lp.Qd.mul (q ctx ck) (q ctx ub.(k)))
                                 else raise Exit
                               else acc)
                           Lp.Qd.zero row)
                    with Exit -> None
                  in
                  match ma with
                  | None -> false
                  | Some ma ->
                      let cjq = q ctx cj in
                      let d = q ctx (dir *. raw.Lp.Model.rhs.(i)) in
                      let vq = q ctx v in
                      if raw.Lp.Model.integer.(j) && Lp.Qd.is_integer vq then
                        (* the first integer value past the new bound must
                           already violate the row *)
                        let shifted =
                          if hi then Lp.Qd.add vq qone else Lp.Qd.sub vq qone
                        in
                        Lp.Qd.lt d (Lp.Qd.add (Lp.Qd.mul cjq shifted) ma)
                      else
                        (* continuous: every point strictly past the new
                           bound violates the row *)
                        Lp.Qd.geq (Lp.Qd.add (Lp.Qd.mul cjq vq) ma) d
                end
          end
        in
        if not ok then
          errorf ctx ~code:"CERT111" ~loc:(Diag.Column j)
            "tightening %d (%s bound of variable %d to %.9g, row %d) fails \
             exact replay"
            idx
            (if hi then "upper" else "lower")
            j v e.Lp.Cert.t_row;
        if hi then ub.(j) <- v else lb.(j) <- v
      end)
    ctx.cert.Lp.Cert.presolve;
  (lb, ub)

(* ------------------------------------------------------------------ *)
(* Cutting-plane derivations (CERT109 / CERT110)                       *)
(* ------------------------------------------------------------------ *)

(* Verify every recorded cut, in derivation order, against the
   post-presolve box B_p (cuts must hold for every integer point of the
   tightened polytope — tightening validity is CERT111's job). Each
   cut's row is folded into [ctx.raw]/[ctx.m] after its check — whether
   it passed or not, so node dual vectors (which the solver produced
   over the extended system) keep their row indexing — and later CG
   derivations may cite earlier cut rows. *)
let check_cuts ctx (bp_lb, bp_ub) =
  let qone = Lp.Qd.of_int 1 in
  let m0 = ctx.m in
  List.iteri
    (fun k (c : Lp.Cert.cut) ->
      let raw = ctx.raw in
      let n = raw.Lp.Model.n in
      let loc = Diag.Row ctx.m in
      let terms_ok =
        Float.is_finite c.Lp.Cert.cut_rhs
        && Array.for_all
             (fun (j, cf) -> j >= 0 && j < n && Float.is_finite cf)
             c.Lp.Cert.cut_terms
      in
      (if not terms_ok then
         errorf ctx ~code:"CERT109" ~loc
           "cut %d is malformed (non-finite or out-of-range terms)" k
       else
         match c.Lp.Cert.cut_deriv with
         | Lp.Cert.Cg lam ->
             let ok = ref true in
             let fail fmt =
               Printf.ksprintf
                 (fun s ->
                   if !ok then
                     errorf ctx ~code:"CERT109" ~loc "cut %d: %s" k s;
                   ok := false)
                 fmt
             in
             Array.iter
               (fun (i, l) ->
                 if i < 0 || i >= ctx.m then
                   fail "multiplier cites row %d out of range" i
                 else if not (Float.is_finite l) then
                   fail "non-finite multiplier on row %d" i
                 else
                   match raw.Lp.Model.senses.(i) with
                   | Lp.Model.Le ->
                       if l < 0.0 then
                         fail "negative multiplier on <= row %d" i
                   | Lp.Model.Ge ->
                       if l > 0.0 then
                         fail "positive multiplier on >= row %d" i
                   | Lp.Model.Eq -> ())
               lam;
             if !ok then begin
               (* exact aggregation of the cited rows *)
               let abar = Array.make n Lp.Qd.zero in
               let t = ref Lp.Qd.zero in
               Array.iter
                 (fun (i, l) ->
                   if l <> 0.0 then begin
                     let lq = q ctx l in
                     t :=
                       Lp.Qd.add !t (Lp.Qd.mul lq (q ctx raw.Lp.Model.rhs.(i)));
                     Array.iter
                       (fun (jj, a) ->
                         abar.(jj) <-
                           Lp.Qd.add abar.(jj) (Lp.Qd.mul lq (q ctx a)))
                       raw.Lp.Model.rows.(i)
                   end)
                 lam;
               let cvec = Array.make n 0.0 in
               Array.iter
                 (fun (j, cf) -> cvec.(j) <- cf)
                 c.Lp.Cert.cut_terms;
               (* Each column may deviate from the exact aggregation;
                  the deviation (c_j - abar_j)·x_j is bounded over the
                  box B_p by charging it to the finite bound where it
                  maxes out. The shifted rhs t' = t + the sum of those
                  charges then upper-bounds sum_j c_j·x_j everywhere in
                  the box, and the integer-rounding step floors t'. *)
               let delta = ref Lp.Qd.zero in
               let support_int = ref true and coeffs_int = ref true in
               for j = 0 to n - 1 do
                 let cj = cvec.(j) in
                 let cjq = q ctx cj in
                 if not (Lp.Qd.equal abar.(j) cjq) then begin
                   let diff = Lp.Qd.sub cjq abar.(j) in
                   let bound =
                     if Lp.Qd.sign diff > 0 then bp_ub.(j) else bp_lb.(j)
                   in
                   if not (Float.is_finite bound) then
                     fail
                       "coefficient change on variable %d (exact %s, cut \
                        %.9g) is charged to an infinite bound"
                       j (qstr abar.(j)) cj
                   else delta := Lp.Qd.add !delta (Lp.Qd.mul diff (q ctx bound))
                 end;
                 if cj <> 0.0 then begin
                   if not raw.Lp.Model.integer.(j) then support_int := false;
                   if not (Lp.Qd.is_integer cjq) then coeffs_int := false
                 end
               done;
               if !ok then begin
                 let d = c.Lp.Cert.cut_rhs in
                 let dq = q ctx d in
                 let t' = Lp.Qd.add !t !delta in
                 if Lp.Qd.geq dq t' then () (* plain shifted aggregation *)
                 else if not !support_int then
                   fail
                     "rounded rhs %.9g < exact shifted rhs %s with \
                      continuous support"
                     d (qstr t')
                 else if not !coeffs_int then
                   fail
                     "rounded rhs with non-integral cut coefficients"
                 else if not (Lp.Qd.is_integer dq) then
                   fail "rounded rhs %.9g is not integral" d
                 else if not (Lp.Qd.lt t' (Lp.Qd.add dq qone)) then
                   fail
                     "rhs %.9g is below the floor of the exact shifted \
                      rhs %s"
                     d (qstr t')
               end
             end
         | Lp.Cert.Cover { c_row; members } ->
             let ok = ref true in
             let fail fmt =
               Printf.ksprintf
                 (fun s ->
                   if !ok then
                     errorf ctx ~code:"CERT110" ~loc "cut %d: %s" k s;
                   ok := false)
                 fmt
             in
             if c_row < 0 || c_row >= m0 then
               fail "cites row %d outside the model rows" c_row
             else if raw.Lp.Model.senses.(c_row) <> Lp.Model.Le then
               fail "cover derived from a non-<= row %d" c_row
             else begin
               let row = raw.Lp.Model.rows.(c_row) in
               let mem = Hashtbl.create (Array.length members) in
               Array.iter
                 (fun j ->
                   if j < 0 || j >= n then
                     fail "member variable %d out of range" j
                   else begin
                     if Hashtbl.mem mem j then
                       fail "duplicate member variable %d" j;
                     Hashtbl.replace mem j ();
                     if
                       (not raw.Lp.Model.integer.(j))
                       || bp_lb.(j) <> 0.0
                       || bp_ub.(j) <> 1.0
                     then fail "member variable %d is not a 0/1 binary" j
                   end)
                 members;
               if !ok then begin
                 (* members must over-cover the rhs exactly, and every
                    non-member term must be nonnegative over the box *)
                 let sum = ref Lp.Qd.zero in
                 let found = ref 0 in
                 Array.iter
                   (fun (jj, a) ->
                     if Hashtbl.mem mem jj then begin
                       incr found;
                       sum := Lp.Qd.add !sum (q ctx a)
                     end
                     else if a < 0.0 then
                       fail "non-member term on variable %d is negative" jj
                     else if
                       a > 0.0
                       && not
                            (Float.is_finite bp_lb.(jj) && bp_lb.(jj) >= 0.0)
                     then
                       fail
                         "non-member variable %d has a negative lower bound"
                         jj)
                   row;
                 if !found <> Array.length members then
                   fail "members missing from the cited row";
                 if
                   !ok
                   && not (Lp.Qd.lt (q ctx raw.Lp.Model.rhs.(c_row)) !sum)
                 then
                   fail
                     "members do not cover: exact sum %s <= rhs %.9g"
                     (qstr !sum) raw.Lp.Model.rhs.(c_row);
                 (* the cut row itself must be exactly sum(members) <=
                    |members| - 1 *)
                 if !ok then begin
                   let nm = Array.length members in
                   if
                     Array.length c.Lp.Cert.cut_terms <> nm
                     || c.Lp.Cert.cut_rhs <> float_of_int (nm - 1)
                     || not
                          (Array.for_all
                             (fun (jj, cf) ->
                               cf = 1.0 && Hashtbl.mem mem jj)
                             c.Lp.Cert.cut_terms)
                   then
                     fail
                       "cut row is not sum of the %d members <= %d" nm
                       (nm - 1)
                 end
               end
             end);
      (* fold the cut row into the audited system *)
      ctx.raw <-
        {
          raw with
          Lp.Model.rows =
            Array.append raw.Lp.Model.rows [| c.Lp.Cert.cut_terms |];
          senses = Array.append raw.Lp.Model.senses [| Lp.Model.Le |];
          rhs = Array.append raw.Lp.Model.rhs [| c.Lp.Cert.cut_rhs |];
        };
      ctx.m <- ctx.m + 1)
    ctx.cert.Lp.Cert.cuts

(* ------------------------------------------------------------------ *)
(* Root reduced-cost fixing (CERT106 / CERT108)                        *)
(* ------------------------------------------------------------------ *)

let check_fixes ctx (bp_lb, bp_ub) =
  let cert = ctx.cert and raw = ctx.raw in
  if cert.Lp.Cert.fixes = [] && cert.Lp.Cert.presolve = [] then ()
  else begin
    (* the post-fixing root box must differ from the post-presolve box
       B_p (model box + replayed tightenings) exactly at the fixed
       variables, pinned to the recorded side *)
    let side_of = Hashtbl.create 16 in
    List.iter
      (fun (j, s) ->
        if j < 0 || j >= raw.Lp.Model.n || not raw.Lp.Model.integer.(j) then
          errorf ctx ~code:"CERT106" ~loc:(Diag.Column j)
            "reduced-cost fix on an invalid or continuous variable"
        else Hashtbl.replace side_of j s)
      cert.Lp.Cert.fixes;
    if Array.length cert.Lp.Cert.root_lb = raw.Lp.Model.n then
      for j = 0 to raw.Lp.Model.n - 1 do
        let want_lb, want_ub =
          match Hashtbl.find_opt side_of j with
          | None -> (bp_lb.(j), bp_ub.(j))
          | Some Lp.Cert.Lower -> (bp_lb.(j), bp_lb.(j))
          | Some Lp.Cert.Upper -> (bp_ub.(j), bp_ub.(j))
        in
        if
          cert.Lp.Cert.root_lb.(j) <> want_lb
          || cert.Lp.Cert.root_ub.(j) <> want_ub
        then
          errorf ctx ~code:"CERT106" ~loc:(Diag.Column j)
            "post-fixing root box [%.9g, %.9g] inconsistent with the \
             recorded fixes (expected [%.9g, %.9g])"
            cert.Lp.Cert.root_lb.(j) cert.Lp.Cert.root_ub.(j) want_lb want_ub
      done;
    (* exclusion soundness, only meaningful when the final verdict claims
       optimality over the un-fixed box *)
    if cert.Lp.Cert.status = Lp.Cert.Optimal then
      match cert.Lp.Cert.root_duals with
      | None ->
          errorf ctx ~code:"CERT101" ~loc:Diag.Global
            "reduced-cost fixes recorded without the pre-fixing root duals"
      | Some u when Array.length u <> ctx.m ->
          errorf ctx ~code:"CERT101" ~loc:Diag.Global
            "pre-fixing root duals have %d entries, model has %d rows"
            (Array.length u) ctx.m
      | Some u ->
          let r, t = reduced_costs ctx ~use_obj:true u in
          (* per-variable exact min contribution over the post-presolve
             box B_p (which CERT111 proved keeps every integer point);
             the excluded region is a subset of that box with x_j
             restricted, so bounding over it is sound for every fix *)
          let contrib =
            Array.init raw.Lp.Model.n (fun j ->
                let s = Lp.Qd.sign r.(j) in
                if s > 0 then
                  if Float.is_finite bp_lb.(j) then
                    Some (Lp.Qd.mul r.(j) (q ctx bp_lb.(j)))
                  else None
                else if s < 0 then
                  if Float.is_finite bp_ub.(j) then
                    Some (Lp.Qd.mul r.(j) (q ctx bp_ub.(j)))
                  else None
                else Some Lp.Qd.zero)
          in
          let finite = Array.for_all Option.is_some contrib in
          let total =
            if finite then
              Some
                (Array.fold_left
                   (fun acc c -> Lp.Qd.add acc (Option.get c))
                   t contrib)
            else None
          in
          Hashtbl.iter
            (fun j s ->
              (* x_j restricted to the excluded half of its interval *)
              let lo, hi =
                match s with
                | Lp.Cert.Lower -> (bp_lb.(j) +. 1.0, bp_ub.(j))
                | Lp.Cert.Upper -> (bp_lb.(j), bp_ub.(j) -. 1.0)
              in
              if Float.is_finite lo && Float.is_finite hi && lo > hi then
                () (* excluded region empty — trivially sound *)
              else
                let excl =
                  let sgn = Lp.Qd.sign r.(j) in
                  if sgn > 0 then
                    if Float.is_finite lo then Some (Lp.Qd.mul r.(j) (q ctx lo))
                    else None
                  else if sgn < 0 then
                    if Float.is_finite hi then Some (Lp.Qd.mul r.(j) (q ctx hi))
                    else None
                  else Some Lp.Qd.zero
                in
                match (total, contrib.(j), excl) with
                | Some tot, Some cj, Some ej ->
                    let beta = Lp.Qd.add (Lp.Qd.sub tot cj) ej in
                    if
                      Lp.Qd.lt beta
                        (fathom_floor ctx ~ref_obj:cert.Lp.Cert.root_obj)
                    then
                      errorf ctx ~code:"CERT108" ~loc:(Diag.Column j)
                        ~witness:[ qstr beta ]
                        "reduced-cost fix not justified: excluded region's \
                         exact bound %s is below the final objective %.9g \
                         minus the gap contract"
                        (qstr beta) cert.Lp.Cert.objective
                | _ ->
                    errorf ctx ~code:"CERT108" ~loc:(Diag.Column j)
                      "reduced-cost fix not justified: excluded region has \
                       no finite exact bound")
            side_of
  end

(* ------------------------------------------------------------------ *)
(* Structure and status                                                *)
(* ------------------------------------------------------------------ *)

let check_structure ctx =
  let cert = ctx.cert in
  let n_nodes = List.length cert.Lp.Cert.nodes in
  List.iter
    (fun (n : Lp.Cert.node) ->
      if Hashtbl.mem ctx.by_id n.Lp.Cert.id then
        errorf ctx ~code:"CERT101" ~loc:(Diag.Node n.Lp.Cert.id)
          "duplicate node id %d" n.Lp.Cert.id
      else Hashtbl.replace ctx.by_id n.Lp.Cert.id n)
    cert.Lp.Cert.nodes;
  let boxes_ok =
    n_nodes = 0
    || Array.length cert.Lp.Cert.root_lb = ctx.raw.Lp.Model.n
       && Array.length cert.Lp.Cert.root_ub = ctx.raw.Lp.Model.n
  in
  if not boxes_ok then
    errorf ctx ~code:"CERT101" ~loc:Diag.Global
      "root box has %d/%d entries, model has %d variables"
      (Array.length cert.Lp.Cert.root_lb)
      (Array.length cert.Lp.Cert.root_ub)
      ctx.raw.Lp.Model.n;
  if n_nodes > 0 then begin
    match Hashtbl.find_opt ctx.by_id 0 with
    | Some r when r.Lp.Cert.parent = -1 && r.Lp.Cert.branch = None -> ()
    | Some _ ->
        errorf ctx ~code:"CERT101" ~loc:(Diag.Node 0)
          "node 0 is not a well-formed root"
    | None ->
        errorf ctx ~code:"CERT101" ~loc:Diag.Global
          "certificate records %d nodes but no root (id 0)" n_nodes
  end;
  boxes_ok

let check_status ctx =
  let cert = ctx.cert in
  match cert.Lp.Cert.status with
  | Lp.Cert.Optimal ->
      if cert.Lp.Cert.lp_limited > 0 then
        errorf ctx ~code:"CERT107" ~loc:Diag.Global
          "optimal status with %d node LPs abandoned at their pivot cap"
          cert.Lp.Cert.lp_limited;
      if cert.Lp.Cert.nodes = [] then
        errorf ctx ~code:"CERT101" ~loc:Diag.Global
          "optimal status with an empty node log"
  | Lp.Cert.Infeasible ->
      if cert.Lp.Cert.nodes = [] then
        errorf ctx ~code:"CERT101" ~loc:Diag.Global
          "infeasible status with an empty node log"
  | Lp.Cert.Feasible | Lp.Cert.Unbounded | Lp.Cert.Unknown -> ()

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let check raw cert =
  let ctx =
    {
      raw;
      cert;
      m = Array.length raw.Lp.Model.rows;
      qcache = Hashtbl.create 1024;
      by_id = Hashtbl.create 256;
      node_bounds = Hashtbl.create 256;
      diags = [];
      counts = Hashtbl.create 16;
    }
  in
  let boxes_ok = check_structure ctx in
  check_status ctx;
  (* incumbent feasibility is checked against the model rows only, so it
     runs before cut rows are folded into [ctx.raw] *)
  check_incumbent ctx;
  check_incumbent_log ctx;
  (* replay presolve (CERT111), then verify and fold in the cut rows
     (CERT109/110) — node dual vectors and the root-fixing duals are
     over the extended row system *)
  let bp = check_presolve ctx in
  check_cuts ctx bp;
  List.iter
    (fun (n : Lp.Cert.node) ->
      check_branch_edit ctx n;
      check_branch_arith ctx n;
      check_incumbent_at ctx n;
      let box = if boxes_ok then node_box ctx n else None in
      if boxes_ok && box = None then
        errorf ctx ~code:"CERT101" ~loc:(Diag.Node n.Lp.Cert.id)
          "node %d's box cannot be reconstructed (broken parent chain)"
          n.Lp.Cert.id;
      check_claim ctx n box)
    cert.Lp.Cert.nodes;
  if boxes_ok then begin
    (match cert.Lp.Cert.status with
    | Lp.Cert.Optimal -> check_completeness_optimal ctx
    | Lp.Cert.Infeasible -> check_completeness_infeasible ctx
    | _ -> ());
    check_fixes ctx bp
  end;
  List.rev ctx.diags

let check_result model (r : Lp.Milp.result) =
  match r.Lp.Milp.cert with
  | None ->
      [
        Diag.make Diag.Error ~code:"CERT101" ~pass:pass_name ~loc:Diag.Global
          "solve carries no certificate (certificates off)";
      ]
  | Some c -> check (Lp.Model.to_raw model) c
