(* Root cutting planes (DESIGN.md §3j): Chvátal–Gomory rounds from the
   simplex tableau; each round applies its own most-violated candidates.

   The contract with the audit is the same as {!Presolve}'s: every cut
   this module emits carries a {!Cert.cut_deriv} and is pre-verified
   here in the exact arithmetic ({!Qd}) the audit re-runs (CERT109). The
   simplex tableau only *suggests* the CG multipliers; the aggregated
   row, its floors and the rounded rhs are all recomputed exactly from
   the cited multipliers and the original rows, so float drift in the tableau can cost us a cut but can never
   produce an invalid one. The CG aggregation runs on {!Qd.Acc}, an
   exact register that allocates nothing per term; the audit re-derives
   it on the plain {!Qd} fold. There is deliberately no division
   anywhere on the exact side — {!Qd} has none — which is why the CG
   step is the integer-rounding form (floor coefficients, floor rhs)
   rather than a scaled Gomory mixed-integer cut. *)

let viol_eps = 1e-6
let lam_drop = 1e-11  (* multipliers below this are noise: zero them *)
let lam_max = 1e7  (* dynamism guard: reject wildly scaled aggregations *)

let violation (c : Cert.cut) x =
  Array.fold_left
    (fun acc (j, v) -> acc +. (v *. x.(j)))
    (-.c.Cert.cut_rhs) c.Cert.cut_terms

(* ------------------------------------------------------------------ *)
(* Chvátal–Gomory separation                                           *)
(* ------------------------------------------------------------------ *)

(* The cited rows of one candidate, transposed: column [j]'s entries
   [(lambda_i, a_ij)] sit at [el]/[ec] positions [fill.(j) - cnt.(j)] to
   [fill.(j) - 1]. [cnt.(j)] and [fill.(j)] mean something only while
   [mark.(j) = stamp], so a candidate never has to clean up after
   itself. One domain's candidates share one scratch, as {!Simplex}'s
   pivots do. *)
type scratch = {
  mutable stamp : int;
  mutable mark : int array;
  mutable cnt : int array;
  mutable fill : int array;
  mutable cols : int array;  (** the candidate's columns, first-seen order *)
  mutable el : float array;
  mutable ec : float array;
  abar : Qd.Acc.t;  (** the aggregated column in hand *)
  rhs : Qd.Acc.t;  (** t + delta, the shifted rhs *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { stamp = 0; mark = [||]; cnt = [||]; fill = [||]; cols = [||];
        el = [||]; ec = [||]; abar = Qd.Acc.create (); rhs = Qd.Acc.create () })

let scratch n =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.mark < n then begin
    sc.mark <- Array.make n 0;
    sc.cnt <- Array.make n 0;
    sc.fill <- Array.make n 0;
    sc.cols <- Array.make n 0
  end;
  sc.stamp <- sc.stamp + 1;
  sc

let grow_entries sc len =
  if Array.length sc.el < len then begin
    let cap = Stdlib.max len (2 * Array.length sc.el) in
    sc.el <- Array.make cap 0.0;
    sc.ec <- Array.make cap 0.0
  end

(* List the support's columns in [sc.cols], first-seen order, counting
   each one's entries; returns the number of columns. A non-finite
   coefficient raises [Invalid_argument], as the exact aggregation
   always has. *)
let columns (raw : Model.raw) sc support =
  let nc = ref 0 in
  List.iter
    (fun (i, _) ->
      let row = raw.rows.(i) in
      for p = 0 to Array.length row - 1 do
        let j, c = row.(p) in
        if not (Float.is_finite c) then invalid_arg "Cutgen: non-finite coefficient";
        if sc.mark.(j) <> sc.stamp then begin
          sc.mark.(j) <- sc.stamp;
          sc.cnt.(j) <- 0;
          sc.cols.(!nc) <- j;
          incr nc
        end;
        sc.cnt.(j) <- sc.cnt.(j) + 1
      done)
    support;
  !nc

(* Fold [sum lambda_i rhs_i] into [sc.rhs] (a non-finite rhs raises
   [Invalid_argument]) and transpose the support's rows into [sc], once
   {!columns} has listed its [nc] columns. *)
let transpose (raw : Model.raw) sc support nc =
  Qd.Acc.clear sc.rhs;
  List.iter (fun (i, l) -> Qd.Acc.add_prod sc.rhs l raw.rhs.(i)) support;
  let pos = ref 0 in
  for p = 0 to nc - 1 do
    let j = sc.cols.(p) in
    sc.fill.(j) <- !pos;
    pos := !pos + sc.cnt.(j)
  done;
  grow_entries sc !pos;
  List.iter
    (fun (i, l) ->
      let row = raw.rows.(i) in
      for p = 0 to Array.length row - 1 do
        let j, c = row.(p) in
        let q = sc.fill.(j) in
        sc.el.(q) <- l;
        sc.ec.(q) <- c;
        sc.fill.(j) <- q + 1
      done)
    support

(* [t += (c - abar_j)·bound]: the rhs correction of rounding column [j]
   to [c] against [bound]. *)
let charge t abar c bound =
  Qd.Acc.add_prod t c bound;
  Qd.Acc.add_scaled t abar (-.bound)

(* The rounding of one aggregation, all of it exact: each column's
   [abar_j] in [sc.abar] in turn, the shifted rhs in [sc.rhs].

   Bound-shifted rounding (the generalization CERT109 re-derives): each
   integer column rounds to floor(abar_j) (charged to its finite lower
   bound) or ceil(abar_j) (charged to its finite upper bound), whichever
   keeps more violation at the LP point; continuous columns are dropped
   against the bound that makes the dropped term a relaxation. The exact
   rhs correction is delta = sum_j (c_j - abar_j)·bound_j, so the
   rounded rhs is floor(t + delta) — fractional bound charges are what
   lets the cut bite even when t itself is integral (binaries parked at
   their upper bounds). *)
let round (raw : Model.raw) ~lb ~ub ~x sc support nc =
  transpose raw sc support nc;
  let a = sc.abar and t = sc.rhs in
  let terms = ref [] in
  let valid = ref true in
  let p = ref 0 in
  while !valid && !p < nc do
    let j = sc.cols.(!p) in
    incr p;
    Qd.Acc.clear a;
    for q = sc.fill.(j) - sc.cnt.(j) to sc.fill.(j) - 1 do
      Qd.Acc.add_prod a sc.el.(q) sc.ec.(q)
    done;
    if not (Qd.Acc.is_zero a) then
      if raw.integer.(j) then begin
        let fi = Qd.Acc.floor_int a in
        if fi = Qd.Acc.no_floor then valid := false
        else if Qd.Acc.is_integer a then
          (* already integral: keep exactly, no charge *)
          (if fi <> 0 then terms := (j, float_of_int fi) :: !terms)
        else begin
          let f = float_of_int fi in
          let af = Qd.Acc.to_float a in
          let can_dn = Float.is_finite lb.(j) in
          let can_up = Float.is_finite ub.(j) in
          (* score = c_j·x_j - (c_j - abar_j)·bound_j, the column's
             contribution to (violation at x) *)
          let s_dn =
            if can_dn then (f *. x.(j)) -. ((f -. af) *. lb.(j))
            else Float.neg_infinity
          and s_up =
            if can_up then
              ((f +. 1.0) *. x.(j)) -. ((f +. 1.0 -. af) *. ub.(j))
            else Float.neg_infinity
          in
          if (not can_dn) && not can_up then valid := false
          else begin
            let up = s_up > s_dn in
            let c = if up then f +. 1.0 else f in
            charge t a c (if up then ub.(j) else lb.(j));
            if c <> 0.0 then terms := (j, c) :: !terms
          end
        end
      end
      else begin
        (* continuous: drop the column (c_j = 0); the dropped term
           -abar_j·x_j maxes at lb when abar_j > 0, at ub when
           abar_j < 0 — that bound must be finite *)
        let bound = if Qd.Acc.sign a > 0 then lb.(j) else ub.(j) in
        if Float.is_finite bound then charge t a 0.0 bound else valid := false
      end
  done;
  if not !valid then None
  else
    let di = Qd.Acc.floor_int t in
    if di = Qd.Acc.no_floor || Qd.Acc.is_integer t then
      None (* out of range, or an integral shifted rhs: no rounding gain *)
    else
      let d = float_of_int di in
      let terms = Array.of_list !terms in
      if Array.length terms = 0 then None
      else begin
        Array.sort (fun (j1, _) (j2, _) -> Int.compare j1 j2) terms;
        let cut =
          { Cert.cut_terms = terms; cut_rhs = d;
            cut_deriv = Cert.Cg (Array.of_list support) }
        in
        if violation cut x > viol_eps then Some cut else None
      end

(* A candidate's clamped support, built one multiplier at a time from
   the last row down, so it comes out consed in row order. Each
   multiplier is moved into the sign cone the audit enforces: >= 0 on
   [<=] rows, <= 0 on [>=] rows, free on [=] rows; noise is dropped. A
   wrong-sign multiplier is frac-shifted by an integer (Gomory's trick:
   adding an integer multiple of a row keeps the aggregation's
   fractional structure when the row data is integral, and the final
   violation check filters the cases where it is not) rather than
   clamped, which would break the tableau-row identity outright. Any
   multiplier past [lam_max] rejects the candidate. *)
type support = { mutable ok : bool; mutable rows : (int * float) list }

let offer (raw : Model.raw) s i l =
  if s.ok then begin
    let l =
      match raw.senses.(i) with
      | Model.Le -> if l < 0.0 then l -. Float.floor l else l
      | Model.Ge -> if l > 0.0 then l -. Float.ceil l else l
      | Model.Eq -> l
    in
    if not (Float.abs l < lam_drop) then begin
      if Float.abs l > lam_max || not (Float.is_finite l) then s.ok <- false
      else s.rows <- (i, l) :: s.rows
    end
  end

(* ------------------------------------------------------------------ *)
(* The separation pass's memory                                        *)
(* ------------------------------------------------------------------ *)

(* Both tables below compare floats by their bits. *)
let[@inline] bits v = Int64.to_int (Int64.bits_of_float v)
let[@inline] same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let[@inline] mix h v = (h * 31) + (v lxor (v lsr 32))

(* The candidate memo. A derivation reads its clamped support, the cited
   rows, and the integrality, box and [x] of the columns they touch,
   nothing else. Within one pass rows are only appended (an index always
   names the same row) and the box does not move, so a candidate whose
   support and [x] on its columns match an earlier one's, bit for bit,
   derives the same result, and the memo hands that back instead. It
   cannot change the applied cuts: [cg_cuts] returns the very list the
   derivations would, so [select] chooses from the same candidates. *)
type derived = {
  support : (int * float) list;
  xs : float array;  (** [x] on the support's columns, first-seen order *)
  cut : Cert.cut option;
}

(* The keys of the cuts {!select} has seen: normalized terms and rhs. *)
module Keys = Hashtbl.Make (struct
  type t = Cert.cut

  let equal (a : Cert.cut) (b : Cert.cut) =
    let ta = a.Cert.cut_terms and tb = b.Cert.cut_terms in
    same a.Cert.cut_rhs b.Cert.cut_rhs
    && Array.length ta = Array.length tb
    &&
    let rec go p =
      p < 0
      || (let j, v = ta.(p) and k, w = tb.(p) in
          j = k && same v w)
         && go (p - 1)
    in
    go (Array.length ta - 1)

  let hash (c : Cert.cut) =
    Hashtbl.hash
      (Array.fold_left
         (fun h (j, v) -> mix (mix h j) (bits v))
         (bits c.Cert.cut_rhs) c.Cert.cut_terms)
end)

type seen = { keys : unit Keys.t; memo : (int, derived) Hashtbl.t }

let seen () = { keys = Keys.create 64; memo = Hashtbl.create 64 }

(* The candidate of a clamped support, through the memo when there is
   one: the columns are listed (cheap) before the memo is asked, and
   only a miss pays for the exact rounding. *)
let derive ?memo (raw : Model.raw) ~lb ~ub ~x s =
  match s.rows with
  | _ when not s.ok -> None
  | [] -> None
  | support -> (
      let sc = scratch raw.n in
      let nc = columns raw sc support in
      match memo with
      | None -> round raw ~lb ~ub ~x sc support nc
      | Some memo -> (
          let h = ref 0 in
          List.iter (fun (i, l) -> h := mix (mix !h i) (bits l)) support;
          for p = 0 to nc - 1 do
            h := mix !h (bits x.(sc.cols.(p)))
          done;
          let matches d =
            List.equal (fun (i, l) (k, w) -> i = k && same l w) d.support support
            &&
            let rec go p = p < 0 || (same d.xs.(p) x.(sc.cols.(p)) && go (p - 1)) in
            go (nc - 1)
          in
          match List.find_opt matches (Hashtbl.find_all memo !h) with
          | Some d -> d.cut
          | None ->
              let xs = Array.init nc (fun p -> x.(sc.cols.(p))) in
              let cut = round raw ~lb ~ub ~x sc support nc in
              Hashtbl.add memo !h { support; xs; cut };
              cut))

(* One CG candidate from a multiplier suggestion [lam] (length = rows of
   [raw], which may already include earlier cuts). Returns [None] when
   the clamped aggregation cannot be rounded validly or yields nothing
   violated. *)
let cg_of_multipliers (raw : Model.raw) ~lb ~ub ~x lam =
  let s = { ok = true; rows = [] } in
  for i = Array.length lam - 1 downto 0 do
    offer raw s i lam.(i)
  done;
  derive raw ~lb ~ub ~x s

(* Candidates derived between two polls of the caller's budget: a wide
   candidate costs about 0.25 ms (XORR's MILP-map), so a round stops
   within a few milliseconds of the budget's end. *)
let poll_every = 8

(* An integer variable at most this far from an integer gets no
   candidate. *)
let frac_min = 0.005

(* CG round: one candidate per fractional basic integer variable, using
   the tableau row's multipliers as the aggregation suggestion. *)
let cg_cuts seen (raw : Model.raw) ~lb ~ub ~x ~multipliers ~budget =
  let out = ref [] and tried = ref 0 in
  let s = { ok = true; rows = [] } in
  let offer = offer raw s in
  let j = ref 0 in
  while !j < raw.n do
    let c = !j in
    incr j;
    if raw.integer.(c) then begin
      let frac = Float.abs (x.(c) -. Float.round x.(c)) in
      if frac > frac_min then begin
        s.ok <- true;
        s.rows <- [];
        if multipliers c offer then begin
          (match derive ~memo:seen.memo raw ~lb ~ub ~x s with
          | Some cut -> out := cut :: !out
          | None -> ());
          incr tried;
          if !tried mod poll_every = 0 && budget () then j := raw.n
        end
      end
    end
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Round selection                                                     *)
(* ------------------------------------------------------------------ *)

(* The printed key: [select]'s tie-break between equal violations. *)
let key (c : Cert.cut) =
  let b = Buffer.create 64 in
  Array.iter
    (fun (j, v) -> Buffer.add_string b (Printf.sprintf "%d:%h;" j v))
    c.Cert.cut_terms;
  Buffer.add_string b (Printf.sprintf "|%h" c.Cert.cut_rhs);
  Buffer.contents b

let select seen ~x ~max_cuts cands =
  (* [filter_map] walks the list in order, so the first of two duplicates
     is the one kept *)
  let scored =
    List.filter_map
      (fun c ->
        if Keys.mem seen.keys c then None
        else begin
          Keys.add seen.keys c ();
          let v = violation c x in
          if v > viol_eps then Some (v, lazy (key c), c) else None
        end)
      cands
  in
  let scored =
    List.sort
      (fun (v1, k1, _) (v2, k2, _) ->
        match Float.compare v2 v1 with
        | 0 -> String.compare (Lazy.force k1) (Lazy.force k2)
        | c -> c)
      scored
  in
  let chosen = List.filteri (fun i _ -> i < max_cuts) scored in
  (List.map (fun (_, _, c) -> c) chosen, List.length scored - List.length chosen)
