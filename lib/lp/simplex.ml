type status = Optimal | Infeasible | Unbounded | Iteration_limit | Time_limit

type result = {
  status : status;
  x : float array;
  objective : float;
  iterations : int;
}

let feas_eps = 1e-7
let cost_eps = 1e-7
let pivot_eps = 1e-8

(* Instrumentation (lib/obs): warm-restart accounting, additive only. *)
let c_resolve_pivots = Obs.Counter.get "simplex.resolve_pivots"
let c_resolve_warm = Obs.Counter.get "simplex.resolve_warm"
let c_resolve_cold = Obs.Counter.get "simplex.resolve_cold"
let c_resolve_cold_pivots = Obs.Counter.get "simplex.resolve_cold_pivots"

(* [simplex.resolve_cold.<reason>]: the cold rebuilds of each reason,
   which sum to [simplex.resolve_cold]. *)
let c_cold_reasons =
  List.map
    (fun r -> (r, Obs.Counter.get ("simplex.resolve_cold." ^ r)))
    [ "dual_infeasible"; "periodic"; "stale_basis"; "repair_limit"; "no_state";
      "unfixed" ]

(* [simplex.build_cells]: the rows × stored slots of every tableau
   {!build} fills. *)
let c_build_cells = Obs.Counter.get "simplex.build_cells"

type vstat = Basic of int (* row *) | At_lower | At_upper

(* Internal working problem. All columns are shifted so the *original*
   (build-time) lower bound maps to 0; [lo]/[hi] are the current working
   bounds in that shifted space, so a warm restart can install tightened
   node bounds without rebuilding the tableau (nonbasic-at-lower sits at
   [lo], not at 0).

   The tableau is condensed: every basic column is a unit vector (1 in
   its own row, 0 elsewhere), so only the nonbasic columns are stored
   ([n] of them, [cols - m], as there is one slack per row). A
   structural column that the solved system fixes ([raw.lb = raw.ub],
   and the build's bounds keep it there) is stored out: it is a
   constant, nonbasic at shifted value 0 with [lo = hi = 0], so it never
   enters, no ratio test takes it, {!recompute_beta} skips it and its
   rhs contribution is folded into [b] by the lower-bound shift. The
   other [ns] nonbasic columns are stored, in slots [0 .. ns - 1].
   [slot] and [var_of] tie each stored column to its slot; a pivot
   hands the entering column's slot to the leaving one. The stored
   columns take their slots in increasing column order at build time;
   on a tableau that stored every column a stored-out column would keep
   its slot for good, as it never enters, so every slot scan visits the
   stored columns in the order it would there, and every entry gets the
   same float operations. A row array may be longer than [ns] (a cold
   rebuild reuses the previous tableau's rows); slots from [ns] on are
   never read. Likewise the per-row arrays may be longer than [m] and
   the per-column ones than [cols] ({!add_rows} grows them by
   capacity); entries past those are never read.

   Each pivot touches only nonzeros: the entering column's are gathered
   once ({!gather_col}), the pivot row's once ({!gather_row}), into the
   domain's {!scratch}, and every step of the pivot reads those lists. *)
type tab = {
  m : int;  (** rows *)
  n : int;  (** structural columns, and nonbasic columns *)
  ns : int;  (** stored slots: the nonbasic columns not stored out *)
  cols : int;  (** structural + slack columns, [n + m] *)
  a : float array array;
      (** m x ns condensed tableau, kept row-reduced: row [i] holds
          stored column [c] at [slot.(c)] *)
  slot : int array;
      (** length [cols]: storage slot of a stored column, -1 for a basic
          or stored-out one *)
  var_of : int array;
      (** length [n]: the column held in each of the [ns] slots, then
          the stored-out columns in increasing order *)
  b : float array;
      (** B⁻¹·(shifted rhs): transformed alongside [a] by every pivot so
          basic values can be recomputed exactly after bound changes *)
  beta : float array;  (** current value of the basic variable of each row *)
  lo : float array;  (** working lower bound (shifted), always finite *)
  hi : float array;  (** working upper bound (shifted), may be +inf *)
  cost : float array;  (** installed objective coefficients *)
  z : float array;  (** reduced costs, per column (0 on basic columns) *)
  stat : vstat array;
  basis : int array;  (** column basic in each row *)
  w : float array;
      (** dual steepest-edge weight of each row, [‖e_iᵀB⁻¹‖²]: row [i]'s
          entries at the nonbasic slack slots squared and summed, plus 1
          when its basic column is a slack ({!row_reduce} keeps it) *)
  sign : float array;
      (** per-row build-time normalization: -1 where a [>=] row was negated
          into [<=] form, +1 otherwise. Needed to translate slack-column
          reduced costs back into multipliers on the *original* rows for
          certificate extraction ({!duals}, Farkas rays). *)
}

let value t j =
  match t.stat.(j) with
  | Basic r -> t.beta.(r)
  | At_lower -> t.lo.(j)
  | At_upper -> t.hi.(j)

(* Index lists that one pivot (or one {!recompute_beta}) fills and then
   reads. Nothing in them outlives the operation, so every tableau a
   domain works on shares that domain's arrays, which grow to the
   largest tableau seen and are then never allocated again. *)
type scratch = {
  mutable rs : int array;
      (** length at least [ns]: the slots where the pivot row is nonzero,
          in increasing order ({!gather_row}) *)
  mutable nz : int array;
      (** length at least [ns]: the pivot row's nonzero slots other than
          the entering column's ({!row_reduce}: structural columns' slots
          from index 0 up, slacks' from [ns - 1] down), the dual ratio
          test's candidate columns in increasing index ({!dual_repair}),
          or the slots of the nonbasic columns with a nonzero value
          ({!recompute_beta}) *)
  mutable nzv : float array;
      (** beside [nz]: the pivot row's values after division, the
          candidates' pivot-row entries, or the nonbasic values *)
  mutable ci : int array;
      (** length at least [m]: the rows where the entering column is
          nonzero, in increasing order ({!gather_col}) *)
  mutable cv : float array;  (** beside [ci]: the column's entries there *)
  mutable inf : int array;
      (** length at least [m]: the rows whose basic variable is out of
          bounds, in no particular order ({!dual_repair}); the first
          [ninf] entries are live *)
  mutable inf_pos : int array;
      (** length at least [m]: each row's index in [inf], or -1 *)
  mutable ninf : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { rs = [||]; nz = [||]; nzv = [||]; ci = [||]; cv = [||]; inf = [||];
        inf_pos = [||]; ninf = 0 })

(* The calling domain's scratch, grown to fit [t]. *)
let scratch t =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.nz < t.ns then begin
    sc.rs <- Array.make t.ns 0;
    sc.nz <- Array.make t.ns 0;
    sc.nzv <- Array.make t.ns 0.0
  end;
  if Array.length sc.ci < t.m then begin
    sc.ci <- Array.make t.m 0;
    sc.cv <- Array.make t.m 0.0;
    sc.inf <- Array.make t.m 0;
    sc.inf_pos <- Array.make t.m (-1)
  end;
  sc

(* Recompute reduced costs z_j = c_j - c_B . a_j from scratch, row by
   row: each z_j still subtracts its terms in increasing row order. A
   basic column has one term, its own unit entry. *)
let recompute_z t =
  Array.blit t.cost 0 t.z 0 t.cols;
  for i = 0 to t.m - 1 do
    let bi = t.basis.(i) in
    let cb = t.cost.(bi) in
    if cb <> 0.0 then begin
      let row = t.a.(i) in
      for s = 0 to t.ns - 1 do
        let aij = row.(s) in
        if aij <> 0.0 then begin
          let j = t.var_of.(s) in
          t.z.(j) <- t.z.(j) -. (cb *. aij)
        end
      done;
      t.z.(bi) <- t.z.(bi) -. cb
    end
  done

(* Recompute basic values beta = B⁻¹b - Σ_{nonbasic} (B⁻¹A_j)·x_j from the
   maintained [b] column — removes incremental drift across warm restarts.
   Row by row over the nonbasic columns with x_j <> 0, in increasing j:
   the [ns] slots hold every nonbasic column but the stored-out ones,
   whose value is 0, so the few with a nonzero value are read off them
   and sorted by column. *)
let recompute_beta t =
  let sc = scratch t in
  let k = ref 0 in
  for s = 0 to t.ns - 1 do
    let j = t.var_of.(s) in
    if value t j <> 0.0 then begin
      sc.nz.(!k) <- j;
      incr k
    end
  done;
  if !k > 1 then begin
    let hits = Array.sub sc.nz 0 !k in
    Array.sort Int.compare hits;
    Array.blit hits 0 sc.nz 0 !k
  end;
  for p = 0 to !k - 1 do
    let j = sc.nz.(p) in
    sc.nz.(p) <- t.slot.(j);
    sc.nzv.(p) <- value t j
  done;
  for i = 0 to t.m - 1 do
    let row = t.a.(i) in
    let acc = ref t.b.(i) in
    for p = 0 to !k - 1 do
      let aij = row.(sc.nz.(p)) in
      if aij <> 0.0 then acc := !acc -. (aij *. sc.nzv.(p))
    done;
    t.beta.(i) <- !acc
  done

(* Choose an entering column. Dantzig by default; Bland when [bland]. *)
let entering t ~bland =
  let best = ref (-1) and best_score = ref cost_eps in
  let consider j score =
    if bland then (if !best = -1 && score > cost_eps then best := j)
    else if score > !best_score then begin
      best := j;
      best_score := score
    end
  in
  (try
     for j = 0 to t.cols - 1 do
       (if t.hi.(j) -. t.lo.(j) > 0.0 then
          match t.stat.(j) with
          | Basic _ -> ()
          | At_lower -> consider j (-.t.z.(j))
          | At_upper -> consider j t.z.(j)
        (* fixed vars (lo = hi) never enter *));
       if bland && !best >= 0 then raise Exit
     done
   with Exit -> ());
  !best

exception Unbounded_exc

(* Gather the nonzeros of the entering column [j] into [sc.ci]/[sc.cv]
   in increasing row order; returns their count. The ratio test, the basic
   value update and {!row_reduce} then visit only those rows: a row
   where the column is zero is left unchanged by each of them, up to
   the sign of a zero. The values are read before any row changes,
   which is what the row loop of {!row_reduce} read too: reducing a row
   writes that row only. Every row is written to the next free place
   and kept only when nonzero, so the loop has no branch to mispredict
   (about a fifth less time on GSM's MILP-map); {!gather_row} does the
   same. *)
let gather_col t sc j =
  let s = t.slot.(j) in
  let ci = sc.ci and cv = sc.cv in
  let k = ref 0 in
  for i = 0 to t.m - 1 do
    let v = Array.unsafe_get (Array.unsafe_get t.a i) s in
    Array.unsafe_set ci !k i;
    Array.unsafe_set cv !k v;
    k := !k + Bool.to_int (v <> 0.0)
  done;
  !k

(* Gather the slots where row [r] is nonzero into [sc.rs], in increasing
   order; returns their count. The pivot row does not change between
   this and {!row_reduce}, which walks the list instead of the row, and
   the dual ratio test takes its candidates from it. *)
let gather_row t sc r =
  let row = t.a.(r) and rs = sc.rs in
  let k = ref 0 in
  for s = 0 to t.ns - 1 do
    Array.unsafe_set rs !k s;
    k := !k + Bool.to_int (Array.unsafe_get row s <> 0.0)
  done;
  !k

(* Ratio test over the [k] gathered rows: entering j moves by dir * t.
   Returns (t*, leaving row or -1 for a bound flip). *)
let ratio_test t sc j ~dir k =
  let range = t.hi.(j) -. t.lo.(j) in
  let tmax = ref (if Float.is_finite range then range else infinity) in
  let row = ref (-1) in
  for p = 0 to k - 1 do
    let i = sc.ci.(p) in
    let delta = dir *. sc.cv.(p) in
    if delta > pivot_eps then begin
      let ti = (t.beta.(i) -. t.lo.(t.basis.(i))) /. delta in
      let ti = if ti < 0.0 then 0.0 else ti in
      if ti < !tmax -. 1e-12 then begin
        tmax := ti;
        row := i
      end
    end
    else if delta < -.pivot_eps then begin
      let ub = t.hi.(t.basis.(i)) in
      if Float.is_finite ub then begin
        let ti = (ub -. t.beta.(i)) /. -.delta in
        let ti = if ti < 0.0 then 0.0 else ti in
        if ti < !tmax -. 1e-12 then begin
          tmax := ti;
          row := i
        end
      end
    end
  done;
  if Float.is_finite !tmax then (!tmax, !row) else raise Unbounded_exc

let do_bound_flip t sc j ~dir ~tstar k =
  for p = 0 to k - 1 do
    let i = sc.ci.(p) in
    t.beta.(i) <- t.beta.(i) -. (dir *. sc.cv.(p) *. tstar)
  done;
  t.stat.(j) <- (match t.stat.(j) with
    | At_lower -> At_upper
    | At_upper -> At_lower
    | Basic _ -> assert false)

(* Floor of a dual steepest-edge weight: rounding in the incremental
   update must not drive a weight to zero or below. *)
let w_floor = 1e-12

(* Row [i]'s weight summed afresh: its entries at the nonbasic slack
   slots squared, plus 1 when its basic column is a slack. *)
let fresh_weight t i =
  let row = t.a.(i) in
  let acc = ref (if t.basis.(i) >= t.n then 1.0 else 0.0) in
  for s = 0 to t.ns - 1 do
    if t.var_of.(s) >= t.n then acc := !acc +. (row.(s) *. row.(s))
  done;
  !acc

(* Row reduction making column j a unit vector at row r; transforms [b],
   the reduced costs and the steepest-edge weights alongside. Shared by
   primal and dual pivots.

   Sparse in both the pivot row and the entering column. The pivot row's
   [kr] nonzero slots, gathered by {!gather_row} into [sc.rs] in
   increasing order, are divided and split into [sc.nz]/[sc.nzv], and
   every [row_i -= f·prow] and the reduced-cost update run over that
   list only (pivot rows are about 9-15% nonzero on the registry's
   MILPs). The rows updated are the [kc] rows other than [r] that
   {!gather_col} found nonzero in column j, with [f] read from [sc.cv]
   (entering columns are about 13% nonzero on GSM's MILP-map). A zero
   entry of either leaves its target unchanged up to the sign of a zero.
   The slots in [rs] and [nz] are distinct and below [ns], and the rows in
   [ci] distinct and below [m], which is what makes the unchecked
   accesses safe.

   Column j turns basic and drops out of storage; the leaving column l
   was the unit vector of row r and takes over j's slot. Its new entries
   are what a sweep over the full tableau would compute for it: [1/piv]
   in row r and [0 - f·(1/piv)] in every row i with [f = a_ij <> 0]. A
   row with [f = 0] already holds a zero in that slot. So every nonzero
   entry gets the same float operations in the same order as on a
   tableau that stores all columns.

   Row i of B⁻¹ is row i at the nonbasic slack slots (plus its own unit
   entry when its basic column is a slack), so only slack slots move a
   weight. The gathered list keeps them apart from the structural slots:
   [w_r] is summed afresh from the divided pivot row, and each updated
   row adds [new² - old²] over the slack slots as it rewrites them, less
   [f²] when the entering column was a slack nonbasic in that slot, plus
   the square of its new slot-[s] entry when the leaving column is a
   slack. Rows with [f = 0] keep their weights. *)
let row_reduce t sc j r kc kr =
  let n = t.n and ns = t.ns in
  let s = t.slot.(j) in
  let l = t.basis.(r) in
  let prow = t.a.(r) in
  let piv = prow.(s) in
  let inv = 1.0 /. piv in
  let rs = sc.rs and nz = sc.nz and nzv = sc.nzv and var_of = t.var_of in
  let k = ref 0 and ks = ref ns in
  let wr = ref ((if j >= n then 1.0 else 0.0) +. if l >= n then inv *. inv else 0.0) in
  for p = 0 to kr - 1 do
    let c = Array.unsafe_get rs p in
    if c <> s then begin
      let v = Array.unsafe_get prow c /. piv in
      Array.unsafe_set prow c v;
      if Array.unsafe_get var_of c < n then begin
        Array.unsafe_set nz !k c;
        Array.unsafe_set nzv !k v;
        incr k
      end
      else begin
        decr ks;
        Array.unsafe_set nz !ks c;
        Array.unsafe_set nzv !ks v;
        wr := !wr +. (v *. v)
      end
    end
  done;
  prow.(s) <- inv;
  let k = !k and ks = !ks in
  let b = t.b and w = t.w in
  w.(r) <- (if !wr > w_floor then !wr else w_floor);
  b.(r) <- b.(r) /. piv;
  let br = b.(r) in
  for pc = 0 to kc - 1 do
    let i = Array.unsafe_get sc.ci pc in
    if i <> r then begin
      let row_i = Array.unsafe_get t.a i in
      let f = Array.unsafe_get sc.cv pc in
      (* row_i -= f·prow over the gathered structural slots, unrolled
         four ways; written out here rather than called, so [f] stays
         unboxed *)
      let p = ref 0 in
      while !p + 3 < k do
        let q = !p in
        let c0 = Array.unsafe_get nz q
        and c1 = Array.unsafe_get nz (q + 1)
        and c2 = Array.unsafe_get nz (q + 2)
        and c3 = Array.unsafe_get nz (q + 3) in
        Array.unsafe_set row_i c0
          (Array.unsafe_get row_i c0 -. (f *. Array.unsafe_get nzv q));
        Array.unsafe_set row_i c1
          (Array.unsafe_get row_i c1 -. (f *. Array.unsafe_get nzv (q + 1)));
        Array.unsafe_set row_i c2
          (Array.unsafe_get row_i c2 -. (f *. Array.unsafe_get nzv (q + 2)));
        Array.unsafe_set row_i c3
          (Array.unsafe_get row_i c3 -. (f *. Array.unsafe_get nzv (q + 3)));
        p := q + 4
      done;
      for q = !p to k - 1 do
        let c = Array.unsafe_get nz q in
        Array.unsafe_set row_i c
          (Array.unsafe_get row_i c -. (f *. Array.unsafe_get nzv q))
      done;
      (* the slack slots, and the weight change they make *)
      let dw = ref (if j >= n then 0.0 -. (f *. f) else 0.0) in
      for q = ks to ns - 1 do
        let c = Array.unsafe_get nz q in
        let old = Array.unsafe_get row_i c in
        let v = old -. (f *. Array.unsafe_get nzv q) in
        Array.unsafe_set row_i c v;
        dw := !dw +. ((v *. v) -. (old *. old))
      done;
      let e = 0.0 -. (f *. inv) in
      Array.unsafe_set row_i s e;
      let dw = if l >= n then !dw +. (e *. e) else !dw in
      let wi = Array.unsafe_get w i +. dw in
      Array.unsafe_set w i (if wi > w_floor then wi else w_floor);
      b.(i) <- b.(i) -. (f *. br)
    end
  done;
  let z = t.z in
  let zf = z.(j) in
  if zf <> 0.0 then begin
    for p = 0 to k - 1 do
      let c = var_of.(nz.(p)) in
      z.(c) <- z.(c) -. (zf *. nzv.(p))
    done;
    for p = ks to ns - 1 do
      let c = var_of.(nz.(p)) in
      z.(c) <- z.(c) -. (zf *. nzv.(p))
    done;
    z.(l) <- z.(l) -. (zf *. inv);
    z.(j) <- 0.0
  end;
  var_of.(s) <- l;
  t.slot.(l) <- s;
  t.slot.(j) <- -1;
  t.basis.(r) <- j;
  t.stat.(j) <- Basic r

let do_pivot t sc j r ~dir ~tstar k =
  let x_old = match t.stat.(j) with
    | At_lower -> t.lo.(j)
    | At_upper -> t.hi.(j)
    | Basic _ -> assert false
  in
  let s = t.slot.(j) in
  let x_new = x_old +. (dir *. tstar) in
  for p = 0 to k - 1 do
    let i = sc.ci.(p) in
    if i <> r then t.beta.(i) <- t.beta.(i) -. (dir *. sc.cv.(p) *. tstar)
  done;
  t.beta.(r) <- x_new;
  (* Leaving variable parks at the bound it hit. *)
  let leaving = t.basis.(r) in
  let delta_r = dir *. t.a.(r).(s) in
  t.stat.(leaving) <- (if delta_r > 0.0 then At_lower else At_upper);
  row_reduce t sc j r k (gather_row t sc r)

(* Pivots after which both simplex phases switch to Bland's rule, which
   cannot cycle; [-1] when [bland] asks for it from the first pivot. *)
let bland_after t ~bland = if bland then -1 else max 200 (10 * (t.m + t.cols))

(* Run pivots until optimal/unbounded/iteration cap/deadline. Returns
   iterations. The cap and the deadline are checked only when a column
   would enter, so an already optimal basis is [Optimal] at any budget.
   The deadline is polled every 64 pivots — fine-grained enough that one
   pathological node LP cannot overshoot the MILP budget by more than a
   sliver, cheap enough to be invisible in profiles. *)
let optimize ?(bland = false) t ~max_iters ~iters_used ~deadline =
  let sc = scratch t in
  let iters = ref iters_used in
  let bland_after = bland_after t ~bland in
  let status = ref Optimal in
  if Resilience.Fault.fires "simplex.cycle" then status := Iteration_limit
  else
  (try
     let continue_ = ref true in
     while !continue_ do
       let j = entering t ~bland:(!iters - iters_used > bland_after) in
       if j < 0 then continue_ := false
       else if !iters >= max_iters then begin
         status := Iteration_limit;
         continue_ := false
       end
       else if
         (!iters - iters_used) land 63 = 0
         && Resilience.Deadline.expired deadline
       then begin
         status := Time_limit;
         continue_ := false
       end
       else begin
         incr iters;
         let dir = match t.stat.(j) with
           | At_lower -> 1.0
           | At_upper -> -1.0
           | Basic _ -> assert false
         in
         let k = gather_col t sc j in
         let tstar, r = ratio_test t sc j ~dir k in
         if r < 0 then do_bound_flip t sc j ~dir ~tstar k
         else do_pivot t sc j r ~dir ~tstar k
       end
     done
   with Unbounded_exc -> status := Unbounded);
  (!status, !iters)

(* Dual pivot: the basic variable of row r is out of bounds; entering
   column j moves until that variable lands exactly on [target] (its
   violated bound). Dual feasibility of z is preserved by the caller's
   ratio test. [kr] is row r's {!gather_row} count. Returns the
   {!gather_col} count: the rows left in [sc.ci] are the only ones whose
   basic value, weight or basic column the pivot changed. *)
let do_dual_pivot t sc j r kr ~target ~below =
  let x_old = match t.stat.(j) with
    | At_lower -> t.lo.(j)
    | At_upper -> t.hi.(j)
    | Basic _ -> assert false
  in
  let k = gather_col t sc j in
  let dx = (t.beta.(r) -. target) /. t.a.(r).(t.slot.(j)) in
  for p = 0 to k - 1 do
    let i = sc.ci.(p) in
    if i <> r then t.beta.(i) <- t.beta.(i) -. (sc.cv.(p) *. dx)
  done;
  t.beta.(r) <- x_old +. dx;
  let leaving = t.basis.(r) in
  t.stat.(leaving) <- (if below then At_lower else At_upper);
  row_reduce t sc j r k kr;
  k

(* Whether row [i]'s basic variable is out of bounds by more than
   [feas_eps]. *)
let violated t i =
  let bv = t.basis.(i) in
  t.lo.(bv) -. t.beta.(i) > feas_eps || t.beta.(i) -. t.hi.(bv) > feas_eps

(* Put row [i] into the violated set [sc.inf] or take it out, by
   {!violated}. *)
let recheck t sc i =
  let p = sc.inf_pos.(i) in
  if violated t i then begin
    if p < 0 then begin
      sc.inf.(sc.ninf) <- i;
      sc.inf_pos.(i) <- sc.ninf;
      sc.ninf <- sc.ninf + 1
    end
  end
  else if p >= 0 then begin
    let last = sc.inf.(sc.ninf - 1) in
    sc.inf.(p) <- last;
    sc.inf_pos.(last) <- p;
    sc.inf_pos.(i) <- -1;
    sc.ninf <- sc.ninf - 1
  end

(* Dual simplex: starting from a dual-feasible basis (the slack basis of
   {!from_slack_basis}, or an optimal parent LP's, whose reduced costs
   are untouched by bound changes), repair primal feasibility. Terminates
   with [Optimal] (primal feasible — usually a handful of pivots for a
   single branched binary), [Infeasible] (a violated row with no sign-compatible
   entering column proves the box empty), or a budget status.

   The leaving row is the steepest one, by exact dual steepest edge
   (Forrest & Goldfarb 1992): among the rows violated by more than
   [feas_eps], the one with the largest [viol² / w_i], where [w_i =
   ‖e_iᵀB⁻¹‖²] is the row's maintained weight; the lowest such row wins
   a tie. Ratio ties go to the larger pivot, until [bland_after] pivots;
   from then on Bland's rule holds (the violated row whose basic column
   has the smallest index, and the smallest column index among ratio
   ties), so a degenerate repair cannot cycle.

   Pricing runs over the violated rows only. One scan of all rows fills
   the set ([sc.inf]) when the repair starts; after each pivot only the
   rows {!gather_col} returned are checked again, as no other row's
   basic value, weight or basic column moved. Bland's rule keeps its
   full scan. The pivot row is gathered once ({!gather_row}): the ratio
   test reads its candidates from that list and {!row_reduce} walks it. *)
let dual_repair ?(bland = false) t ~max_iters ~iters_used ~deadline =
  let sc = scratch t in
  let iters = ref iters_used in
  let bland_after = bland_after t ~bland in
  let status = ref Optimal in
  let infeas_row = ref None in
  let continue_ = ref true in
  sc.ninf <- 0;
  for i = 0 to t.m - 1 do
    sc.inf_pos.(i) <- -1;
    recheck t sc i
  done;
  while !continue_ do
    let bland = !iters - iters_used > bland_after in
    let r = ref (-1) and below = ref false in
    if not bland then begin
      (* steepest row *)
      let best = ref 0.0 in
      for p = 0 to sc.ninf - 1 do
        let i = sc.inf.(p) in
        let bv = t.basis.(i) in
        let under = t.lo.(bv) -. t.beta.(i) in
        let below_i = under > feas_eps in
        let viol = if below_i then under else t.beta.(i) -. t.hi.(bv) in
        let score = viol *. viol /. t.w.(i) in
        if score > !best || (score = !best && i < !r) then begin
          r := i;
          best := score;
          below := below_i
        end
      done
    end
    else
      (* the violated row whose basic column has the smallest index *)
      for i = 0 to t.m - 1 do
        let bv = t.basis.(i) in
        if !r < 0 || bv < t.basis.(!r) then
          if t.lo.(bv) -. t.beta.(i) > feas_eps then begin r := i; below := true end
          else if t.beta.(i) -. t.hi.(bv) > feas_eps then begin
            r := i;
            below := false
          end
      done;
    if !r < 0 then continue_ := false
    else if !iters >= max_iters then begin
      status := Iteration_limit;
      continue_ := false
    end
    else if
      (!iters - iters_used) land 63 = 0 && Resilience.Deadline.expired deadline
    then begin
      status := Time_limit;
      continue_ := false
    end
    else begin
      let r = !r and below = !below in
      let arow = t.a.(r) in
      (* entering column: dual ratio test, |z_j / a_rj| minimal keeps z
         dual feasible; ties go to the larger pivot for stability, or
         under Bland to the first (smallest) column. Only a nonzero slot
         of row r can hold a candidate, so they are read from the
         gathered row. The tie rule depends on the order of the scan and
         slots leave column order after the first pivot, so the
         sign-compatible candidates are insertion-sorted by column into
         [nz]/[nzv] and scanned from there. *)
      let kr = gather_row t sc r in
      let rs = sc.rs and nz = sc.nz and nzv = sc.nzv in
      let kc = ref 0 in
      for p = 0 to kr - 1 do
        let s = Array.unsafe_get rs p in
        let arj = Array.unsafe_get arow s in
        if Float.abs arj > pivot_eps then begin
          let j = t.var_of.(s) in
          let ok =
            t.hi.(j) -. t.lo.(j) > 0.0
            &&
            match t.stat.(j) with
            | At_lower -> if below then arj < 0.0 else arj > 0.0
            | _ -> if below then arj > 0.0 else arj < 0.0
          in
          if ok then begin
            let p = ref !kc in
            while !p > 0 && nz.(!p - 1) > j do
              nz.(!p) <- nz.(!p - 1);
              nzv.(!p) <- nzv.(!p - 1);
              decr p
            done;
            nz.(!p) <- j;
            nzv.(!p) <- arj;
            incr kc
          end
        end
      done;
      let q = ref (-1) and best = ref infinity and best_a = ref 0.0 in
      for p = 0 to !kc - 1 do
        let j = nz.(p) and arj = nzv.(p) in
        let ratio = Float.abs (t.z.(j) /. arj) in
        if
          ratio < !best -. 1e-12
          || (not bland) && ratio < !best +. 1e-12
             && Float.abs arj > Float.abs !best_a
        then begin
          q := j;
          best := ratio;
          best_a := arj
        end
      done;
      if !q < 0 then begin
        status := Infeasible;
        infeas_row := Some (r, below);
        continue_ := false
      end
      else begin
        incr iters;
        let target =
          if below then t.lo.(t.basis.(r)) else t.hi.(t.basis.(r))
        in
        let k = do_dual_pivot t sc !q r kr ~target ~below in
        for p = 0 to k - 1 do
          recheck t sc sc.ci.(p)
        done
      end
    end
  done;
  (!status, !iters, !infeas_row)

(* ------------------------------------------------------------------ *)
(* Build / solve                                                       *)
(* ------------------------------------------------------------------ *)

(* First variable whose bounds cross, if any. *)
let crossed_bounds n lbv ubv =
  let crossed = ref (-1) in
  (try
     for j = 0 to n - 1 do
       if ubv.(j) < lbv.(j) -. feas_eps then begin
         crossed := j;
         raise Exit
       end
     done
   with Exit -> ());
  !crossed

let infeasible_result n =
  { status = Infeasible; x = Array.make n 0.0; objective = 0.0; iterations = 0 }

(* Whether column [j] is stored out of a tableau built under [lbv]/[ubv]:
   the system fixes it and the bounds keep it at that value. *)
let stored_out (raw : Model.raw) lbv ubv j =
  let v = raw.lb.(j) in
  raw.ub.(j) = v && lbv.(j) = v && ubv.(j) = v

(* Build the shifted tableau for [raw] under bounds [lbv]/[ubv] on the
   slack basis, one condensed row at a time: every structural column is
   nonbasic at its lower bound and every row's slack is basic, at
   whatever value the shifted rhs gives it. The stored columns take
   slots [0 .. ns - 1] in increasing order; the stored-out ones follow
   them in [var_of], and every row's rhs is still shifted over all its
   terms. [reuse] is a tableau about to be dropped: when its per-row
   arrays hold [m] rows (capacity from {!reserve_rows} counts) every
   array of it is refilled, and each row array wherever it is long
   enough, so a cold rebuild inside a tree search allocates nothing in
   proportion to the model. [z] and [beta] are left to
   {!from_slack_basis}, which recomputes both whole. *)
let build ?reuse (raw : Model.raw) lbv ubv =
  let n = raw.n in
  let m = Array.length raw.rows in
  let cols = n + m in
  let ns = ref n in
  for j = 0 to n - 1 do
    if stored_out raw lbv ubv j then decr ns
  done;
  let ns = !ns in
  let t =
    match reuse with
    | Some o when o.n = n && Array.length o.b >= m -> { o with m; ns; cols }
    | _ ->
        let f len x = Array.make len x in
        { m; n; ns; cols; a = f m [||]; slot = f cols 0; var_of = f n 0
        ; b = f m 0.0; beta = f m 0.0; lo = f cols 0.0; hi = f cols 0.0
        ; cost = f cols 0.0; z = f cols 0.0; stat = f cols At_lower
        ; basis = f m 0; w = f m 1.0; sign = f m 1.0 }
  in
  Array.fill t.lo 0 cols 0.0;
  Array.fill t.cost 0 cols 0.0;
  let live = ref 0 and out = ref ns in
  for j = 0 to n - 1 do
    t.stat.(j) <- At_lower;
    t.hi.(j) <- ubv.(j) -. lbv.(j);
    if stored_out raw lbv ubv j then begin
      t.slot.(j) <- -1;
      t.var_of.(!out) <- j;
      incr out
    end
    else begin
      t.slot.(j) <- !live;
      t.var_of.(!live) <- j;
      incr live
    end
  done;
  Obs.Counter.incr ~by:(m * ns) c_build_cells;
  (* Normalize rows: >= becomes <= (negated); compute shifted rhs. *)
  for i = 0 to m - 1 do
    let sense : Model.sense = raw.senses.(i) in
    let sign = match sense with Model.Ge -> -1.0 | Model.Le | Model.Eq -> 1.0 in
    let c = n + i in
    t.slot.(c) <- -1;
    t.stat.(c) <- Basic i;
    t.hi.(c) <- (match sense with Model.Eq -> 0.0 | Model.Le | Model.Ge -> infinity);
    t.basis.(i) <- c;
    t.sign.(i) <- sign;
    t.w.(i) <- 1.0;
    let acc = ref (sign *. raw.rhs.(i)) in
    Array.iter (fun (j, c) -> acc := !acc -. (sign *. c *. lbv.(j))) raw.rows.(i);
    t.b.(i) <- !acc;
    if Array.length t.a.(i) >= ns then Array.fill t.a.(i) 0 ns 0.0
    else t.a.(i) <- Array.make ns 0.0;
    let row = t.a.(i) in
    Array.iter
      (fun (j, c) ->
        let s = t.slot.(j) in
        if s >= 0 then row.(s) <- row.(s) +. (sign *. c))
      raw.rows.(i)
  done;
  t

(* ------------------------------------------------------------------ *)
(* Certificate extraction                                              *)
(* ------------------------------------------------------------------ *)

(* Multipliers on the *original* model rows, in the Lagrangian convention
   the audit re-checks exactly: a vector [u] with [u_i >= 0] on [<=] rows,
   [u_i <= 0] on [>=] rows and free on [=] rows yields the safe bound
   [-u·b + Σ_j min over the box of (c + Aᵀu)_j·x_j]. The slack column of
   row [i] carries exactly [(B⁻¹)_{·,i}], so its reduced cost is [-y_i];
   unwinding the [>=] normalization gives [u_i = sign_i·z.(n+i)], the
   optimality duals once the clean-up has run on the full cost row. *)
let row_multipliers t = Array.init t.m (fun i -> t.sign.(i) *. t.z.(t.n + i))

(* [s·sign_i·T_r(slack_i)] for every row i: row [r] of the reduced
   tableau read off the slack columns, where a basic slack is the unit
   vector of its own row. *)
let slack_multipliers t r s =
  let row = t.a.(r) in
  let u = Array.make t.m 0.0 in
  for i = 0 to t.m - 1 do
    let e =
      match t.stat.(t.n + i) with
      | Basic r' -> if r' = r then 1.0 else 0.0
      | At_lower | At_upper -> row.(t.slot.(t.n + i))
    in
    u.(i) <- s *. t.sign.(i) *. e
  done;
  u

(* Farkas ray from a dual-repair failure: row [r] of B⁻¹ read off the
   slack columns proves the box empty (no sign-compatible entering column
   means the basic variable's bound violation cannot be repaired within
   the box); negated when the variable overshot its upper bound. *)
let farkas_of_row t (r, below) =
  slack_multipliers t r (if below then 1.0 else -1.0)

(* Every from-scratch LP starts on the slack basis with each structural
   column at the bound its cost prefers: at its lower bound, or at its
   upper bound when its cost is negative. That basis is dual feasible, so
   the dual simplex repairs primal feasibility and the primal simplex
   cleans up. A negative-cost column with no upper bound has no bound to
   prefer; its cost is zeroed for the dual phase and restored for the
   clean-up. Returns a Farkas ray alongside [Infeasible]. *)
let from_slack_basis ~bland t (raw : Model.raw) ~max_iters ~deadline =
  let relaxed = ref false in
  for j = 0 to t.n - 1 do
    let c = raw.obj.(j) in
    if c >= 0.0 then t.cost.(j) <- c
    else if Float.is_finite t.hi.(j) then begin
      t.cost.(j) <- c;
      t.stat.(j) <- At_upper
    end
    else relaxed := true
  done;
  recompute_z t;
  recompute_beta t;
  let status, iters, bad_row =
    dual_repair ~bland t ~max_iters ~iters_used:0 ~deadline
  in
  match status with
  | Optimal ->
      if !relaxed then begin
        Array.blit raw.obj 0 t.cost 0 t.n;
        recompute_z t
      end;
      let status, iters =
        optimize ~bland t ~max_iters ~iters_used:iters ~deadline
      in
      (status, iters, None)
  | _ -> (status, iters, Option.map (farkas_of_row t) bad_row)

(* Build the slack basis for [raw] under [lbv]/[ubv] and solve from it.
   A run that hits the pivot cap may be cycling, so it is run once more
   from a fresh slack basis under Bland's rule from the first pivot
   ([bland] starts there); the reported iterations count both runs. *)
let rec cold_start ?reuse ?(bland = false) raw lbv ubv ~max_iters ~deadline =
  let t = build ?reuse raw lbv ubv in
  let status, iters, ray = from_slack_basis ~bland t raw ~max_iters ~deadline in
  if status = Iteration_limit && not bland then
    let t, status, more, ray =
      cold_start ~reuse:t ~bland:true raw lbv ubv ~max_iters ~deadline
    in
    (t, status, iters + more, ray)
  else (t, status, iters, ray)

let finish t (raw : Model.raw) base_lb status iters =
  let x = Array.init t.n (fun j -> base_lb.(j) +. value t j) in
  let objective =
    let acc = ref 0.0 in
    for j = 0 to t.n - 1 do
      acc := !acc +. (raw.obj.(j) *. x.(j))
    done;
    !acc
  in
  { status; x; objective; iterations = iters }

(* The pivot cap of every LP that sets none; {!resolve} always runs
   under it. *)
let default_max_iters = 50_000

let solve ?(max_iters = default_max_iters)
    ?(deadline = Resilience.Deadline.none) ?lb ?ub (raw : Model.raw) =
  let lbv = match lb with Some a -> a | None -> raw.lb in
  let ubv = match ub with Some a -> a | None -> raw.ub in
  if crossed_bounds raw.n lbv ubv >= 0 then infeasible_result raw.n
  else begin
    let t, status, iters, _ray = cold_start raw lbv ubv ~max_iters ~deadline in
    finish t raw lbv status iters
  end

(* ------------------------------------------------------------------ *)
(* Reusable state and warm restart                                     *)
(* ------------------------------------------------------------------ *)

type state = {
  mutable raw : Model.raw;
      (** the solved system; {!add_rows} extends it in place with cut
          rows so warm restarts keep covering the extended polytope *)
  mutable base_lb : float array;
      (** shift origin of the tableau; [x_j = base_lb.(j) + value j] *)
  mutable t : tab option;  (** [None] only when the build found crossed bounds *)
  mutable warm_ok : bool;
      (** last terminal status left a dual-feasible basis to restart from *)
  mutable last_warm : bool;
  mutable resolves : int;
  mutable infeas : Cert.farkas option;
      (** infeasibility evidence for the most recent [Infeasible] outcome *)
}

(* Accumulated row-operation drift in [a] is bounded by refactoring (a
   cold rebuild) every this-many warm restarts. *)
let refactor_every = 256

let solve_state ?(max_iters = default_max_iters)
    ?(deadline = Resilience.Deadline.none) ?lb ?ub (raw : Model.raw) =
  let lbv = Array.copy (match lb with Some a -> a | None -> raw.lb) in
  let ubv = Array.copy (match ub with Some a -> a | None -> raw.ub) in
  let crossed = crossed_bounds raw.n lbv ubv in
  if crossed >= 0 then
    ( infeasible_result raw.n,
      { raw; base_lb = lbv; t = None; warm_ok = false; last_warm = false;
        resolves = 0; infeas = Some (Cert.Empty_box crossed) } )
  else begin
    let t, status, iters, ray = cold_start raw lbv ubv ~max_iters ~deadline in
    ( finish t raw lbv status iters,
      { raw; base_lb = lbv; t = Some t; warm_ok = status = Optimal;
        last_warm = false; resolves = 0;
        infeas =
          (match (status, ray) with
          | Infeasible, Some r -> Some (Cert.Ray r)
          | _ -> None) } )
  end

let last_resolve_warm st = st.last_warm

let reduced_cost st j =
  match st.t with None -> 0.0 | Some t -> t.z.(j)

let basis_status st j =
  match st.t with
  | None -> `Basic
  | Some t -> (
      match t.stat.(j) with
      | Basic _ -> `Basic
      | At_lower -> `At_lower
      | At_upper -> `At_upper)

let resolve ?(deadline = Resilience.Deadline.none) ~lb ~ub st =
  let max_iters = default_max_iters in
  st.resolves <- st.resolves + 1;
  st.infeas <- None;
  let raw = st.raw in
  let crossed = crossed_bounds raw.n lb ub in
  if crossed >= 0 then begin
    (* Basis untouched: the state stays warm for the next sibling. *)
    st.last_warm <- true;
    st.infeas <- Some (Cert.Empty_box crossed);
    infeasible_result raw.n
  end
  else begin
    (* [reason] says why this resolve fell back to a full
       refactorization instead of the warm dual-repair path: it names the
       [simplex.refactor] event and the reason's counter. The rebuild
       refills the state's tableau and shift origin in place, so the
       state is stale until it ends; [ub] is only read while building. *)
    let cold ?bland ~reason () =
      if Obs.recording ~level:Obs.Log.Debug () then
        Obs.emit ~level:Obs.Log.Debug ~cat:"simplex" "simplex.refactor"
          [ ("reason", Obs.Json.String reason) ];
      st.last_warm <- false;
      st.warm_ok <- false;
      Obs.Counter.incr c_resolve_cold;
      Obs.Counter.incr (List.assoc reason c_cold_reasons);
      let lbv =
        if Array.length st.base_lb <> Array.length lb then Array.copy lb
        else (Array.blit lb 0 st.base_lb 0 (Array.length lb); st.base_lb)
      in
      let t, status, iters, ray =
        cold_start ?reuse:st.t ?bland raw lbv ub ~max_iters ~deadline
      in
      st.t <- Some t;
      st.base_lb <- lbv;
      st.warm_ok <- status = Optimal;
      (match (status, ray) with
      | Infeasible, Some r -> st.infeas <- Some (Cert.Ray r)
      | _ -> ());
      Obs.Counter.incr ~by:iters c_resolve_pivots;
      Obs.Counter.incr ~by:iters c_resolve_cold_pivots;
      finish t raw lbv status iters
    in
    let warm t =
      (* Install the node bounds in shifted space, checking each
         structural column's dual feasibility in the same pass, then
         check the slacks, whose bounds do not change. Reduced costs are
         bound-independent, so the parent's optimal basis stays dual
         feasible and a short dual repair restores primal feasibility.
         z is NOT recomputed here: it is maintained exactly through every
         row reduction, and drift is bounded by the periodic cold
         refactorization ([refactor_every]). *)
      let dual_ok = ref true in
      let check j =
        if t.hi.(j) -. t.lo.(j) > 0.0 then
          match t.stat.(j) with
          | Basic _ -> ()
          | At_lower -> if t.z.(j) < -1e-6 then dual_ok := false
          | At_upper -> if t.z.(j) > 1e-6 then dual_ok := false
      in
      for j = 0 to raw.n - 1 do
        t.lo.(j) <- lb.(j) -. st.base_lb.(j);
        t.hi.(j) <- ub.(j) -. st.base_lb.(j);
        (match t.stat.(j) with
        | At_upper when not (Float.is_finite t.hi.(j)) ->
            (* cannot sit at an infinite bound; the check decides *)
            t.stat.(j) <- At_lower
        | _ -> ());
        check j
      done;
      for j = raw.n to t.cols - 1 do
        check j
      done;
      if not !dual_ok then cold ~reason:"dual_infeasible" ()
      else begin
        recompute_beta t;
        let repair, iters1, bad_row =
          dual_repair t ~max_iters ~iters_used:0 ~deadline
        in
        match repair with
        | Iteration_limit ->
            (* possible degenerate cycling in the repair: rebuild cold
               under Bland's rule *)
            cold ~bland:true ~reason:"repair_limit" ()
        | Infeasible ->
            st.last_warm <- true;
            st.warm_ok <- true;
            (match bad_row with
            | Some rb -> st.infeas <- Some (Cert.Ray (farkas_of_row t rb))
            | None -> ());
            Obs.Counter.incr c_resolve_warm;
            Obs.Counter.incr ~by:iters1 c_resolve_pivots;
            finish t raw st.base_lb Infeasible iters1
        | Time_limit ->
            st.last_warm <- true;
            st.warm_ok <- false;
            Obs.Counter.incr c_resolve_warm;
            Obs.Counter.incr ~by:iters1 c_resolve_pivots;
            finish t raw st.base_lb Time_limit iters1
        | Optimal | Unbounded ->
            let status, iters =
              optimize t ~max_iters ~iters_used:iters1 ~deadline
            in
            st.last_warm <- true;
            st.warm_ok <- status = Optimal;
            Obs.Counter.incr c_resolve_warm;
            Obs.Counter.incr ~by:iters c_resolve_pivots;
            finish t raw st.base_lb status iters
      end
    in
    (* A stored-out column has no slot to move in: a box that takes one
       off its fixed value is solved by a rebuild that stores it. *)
    let unfixed t =
      let moved = ref false in
      for p = t.ns to t.n - 1 do
        let j = t.var_of.(p) in
        let v = st.base_lb.(j) in
        if lb.(j) <> v || ub.(j) <> v then moved := true
      done;
      !moved
    in
    match st.t with
    | None -> cold ~reason:"no_state" ()
    | Some _ when not st.warm_ok -> cold ~reason:"stale_basis" ()
    | Some _ when st.resolves mod refactor_every = 0 ->
        cold ~reason:"periodic" ()
    | Some t when unfixed t -> cold ~reason:"unfixed" ()
    | Some t -> warm t
  end

let duals st =
  match st.t with
  | None -> None
  | Some t -> Some (row_multipliers t)

let last_infeasibility st = st.infeas

let system st = st.raw

(* Aggregation multipliers reproducing the tableau row of a basic
   structural column: row [r] of the reduced tableau satisfies
   [T_r = Σ_i λ_i · (original row i)] on the structural columns with
   [λ_i = sign_i · T_r(slack_i)], the same unwinding as in
   {!row_multipliers}. Consumed by {!Cutgen} as the *suggestion* for a
   Chvátal–Gomory derivation, one row at a time, so no candidate needs
   an m-length array; everything downstream is recomputed exactly from
   the multipliers. *)
let iter_multipliers st j f =
  match st.t with
  | None -> false
  | Some t -> (
      if j < 0 || j >= t.n then false
      else
        match t.stat.(j) with
        | At_lower | At_upper -> false
        | Basic r ->
            (* the entries of [slack_multipliers t r 1.0], zeros skipped: a
               nonbasic slack's from its slot, the unit entry of the slack
               basic in row [r] *)
            let row = t.a.(r) and own = t.basis.(r) in
            for i = t.m - 1 downto 0 do
              let c = t.n + i in
              let s = t.slot.(c) in
              if s >= 0 then begin
                let e = row.(s) in
                if e <> 0.0 then f i (t.sign.(i) *. e)
              end
              else if c = own then f i t.sign.(i)
            done;
            true)

let edge_weights st =
  match st.t with
  | None -> [||]
  | Some t -> Array.init t.m (fun i -> (t.w.(i), fresh_weight t i))

(* Room for [m'] rows: the per-row arrays ([a], [b], [beta], [basis],
   [sign], [w]) and the per-column ones past the [n] structural columns grow
   together, by half again at least, so a run of cut rounds reallocates
   them once or twice instead of on every call. Entries past [m] and
   [cols] are never read. *)
let reserve_rows t m' =
  let cap = Array.length t.b in
  if m' <= cap then t
  else begin
    let cap = Int.max m' (cap + (cap / 2) + 8) in
    let grow len dflt src n = let dst = Array.make len dflt in Array.blit src 0 dst 0 n; dst in
    let rows dflt src = grow cap dflt src t.m in
    let cols dflt src = grow (t.n + cap) dflt src t.cols in
    { t with a = rows [||] t.a; b = rows 0.0 t.b; beta = rows 0.0 t.beta
    ; basis = rows 0 t.basis; sign = rows 1.0 t.sign; w = rows 1.0 t.w
    ; slot = cols (-1) t.slot; stat = cols At_lower t.stat; lo = cols 0.0 t.lo
    ; hi = cols infinity t.hi; cost = cols 0.0 t.cost; z = cols 0.0 t.z }
  end

(* Append [<=] rows (cuts) to the solved system without losing the warm
   basis. The extended tableau keeps every old column at its index —
   structural then one slack per old row — and gives each new row its
   own slack, entered basic after reducing the row against the current
   basis. That leaves the old nonbasic columns in their old slots.
   Reduced costs are untouched (the new basic slacks cost 0), so a
   dual-feasible basis stays dual feasible and the next {!resolve}
   warm-repairs the (intentionally) violated new rows with a few dual
   pivots; that resolve recomputes the basic values before reading any.
   The tableau grows in place ({!reserve_rows}).

   Each cut is reduced straight into its slot row. The reduction writes
   only stored slots, so the factor of each basic row is the cut's own
   coefficient at that row's basic column (0 at a basic slack, which no
   cut names). A stored-out column takes no slot but still shifts the
   rhs. *)
let add_rows st (new_rows : ((int * float) array * float) array) =
  let k = Array.length new_rows in
  if k > 0 then begin
    st.raw <- Model.with_le_rows st.raw new_rows;
    match st.t with
    | None -> ()
    | Some t ->
        let n = t.n and ns = t.ns and m = t.m in
        let m' = m + k in
        let t = reserve_rows t m' in
        (* the current cut's coefficients by column, zero elsewhere *)
        let coef = Array.make n 0.0 in
        Array.iteri
          (fun p (terms, rhs) ->
            let r = m + p in
            let row = Array.make ns 0.0 in
            let bshift = ref rhs in
            Array.iter
              (fun (j, c) ->
                coef.(j) <- coef.(j) +. c;
                let s = t.slot.(j) in
                if s >= 0 then row.(s) <- row.(s) +. c;
                bshift := !bshift -. (c *. st.base_lb.(j)))
              terms;
            (* reduce against the inherited basis so the tableau stays
               row-reduced *)
            for i = 0 to m - 1 do
              let bi = t.basis.(i) in
              let f = if bi < n then coef.(bi) else 0.0 in
              if f <> 0.0 then begin
                let src = t.a.(i) in
                for s = 0 to ns - 1 do
                  row.(s) <- row.(s) -. (f *. src.(s))
                done;
                bshift := !bshift -. (f *. t.b.(i))
              end
            done;
            Array.iter (fun (j, _) -> coef.(j) <- 0.0) terms;
            t.a.(r) <- row;
            t.b.(r) <- !bshift;
            t.basis.(r) <- n + r;
            t.w.(r) <- fresh_weight t r;
            t.sign.(r) <- 1.0;
            let c = n + r in
            t.slot.(c) <- -1;
            t.stat.(c) <- Basic r;
            t.lo.(c) <- 0.0;
            t.hi.(c) <- infinity;
            t.cost.(c) <- 0.0;
            t.z.(c) <- 0.0)
          new_rows;
        st.t <- Some { t with m = m'; cols = n + m' }
  end
