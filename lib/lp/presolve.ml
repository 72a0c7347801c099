(* Root presolve (DESIGN.md §3j): bound tightening from constraint
   activity.

   {!tighten} is index-preserving: it only shrinks the variable box, so
   the caller's model keeps its row/column numbering. This is what
   {!Milp} runs at the root — certificates cite original indices, and
   every emitted {!Cert.tighten} event is verified here in exact
   arithmetic ({!Qd}) under exactly the condition the audit
   ([Analyze.Audit], CERT111) re-checks. An event that fails its own
   exact check is silently dropped: presolve may only ever under-claim.

   Clique-style fixing over the 0/1 cut-selection variables falls out of
   activity propagation through the [=] rows: once one member of a
   one-hot row is pinned to 1, the [>=] direction of the row forces
   every sibling's upper bound to 0 in the same fixpoint sweep. *)

let eps = 1e-9

(* ------------------------------------------------------------------ *)
(* Exact activity helpers                                              *)
(* ------------------------------------------------------------------ *)

let qone = Qd.of_int 1

(* Minimum activity of [row] over the box, excluding column [skip].
   [None] means -infinity (an unbounded column contributes). Exact. *)
let min_activity_rest ~lb ~ub ~skip row =
  let acc = ref (Some Qd.zero) in
  Array.iter
    (fun (k, c) ->
      if k <> skip && c <> 0.0 then
        match !acc with
        | None -> ()
        | Some s ->
            let b = if c > 0.0 then lb.(k) else ub.(k) in
            if Float.is_finite b then
              acc := Some (Qd.add s (Qd.mul (Qd.of_float c) (Qd.of_float b)))
            else acc := None)
    row;
  !acc

(* Float twin of the above, for cheap candidate scanning. *)
let min_activity_rest_f ~lb ~ub ~skip row =
  let acc = ref 0.0 in
  Array.iter
    (fun (k, c) ->
      if k <> skip && c <> 0.0 then
        acc := !acc +. (c *. if c > 0.0 then lb.(k) else ub.(k)))
    row;
  !acc

(* The audit's CERT111 validity condition for one row-implied event, in
   exact arithmetic (see Analyze.Audit): with the row in [<=] form
   [c·x <= d], minimum rest-activity [ma], and coefficient [cj] on the
   tightened variable:
   - upper bound [u] on an integer column: [cj·(u+1) + ma > d] and [u]
     integral — any integer point above [u] violates the row;
   - upper bound [u] on a continuous column: [cj·u + ma >= d];
   - lower bounds mirror with [cj < 0] and [u-1]/[u]. *)
let event_valid_exact ~integer ~cj ~ma ~d ~hi v =
  let qv = Qd.of_float v
  and qc = Qd.of_float cj
  and qd = Qd.of_float d in
  if integer && not (Qd.is_integer qv) then false
  else
    let shifted =
      if not integer then qv
      else if hi then Qd.add qv qone
      else Qd.sub qv qone
    in
    let lhs = Qd.add (Qd.mul qc shifted) ma in
    if integer then Qd.lt qd lhs else Qd.geq lhs qd

(* ------------------------------------------------------------------ *)
(* Certificate-logged bound tightening                                 *)
(* ------------------------------------------------------------------ *)

(* One [<=]-form view of row [i]: [Some (c, d)] with the terms scaled by
   [dir] = +1 or -1. [Le] rows expose the +1 view, [Ge] rows the -1
   view, [Eq] rows both. *)
let le_views (raw : Model.raw) i =
  match raw.senses.(i) with
  | Model.Le -> [ 1.0 ]
  | Model.Ge -> [ -1.0 ]
  | Model.Eq -> [ 1.0; -1.0 ]

(* The float screen [tighten] applies to a candidate bound [v] for
   column [j] before any exact work: it must move the bound by more than
   the tolerance ([improves]) without crossing the other bound
   ([inside]). [candidate] is the bound row [i]'s rest activity [ma]
   implies, rounded inward on an integer column; it is monotone in [ma]
   (non-increasing when [hi], non-decreasing otherwise). *)
let[@inline] improves ~lb ~ub ~hi j v =
  if hi then v < ub.(j) -. (eps *. (1.0 +. Float.abs ub.(j)))
  else v > lb.(j) +. (eps *. (1.0 +. Float.abs lb.(j)))

let[@inline] inside ~lb ~ub ~hi j v =
  if hi then v >= lb.(j) -. eps else v <= ub.(j) +. eps

let[@inline] candidate ~integer ~hi ~d ~cj ma =
  let v = (d -. ma) /. cj in
  if integer then if hi then Float.floor v else Float.ceil v else v

(* The fixpoint stops after this many passes even if bounds still move. *)
let max_passes = 10

let tighten (raw : Model.raw) =
  let n = raw.n in
  let lb = Array.copy raw.lb and ub = Array.copy raw.ub in
  let events = ref [] and nev = ref 0 in
  let emit e =
    events := e :: !events;
    incr nev
  in
  let changed = ref false in
  (* Integrality rounding of fractional model bounds (t_row = -1). *)
  for j = 0 to n - 1 do
    if raw.integer.(j) then begin
      (if Float.is_finite ub.(j) then
         let f = Float.floor ub.(j) in
         if f < ub.(j) && f >= lb.(j) -. eps then begin
           emit { Cert.t_var = j; t_hi = true; t_new = f; t_row = -1 };
           ub.(j) <- f;
           changed := true
         end);
      if Float.is_finite lb.(j) then
        let c = Float.ceil lb.(j) in
        if c > lb.(j) && c <= ub.(j) +. eps then begin
          emit { Cert.t_var = j; t_hi = false; t_new = c; t_row = -1 };
          lb.(j) <- c;
          changed := true
        end
    end
  done;
  (* Try to install the candidate [v0] as the new [hi]/[lo] bound of
     [j], implied by row [i] in the [<=]-form view [row_v] (terms
     already scaled) with coefficient [cj]. Verifies the exact condition before emitting;
     nudges the candidate toward validity a few times when float
     rounding put it a hair on the wrong side. *)
  let try_bound ~i ~j ~cj ~d ~row_v ~hi v0 =
    let integer = raw.integer.(j) in
    let improves = improves ~lb ~ub ~hi j and inside = inside ~lb ~ub ~hi j in
    if improves v0 && inside v0 then
      match min_activity_rest ~lb ~ub ~skip:j row_v with
      | None -> ()
      | Some ma ->
          let step v k =
            (* relax the candidate toward validity: a larger ub / smaller
               lb stays implied whenever the tighter value was *)
            if integer then if hi then v +. float_of_int k else v -. float_of_int k
            else
              let h = Float.abs v *. 1e-12 +. 1e-12 in
              if hi then v +. (float_of_int k *. h) else v -. (float_of_int k *. h)
          in
          let rec attempt k =
            if k > 3 then ()
            else
              let v = step v0 k in
              if not (improves v) then ()
              else if event_valid_exact ~integer ~cj ~ma ~d ~hi v then begin
                emit { Cert.t_var = j; t_hi = hi; t_new = v; t_row = i };
                if hi then ub.(j) <- v else lb.(j) <- v;
                changed := true
              end
              else attempt (k + 1)
          in
          attempt 0
  in
  (* Per row view, once: the minimum-activity terms [p = c·bound] in row
     order, their float sum [s] over the finite ones and the count
     [ninf] of the others. A term's rest activity [ma_f] (the row-order
     float sum without it) then lies within [s - p ± rad]. In general
     [rad = abs·(2·len + 4)·2^-52], [abs] the sum of [|p|]: each of the
     two float sums is within [len·u·abs] of its exact value and the
     subtraction adds [2u·abs], u = 2^-53, with room to spare for the
     rounding of the interval's ends. When every [p] is a multiple of
     2^-20 and [abs <= 2^32], every partial sum is exact, so [rad = 0]:
     integral rows over integral boxes are the common case, and there a
     candidate sitting exactly on an integer must not be blurred. A term
     whose candidate bound cannot pass [improves && inside] anywhere in
     the interval needs no [ma_f]: the candidate is monotone in [ma], so
     the two ends decide. The summary is redone after an event moves a
     bound. A row that lists a column twice sums its coefficients per
     column and skips nothing. *)
  let mark = Array.make n (-1) in
  let prod = ref [||] in
  let view ~i ~row ~dup dir =
    let len = Array.length row in
    let prod = !prod in
    let d = dir *. raw.rhs.(i) in
    (* view-space row: terms scaled by [dir] *)
    let row_v =
      lazy (if dir = 1.0 then row else Array.map (fun (k, c) -> (k, -.c)) row)
    in
    let seen = ref (-1) and s = ref 0.0 and rad = ref 0.0 and ninf = ref 0 in
    for t = 0 to len - 1 do
      let j, c = row.(t) in
      let cj =
        (* view-space coefficient of [j] *)
        if dup then
          Array.fold_left
            (fun acc (k, c) -> if k = j then acc +. c else acc)
            0.0 (Lazy.force row_v)
        else 0.0 +. (dir *. c)
      in
      if cj <> 0.0 then begin
        let scan =
          dup
          || begin
               if !seen <> !nev then begin
                 seen := !nev;
                 s := 0.0;
                 ninf := 0;
                 let abs = ref 0.0 and grid = ref true in
                 for u = 0 to len - 1 do
                   let k, c = row.(u) in
                   let c = dir *. c in
                   let p = if c = 0.0 then 0.0 else c *. if c > 0.0 then lb.(k) else ub.(k) in
                   prod.(u) <- p;
                   if Float.is_finite p then begin
                     s := !s +. p;
                     abs := !abs +. Float.abs p;
                     if not (Float.is_integer (p *. 0x1p20)) then grid := false
                   end
                   else incr ninf
                 done;
                 rad :=
                   if !grid && !abs <= 0x1p32 then 0.0
                   else !abs *. float_of_int ((2 * len) + 4) *. epsilon_float
               end;
               (* [ma_f] is finite only when every other term is *)
               let p = prod.(t) in
               let own = Float.is_finite p in
               !ninf = (if own then 0 else 1)
               &&
               let mid = if own then !s -. p else !s in
               let ma_lo = mid -. !rad and ma_hi = mid +. !rad in
               (not (Float.is_finite ma_lo && Float.is_finite ma_hi))
               ||
               let hi = cj > 0.0 and integer = raw.integer.(j) in
               improves ~lb ~ub ~hi j (candidate ~integer ~hi ~d ~cj ma_hi)
               && inside ~lb ~ub ~hi j (candidate ~integer ~hi ~d ~cj ma_lo)
             end
        in
        if scan then begin
          let row_v = Lazy.force row_v in
          let ma_f = min_activity_rest_f ~lb ~ub ~skip:j row_v in
          if Float.is_finite ma_f then
            let hi = cj > 0.0 in
            try_bound ~i ~j ~cj ~d ~row_v ~hi
              (candidate ~integer:raw.integer.(j) ~hi ~d ~cj ma_f)
        end
      end
    done
  in
  let pass () =
    changed := false;
    Array.iteri
      (fun i row ->
        let len = Array.length row in
        if Array.length !prod < len then prod := Array.make len 0.0;
        let dup = ref false in
        Array.iter
          (fun (k, _) -> if mark.(k) = i then dup := true else mark.(k) <- i)
          row;
        Array.iter (fun (k, _) -> mark.(k) <- -1) row;
        List.iter (view ~i ~row ~dup:!dup) (le_views raw i))
      raw.rows;
    !changed
  in
  let p = ref 0 in
  while !p < max_passes && pass () do
    incr p
  done;
  (lb, ub, List.rev !events)
