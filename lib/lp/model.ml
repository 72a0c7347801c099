type sense = Le | Ge | Eq
type var = int

type row = {
  r_name : string Lazy.t option;
  terms : (int * float) array;  (* normalized: ascending, no zero *)
  sense : sense;
  rhs : float;
}

(* Variables and rows live in growable arrays: entries [0, nvars) and
   [0, nrows) are live, the rest is spare capacity (doubled when full).
   So every accessor and [fix] is O(1), and [check] is linear in the
   model's size. *)
type t = {
  m_name : string;
  mutable names : string Lazy.t array;
  mutable lbs : float array;
  mutable ubs : float array;
  mutable ints : bool array;
  mutable nvars : int;
  mutable rows : row array;
  mutable nrows : int;
  mutable obj : (float * int) list;  (* as set: may hold duplicates *)
  mutable obj_const : float;
}

let create ?(name = "model") () =
  {
    m_name = name;
    names = [||];
    lbs = [||];
    ubs = [||];
    ints = [||];
    nvars = 0;
    rows = [||];
    nrows = 0;
    obj = [];
    obj_const = 0.0;
  }

(* [a] with room for [n + 1] entries, the first [n] kept. *)
let grow a n dflt =
  if n < Array.length a then a
  else begin
    let b = Array.make (Int.max 16 (2 * n)) dflt in
    Array.blit a 0 b 0 n;
    b
  end

let unnamed = Lazy.from_val ""

let add_var m ?(integer = false) ?(lb = 0.0) ?(ub = infinity) name =
  if Float.is_nan lb || Float.is_nan ub then invalid_arg "Model.add_var: NaN";
  if not (Float.is_finite lb) then
    invalid_arg "Model.add_var: lower bound must be finite";
  if ub < lb then invalid_arg "Model.add_var: ub < lb";
  let id = m.nvars in
  m.names <- grow m.names id unnamed;
  m.lbs <- grow m.lbs id 0.0;
  m.ubs <- grow m.ubs id 0.0;
  m.ints <- grow m.ints id false;
  m.names.(id) <- name;
  m.lbs.(id) <- lb;
  m.ubs.(id) <- ub;
  m.ints.(id) <- integer;
  m.nvars <- id + 1;
  id

let bool_var m name = add_var m ~integer:true ~lb:0.0 ~ub:1.0 name

(* Terms sorted by variable, each variable's coefficients summed from
   [0.0] in list order (a stable sort keeps that order), exact zeros
   dropped. A list already strictly increasing by variable (as the
   builders emit their rows) exits early: each variable's sum [0.0 +. c]
   is [c] itself or a zero, so one pass keeps the nonzero terms. *)
let normalize_terms terms =
  (* the nonzero count of a strictly increasing list, [-1] otherwise *)
  let rec scan k prev = function
    | [] -> k
    | (c, v) :: rest ->
        if v <= prev then -1 else scan (if c = 0.0 then k else k + 1) v rest
  in
  let k = scan 0 min_int terms in
  if k >= 0 then begin
    let out = Array.make k (0, 0.0) in
    ignore
      (List.fold_left
         (fun i (c, v) -> if c = 0.0 then i else (out.(i) <- (v, c); i + 1))
         0 terms);
    out
  end
  else
    (* [s] sums variable [v]'s coefficients so far *)
    let rec merge acc v s = function
      | (c, v') :: rest when v' = v -> merge acc v (s +. c) rest
      | rest -> (
          let acc = if s = 0.0 then acc else (v, s) :: acc in
          match rest with
          | [] -> Array.of_list (List.rev acc)
          | (c, v') :: rest -> merge acc v' (0.0 +. c) rest)
    in
    match List.stable_sort (fun (_, a) (_, b) -> Int.compare a b) terms with
    | [] -> [||]
    | (c, v) :: rest -> merge [] v (0.0 +. c) rest

let add_constraint m ?name terms sense rhs =
  let terms = normalize_terms terms in
  m.rows <- grow m.rows m.nrows { r_name = None; terms = [||]; sense = Le; rhs = 0.0 };
  m.rows.(m.nrows) <- { r_name = name; terms; sense; rhs };
  m.nrows <- m.nrows + 1

let add_le m ?name terms rhs = add_constraint m ?name terms Le rhs
let add_ge m ?name terms rhs = add_constraint m ?name terms Ge rhs
let add_eq m ?name terms rhs = add_constraint m ?name terms Eq rhs

let set_objective m ?(constant = 0.0) terms =
  m.obj <- terms;
  m.obj_const <- constant

let num_vars m = m.nvars
let num_constraints m = m.nrows
let var_index v = v

let var_of_index m i =
  if i < 0 || i >= m.nvars then invalid_arg "Model.var_of_index";
  i

let checked m v what = if v < 0 || v >= m.nvars then invalid_arg what

let fix m v x =
  checked m v "Model.fix";
  m.lbs.(v) <- x;
  m.ubs.(v) <- x

let var_name m v = checked m v "Model.var_name"; Lazy.force m.names.(v)
let is_integer m v = checked m v "Model.is_integer"; m.ints.(v)
let bounds m v = checked m v "Model.bounds"; (m.lbs.(v), m.ubs.(v))
let objective_constant m = m.obj_const

let objective_terms m =
  Array.fold_right (fun (v, c) acc -> (c, v) :: acc) (normalize_terms m.obj) []

let rows m =
  Array.init m.nrows (fun i ->
      let r = m.rows.(i) in
      ( r.r_name,
        Array.fold_right (fun (v, c) acc -> (c, v) :: acc) r.terms [],
        r.sense,
        r.rhs ))

type raw = {
  n : int;
  lb : float array;
  ub : float array;
  integer : bool array;
  obj : float array;
  rows : (int * float) array array;
  senses : sense array;
  rhs : float array;
}

let to_raw m =
  let n = m.nvars in
  let obj = Array.make n 0.0 in
  List.iter (fun (c, v) -> obj.(v) <- obj.(v) +. c) m.obj;
  let rows = Array.sub m.rows 0 m.nrows in
  {
    n;
    lb = Array.sub m.lbs 0 n;
    ub = Array.sub m.ubs 0 n;
    integer = Array.sub m.ints 0 n;
    obj;
    rows = Array.map (fun r -> r.terms) rows;
    senses = Array.map (fun r -> r.sense) rows;
    rhs = Array.map (fun (r : row) -> r.rhs) rows;
  }

let with_le_rows (raw : raw) rows =
  if Array.length rows = 0 then raw
  else
    {
      raw with
      rows = Array.append raw.rows (Array.map fst rows);
      senses = Array.append raw.senses (Array.make (Array.length rows) Le);
      rhs = Array.append raw.rhs (Array.map snd rows);
    }

let check m ~values ?(eps = 1e-6) () =
  let fail fmt = Fmt.kstr (fun s -> Error s) fmt in
  let rec check_vars v =
    if v >= m.nvars then Ok ()
    else
      let x = values v in
      let lb = m.lbs.(v) and ub = m.ubs.(v) in
      if x < lb -. eps || x > ub +. eps then
        fail "variable %s = %g outside [%g, %g]" (Lazy.force m.names.(v)) x lb ub
      else if m.ints.(v) && Float.abs (x -. Float.round x) > eps then
        fail "variable %s = %g not integral" (Lazy.force m.names.(v)) x
      else check_vars (v + 1)
  in
  let check_row i (r : row) =
    let lhs = Array.fold_left (fun acc (v, c) -> acc +. (c *. values v)) 0.0 r.terms in
    let name () =
      match r.r_name with
      | Some s -> Lazy.force s
      | None -> Printf.sprintf "row%d" i
    in
    match r.sense with
    | Le when lhs > r.rhs +. eps -> fail "%s: %g > %g" (name ()) lhs r.rhs
    | Ge when lhs < r.rhs -. eps -> fail "%s: %g < %g" (name ()) lhs r.rhs
    | Eq when Float.abs (lhs -. r.rhs) > eps -> fail "%s: %g <> %g" (name ()) lhs r.rhs
    | Le | Ge | Eq -> Ok ()
  in
  let rec go i =
    if i >= m.nrows then Ok ()
    else match check_row i m.rows.(i) with Error _ as e -> e | Ok () -> go (i + 1)
  in
  match check_vars 0 with Error _ as e -> e | Ok () -> go 0

let pp_stats ppf m =
  let ints = ref 0 in
  for v = 0 to m.nvars - 1 do
    if m.ints.(v) then incr ints
  done;
  Fmt.pf ppf "%s: %d vars (%d integer), %d constraints" m.m_name m.nvars !ints
    m.nrows
