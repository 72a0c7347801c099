module Bitpos = struct
  module T = struct
    type t = { node : int; bit : int; dist : int }

    let compare a b =
      let c = Int.compare a.node b.node in
      if c <> 0 then c
      else
        let c = Int.compare a.bit b.bit in
        if c <> 0 then c else Int.compare a.dist b.dist
  end

  include T

  let pp ppf { node; bit; dist } =
    if dist = 0 then Fmt.pf ppf "n%d[%d]" node bit
    else Fmt.pf ppf "n%d[%d]@%d" node bit dist

  module Set = Set.Make (T)
end

module Int_set = Set.Make (Int)

type one_step = { reads : Bitpos.t list; passthrough : bool }

let bit_of v i = Int64.to_int (Int64.logand (Int64.shift_right_logical v i) 1L)

(* Index of the lowest set bit of [v]; [width] when v = 0. *)
let trailing_zeros v ~width =
  let rec go i = if i >= width then width else
      if bit_of v i = 1 then i else go (i + 1) in
  go 0

let const_of g (e : Ir.Cdfg.edge) =
  match Ir.Cdfg.op g e.src with
  | Ir.Op.Const c when e.dist = 0 -> Some c
  | _ -> None

let is_const g e = Option.is_some (const_of g e)

(* Is this bit of the operand statically a known constant? 0 or 1 when it
   is, -1 when not. Chases constants through wiring ops (shifts, slices,
   concats) up to a small depth — enough to fold the ubiquitous
   [x ^ (x >> s)] top bits. *)
let rec known_bit g node bit ~depth =
  if depth <= 0 then -1
  else
    let nd = Ir.Cdfg.node g node in
    let via i bit' =
      let e = nd.preds.(i) in
      if e.Ir.Cdfg.dist > 0 then -1
      else known_bit g e.src bit' ~depth:(depth - 1)
    in
    match nd.op with
    | Ir.Op.Const c -> bit_of c bit
    | Ir.Op.Shl s -> if bit < s then 0 else via 0 (bit - s)
    | Ir.Op.Shr s ->
        let w = Ir.Cdfg.width g nd.preds.(0).Ir.Cdfg.src in
        if bit + s >= w then 0 else via 0 (bit + s)
    | Ir.Op.Slice { lo; hi = _ } -> via 0 (lo + bit)
    | Ir.Op.Concat ->
        let w_low = Ir.Cdfg.width g nd.preds.(1).Ir.Cdfg.src in
        if bit < w_low then via 1 bit else via 0 (bit - w_low)
    | Ir.Op.Input _ | Ir.Op.Not | Ir.Op.Bitwise _ | Ir.Op.Add | Ir.Op.Sub
    | Ir.Op.Cmp _ | Ir.Op.Mux | Ir.Op.Black_box _ ->
        -1

let known_edge_bit g (e : Ir.Cdfg.edge) bit =
  if e.dist > 0 then -1 else known_bit g e.src bit ~depth:4

(* x OP c for an unsigned comparison against constant [c] of width [w]:
   support is the bits of x at positions >= tz, where tz comes from the
   equivalent >=-form threshold. Returns None when the result is constant. *)
let cmp_const_support (c : Ir.Op.cmp) ~value ~width =
  let maxv =
    if width >= 64 then Int64.minus_one
    else Int64.sub (Int64.shift_left 1L width) 1L
  in
  let ge_threshold =
    match c with
    | Ir.Op.Ge | Ir.Op.Lt -> Some value (* x >= c / x < c *)
    | Ir.Op.Gt | Ir.Op.Le ->
        (* x > c <=> x >= c+1, constant when c = max *)
        if Int64.equal value maxv then None else Some (Int64.add value 1L)
    | Ir.Op.Eq | Ir.Op.Ne -> Some 0L (* handled by caller: full support *)
  in
  match c with
  | Ir.Op.Eq | Ir.Op.Ne -> Some 0 (* all bits *)
  | Ir.Op.Ge | Ir.Op.Lt | Ir.Op.Gt | Ir.Op.Le -> (
      match ge_threshold with
      | None -> None (* constant result *)
      | Some t ->
          if Int64.equal t 0L then None (* x >= 0 is constant true *)
          else Some (trailing_zeros t ~width))

let flip_cmp (c : Ir.Op.cmp) : Ir.Op.cmp =
  match c with
  | Ir.Op.Eq -> Ir.Op.Eq
  | Ir.Op.Ne -> Ir.Op.Ne
  | Ir.Op.Lt -> Ir.Op.Gt
  | Ir.Op.Le -> Ir.Op.Ge
  | Ir.Op.Gt -> Ir.Op.Lt
  | Ir.Op.Ge -> Ir.Op.Le

(* The one-step dependence rules: calls [read i b] for every bit [b] of
   operand [i] (an index into [node]'s [preds]) that bit [bit] of [node]
   reads, in order, and returns whether the bit is a passthrough. Bits of
   constant operands are never read. *)
let iter_reads g ~node ~bit read =
  let nd = Ir.Cdfg.node g node in
  if bit < 0 || bit >= nd.width then
    invalid_arg
      (Printf.sprintf "Bitdep.dep: bit %d out of width %d of node %d" bit
         nd.width node);
  let p i = nd.preds.(i) in
  (* bits [lo..hi] of operand [i], none of a constant *)
  let range i ~lo ~hi =
    if not (is_const g (p i)) then
      for b = lo to Int.min hi (Ir.Cdfg.width g (p i).src - 1) do
        read i b
      done
  in
  let wire i b = read i b; true in
  match nd.op with
  | Ir.Op.Input _ | Ir.Op.Const _ -> true
  | Ir.Op.Not -> read 0 bit; false
  | Ir.Op.Bitwise bw -> (
      (* operand [i] against the other operand's known bit [c] *)
      let one i c =
        match (bw, c) with
        | Ir.Op.And, 0 -> true (* x & 0 = 0 *)
        | Ir.Op.And, _ -> wire i bit (* x & 1 = x *)
        | Ir.Op.Or, 0 -> wire i bit
        | Ir.Op.Or, _ -> true (* x | 1 = 1 *)
        | Ir.Op.Xor, 0 -> wire i bit
        | Ir.Op.Xor, _ -> read i bit; false (* inversion: needs a LUT *)
      in
      match (known_edge_bit g (p 0) bit, known_edge_bit g (p 1) bit) with
      | -1, -1 -> read 0 bit; read 1 bit; false
      | -1, c -> one 0 c
      | c, -1 -> one 1 c
      | _, _ -> true)
  | Ir.Op.Shl s -> if bit - s >= 0 then wire 0 (bit - s) else true
  | Ir.Op.Shr s ->
      if bit + s < Ir.Cdfg.width g (p 0).src then wire 0 (bit + s) else true
  | Ir.Op.Slice { lo; hi = _ } -> wire 0 (lo + bit)
  | Ir.Op.Concat ->
      let w_low = Ir.Cdfg.width g (p 1).src in
      if bit < w_low then wire 1 bit else wire 0 (bit - w_low)
  | Ir.Op.Add | Ir.Op.Sub -> (
      (* x +/- c: bits below tz(c) pass through; higher bits read from
         tz(c) upward. For Sub the two's complement shares tz with c. *)
      let refined i c =
        if Int64.equal c 0L then wire i bit
        else
          let tz = trailing_zeros c ~width:nd.width in
          if bit < tz then wire i bit
          else (range i ~lo:tz ~hi:bit; false)
      in
      match (nd.op, const_of g (p 0), const_of g (p 1)) with
      | _, Some _, Some _ -> true
      | Ir.Op.Add, Some c, None -> refined 1 c
      | (Ir.Op.Add | Ir.Op.Sub), None, Some c -> refined 0 c
      | _, _, _ -> range 0 ~lo:0 ~hi:bit; range 1 ~lo:0 ~hi:bit; false)
  | Ir.Op.Cmp c -> (
      let against i cmp value =
        let w = Ir.Cdfg.width g (p i).src in
        match cmp_const_support cmp ~value ~width:w with
        | None -> true
        | Some lo -> range i ~lo ~hi:(w - 1); false
      in
      match (const_of g (p 0), const_of g (p 1)) with
      | Some _, Some _ -> true
      | None, Some v -> against 0 c v
      | Some v, None -> against 1 (flip_cmp c) v
      | None, None ->
          let w = Ir.Cdfg.width g (p 0).src in
          range 0 ~lo:0 ~hi:(w - 1); range 1 ~lo:0 ~hi:(w - 1); false)
  | Ir.Op.Mux -> (
      match const_of g (p 0) with
      | Some c -> wire (if Int64.equal c 0L then 2 else 1) bit
      | None ->
          read 0 0;
          if not (is_const g (p 1)) then read 1 bit;
          if not (is_const g (p 2)) then read 2 bit;
          false)
  | Ir.Op.Black_box _ ->
      for i = 0 to Array.length nd.preds - 1 do
        range i ~lo:0 ~hi:(Ir.Cdfg.width g (p i).src - 1)
      done;
      false

let dep g ~node ~bit =
  let preds = Ir.Cdfg.preds g node and reads = ref [] in
  let passthrough =
    iter_reads g ~node ~bit (fun i b ->
        let e = preds.(i) in
        reads := Bitpos.{ node = e.src; bit = b; dist = e.dist } :: !reads)
  in
  { reads = List.rev !reads; passthrough }

(* A bit position inside a graph is a flat index, [base.(node) + bit]; a
   boundary read is the key [flat * span + dist], where [span] exceeds
   every edge distance, so keys of distinct (node, bit, dist) differ. *)
type table = {
  base : int array;
  bits : int;  (** the graph's flat bits *)
  first : int array;
      (** the reads of flat bit [f] are reads
          [first.(f) .. first.(f + 1) - 1] *)
  reads : int array;
      (** read [r] is [reads.(4 r .. 4 r + 3)]: its key; its node when the
          read is combinational (it expands when that node is in the
          cone), -1 for a registered read (never expands); the operand bit
          it reads; and its operand position, the index in the reader's
          [preds] of the first edge from its node at its distance *)
  wire : bool array;  (** [dep]'s passthrough of every flat bit *)
  (* Union scratch: [seen.(key) = ustamp] while [key] is in the union
     being built. *)
  mutable ustamp : int;
  seen : int array;
  (* The supports of this table's calls, [arena.(0 .. top - 1)]. *)
  mutable arena : int array;
  mutable top : int;
  (* The max support and LUT bits of the last [compose]'s record. *)
  mutable last_max : int;
  mutable last_lut : int;
}

(* [a] with room for at least [n] ints, its contents kept. The copy is a
   loop: [Array.blit] pays a write barrier per int into the major
   heap. *)
let ensure a n =
  if n <= Array.length a then a
  else begin
    let b = Array.make (Int.max n (2 * Array.length a)) 0 in
    for i = 0 to Array.length a - 1 do
      b.(i) <- a.(i)
    done;
    b
  end

(* [g]'s table, built in the arrays of [spare] where they are long
   enough. *)
let build g spare =
  let n = Ir.Cdfg.num_nodes g in
  let base = Array.make (n + 1) 0 and span = ref 1 in
  for v = 0 to n - 1 do
    base.(v + 1) <- base.(v) + Ir.Cdfg.width g v;
    Array.iter
      (fun (e : Ir.Cdfg.edge) -> span := Int.max !span (e.dist + 1))
      (Ir.Cdfg.preds g v)
  done;
  let bits = base.(n) and span = !span in
  let old field = match spare with Some t -> field t | None -> [||] in
  let fit a len = if Array.length a >= len then a else Array.make len 0 in
  let first = fit (old (fun t -> t.first)) (bits + 1) in
  let wire =
    match spare with
    | Some t when Array.length t.wire >= bits -> t.wire
    | _ -> Array.make bits true
  in
  let reads = ref (ensure (old (fun t -> t.reads)) (8 * bits)) in
  let count = ref 0 in
  for node = 0 to n - 1 do
    let preds = Ir.Cdfg.preds g node in
    let read i b =
      let e = preds.(i) and pos = ref 0 in
      while preds.(!pos).Ir.Cdfg.src <> e.src || preds.(!pos).dist <> e.dist do
        incr pos
      done;
      let r = 4 * !count in
      if r + 4 > Array.length !reads then reads := ensure !reads (r + 4);
      let a = !reads in
      a.(r) <- ((base.(e.src) + b) * span) + e.dist;
      a.(r + 1) <- (if e.dist = 0 then e.src else -1);
      a.(r + 2) <- b;
      a.(r + 3) <- !pos;
      incr count
    in
    for bit = 0 to Ir.Cdfg.width g node - 1 do
      let f = base.(node) + bit in
      first.(f) <- !count;
      wire.(f) <- iter_reads g ~node ~bit read
    done
  done;
  first.(bits) <- !count;
  {
    base;
    bits;
    first;
    reads = !reads;
    wire;
    (* stamps go on rising over a reused [seen] *)
    ustamp = (match spare with Some t -> t.ustamp | None -> 0);
    seen = fit (old (fun t -> t.seen)) (bits * span);
    arena = old (fun t -> t.arena);
    top = 0;
    last_max = 0;
    last_lut = 0;
  }

(* The arrays of the calling domain's last table whose [with_table] has
   returned, for the next table to reuse. *)
let spare = Domain.DLS.new_key (fun () -> None)

let with_table g f =
  let t = build g (Domain.DLS.get spare) in
  Domain.DLS.set spare None;
  let r = f t in
  Domain.DLS.set spare (Some t);
  r

type cone_support = { max_support : int; lut_bits : int }
type supports = int

exception Too_wide

(* Bit [b]'s record in a node's supports starts at [b * (k + 2)]: its
   size, its wire flag (1 or 0), then its first [min size k] keys. A size
   above [k] is too wide; it is [k + 1] when the bit reads a too-wide bit
   of an in-cone operand, else the exact count. Each union is built at
   the arena's top and checked against [seen]; a record is kept by moving
   [top] past it. The record's max support and LUT bits are counted as
   its bits are written. *)
let compose ?(stop = false) t ~k ~root ops =
  let stride = k + 2 and first = t.base.(root) in
  let w = t.base.(root + 1) - first and at = t.top in
  (* the first record gets room for twice every bit's trivial one *)
  if at + (w * stride) > Array.length t.arena then
    t.arena <-
      ensure t.arena (Int.max (at + (w * stride)) (2 * t.bits * stride));
  let out = t.arena and rd = t.reads in
  let max_support = ref 0 and lut_bits = ref 0 in
  match
    for bit = 0 to w - 1 do
      let f = first + bit and o = at + (bit * stride) in
      t.ustamp <- t.ustamp + 1;
      let u = t.ustamp and n = ref 0 and wide = ref false in
      let wire = ref t.wire.(f) and r = ref t.first.(f) in
      let last = t.first.(f + 1) in
      while !r < last do
        let q = 4 * !r in
        let src = rd.(q + 1) in
        let sub = if src >= 0 then ops.(rd.(q + 3)) else -1 in
        let expand = sub >= 0 in
        let so = if expand then sub + (rd.(q + 2) * stride) else 0 in
        if expand && out.(so + 1) = 0 then wire := false;
        if expand && out.(so) > k then begin
          (* a too-wide bit below: this bit is too wide as well *)
          if stop then raise Too_wide;
          wide := true;
          r := last
        end
        else begin
          let from = if expand then out else rd in
          let lo = if expand then so + 2 else q in
          let hi = if expand then so + 1 + out.(so) else q in
          for j = lo to hi do
            let key = from.(j) in
            if t.seen.(key) <> u then begin
              t.seen.(key) <- u;
              if !n < k then out.(o + 2 + !n) <- key
              else if stop then raise Too_wide;
              incr n
            end
          done;
          incr r
        end
      done;
      let size = if !wide then k + 1 else !n in
      out.(o) <- size;
      out.(o + 1) <- (if !wire then 1 else 0);
      if size > !max_support then max_support := size;
      if size >= 2 || (size = 1 && not !wire) then incr lut_bits
    done
  with
  | exception Too_wide -> -1
  | () ->
      t.top <- at + (w * stride);
      t.last_max <- !max_support;
      t.last_lut <- !lut_bits;
      at

let max_support t = t.last_max
let lut_bits t = t.last_lut

let mark t = t.top
let release t at = t.top <- at

let keep t ~k ~root sup =
  let len = (t.base.(root + 1) - t.base.(root)) * (k + 2) and at = t.top in
  (* a loop, not [Array.blit], which pays a write barrier per int in the
     major heap; [at <= sup], so copying forward is safe *)
  if at <> sup then
    for i = 0 to len - 1 do
      t.arena.(at + i) <- t.arena.(sup + i)
    done;
  t.top <- at + len;
  at
