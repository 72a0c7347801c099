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

let bit_of v i = Int64.logand (Int64.shift_right_logical v i) 1L

(* Index of the lowest set bit of [v]; [width] when v = 0. *)
let trailing_zeros v ~width =
  let rec go i = if i >= width then width else
      if Int64.equal (bit_of v i) 1L then i else go (i + 1) in
  go 0

let const_of g (e : Ir.Cdfg.edge) =
  match Ir.Cdfg.op g e.src with
  | Ir.Op.Const c when e.dist = 0 -> Some c
  | _ -> None

let mk (e : Ir.Cdfg.edge) bit = Bitpos.{ node = e.src; bit; dist = e.dist }

(* Is this bit of the operand statically a known constant? Chases constants
   through wiring ops (shifts, slices, concats) up to a small depth —
   enough to fold the ubiquitous [x ^ (x >> s)] top bits. *)
let rec known_bit g node bit ~depth =
  if depth <= 0 then None
  else
    let nd = Ir.Cdfg.node g node in
    let via i bit' =
      let e = nd.preds.(i) in
      if e.Ir.Cdfg.dist > 0 then None else known_bit g e.src bit' ~depth:(depth - 1)
    in
    match nd.op with
    | Ir.Op.Const c -> Some (bit_of c bit)
    | Ir.Op.Shl s -> if bit < s then Some 0L else via 0 (bit - s)
    | Ir.Op.Shr s ->
        let w = Ir.Cdfg.width g nd.preds.(0).Ir.Cdfg.src in
        if bit + s >= w then Some 0L else via 0 (bit + s)
    | Ir.Op.Slice { lo; hi = _ } -> via 0 (lo + bit)
    | Ir.Op.Concat ->
        let w_low = Ir.Cdfg.width g nd.preds.(1).Ir.Cdfg.src in
        if bit < w_low then via 1 bit else via 0 (bit - w_low)
    | Ir.Op.Input _ | Ir.Op.Not | Ir.Op.Bitwise _ | Ir.Op.Add | Ir.Op.Sub
    | Ir.Op.Cmp _ | Ir.Op.Mux | Ir.Op.Black_box _ ->
        None

let known_edge_bit g (e : Ir.Cdfg.edge) bit =
  if e.dist > 0 then None else known_bit g e.src bit ~depth:4

(* All bits [lo..hi] of an operand, skipping constants. *)
let range_reads g e ~lo ~hi =
  match const_of g e with
  | Some _ -> []
  | None ->
      let w = Ir.Cdfg.width g e.src in
      let hi = min hi (w - 1) in
      let rec go i acc = if i > hi then List.rev acc else go (i + 1) (mk e i :: acc) in
      if lo > hi then [] else go lo []

let no_deps = { reads = []; passthrough = true }
let opaque reads = { reads; passthrough = false }
let wire read = { reads = [ read ]; passthrough = true }

(* Dependence of a binary bitwise op's output bit on its operands, with
   constant-mask refinement. *)
let bitwise_dep g (bw : Ir.Op.bitwise) e1 e2 bit =
  let dep_one kind e other_const =
    (* [other_const] is the constant operand's bit value *)
    match (kind, other_const) with
    | Ir.Op.And, 0L -> no_deps (* x & 0 = 0 *)
    | Ir.Op.And, _ -> wire (mk e bit) (* x & 1 = x *)
    | Ir.Op.Or, 0L -> wire (mk e bit)
    | Ir.Op.Or, _ -> no_deps (* x | 1 = 1 *)
    | Ir.Op.Xor, 0L -> wire (mk e bit)
    | Ir.Op.Xor, _ -> opaque [ mk e bit ] (* inversion: needs a LUT *)
  in
  match (known_edge_bit g e1 bit, known_edge_bit g e2 bit) with
  | Some _, Some _ -> no_deps
  | Some c, None -> dep_one bw e2 c
  | None, Some c -> dep_one bw e1 c
  | None, None -> opaque [ mk e1 bit; mk e2 bit ]

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

let dep g ~node ~bit =
  let nd = Ir.Cdfg.node g node in
  if bit < 0 || bit >= nd.width then
    invalid_arg
      (Printf.sprintf "Bitdep.dep: bit %d out of width %d of node %d" bit
         nd.width node);
  let p i = nd.preds.(i) in
  match nd.op with
  | Ir.Op.Input _ | Ir.Op.Const _ -> no_deps
  | Ir.Op.Not -> opaque [ mk (p 0) bit ]
  | Ir.Op.Bitwise bw -> bitwise_dep g bw (p 0) (p 1) bit
  | Ir.Op.Shl s -> if bit - s >= 0 then wire (mk (p 0) (bit - s)) else no_deps
  | Ir.Op.Shr s ->
      let w = Ir.Cdfg.width g (p 0).src in
      if bit + s < w then wire (mk (p 0) (bit + s)) else no_deps
  | Ir.Op.Slice { lo; hi = _ } -> wire (mk (p 0) (lo + bit))
  | Ir.Op.Concat ->
      let w_low = Ir.Cdfg.width g (p 1).src in
      if bit < w_low then wire (mk (p 1) bit) else wire (mk (p 0) (bit - w_low))
  | Ir.Op.Add | Ir.Op.Sub -> (
      let full () =
        opaque (range_reads g (p 0) ~lo:0 ~hi:bit
                @ range_reads g (p 1) ~lo:0 ~hi:bit)
      in
      let refined e c =
        (* x +/- c: bits below tz(c) pass through; higher bits read from
           tz(c) upward. For Sub the two's complement shares tz with c. *)
        let w = nd.width in
        if Int64.equal c 0L then wire (mk e bit)
        else
          let tz = trailing_zeros c ~width:w in
          if bit < tz then wire (mk e bit)
          else opaque (range_reads g e ~lo:tz ~hi:bit)
      in
      match (nd.op, const_of g (p 0), const_of g (p 1)) with
      | _, Some _, Some _ -> no_deps
      | Ir.Op.Add, Some c, None -> refined (p 1) c
      | (Ir.Op.Add | Ir.Op.Sub), None, Some c -> refined (p 0) c
      | _, _, _ -> full ())
  | Ir.Op.Cmp c -> (
      let full () =
        let w = Ir.Cdfg.width g (p 0).src in
        opaque (range_reads g (p 0) ~lo:0 ~hi:(w - 1)
                @ range_reads g (p 1) ~lo:0 ~hi:(w - 1))
      in
      let against e cmp value =
        let w = Ir.Cdfg.width g e.Ir.Cdfg.src in
        match cmp_const_support cmp ~value ~width:w with
        | None -> no_deps
        | Some lo -> opaque (range_reads g e ~lo ~hi:(w - 1))
      in
      match (const_of g (p 0), const_of g (p 1)) with
      | Some _, Some _ -> no_deps
      | None, Some v -> against (p 0) c v
      | Some v, None -> against (p 1) (flip_cmp c) v
      | None, None -> full ())
  | Ir.Op.Mux -> (
      match const_of g (p 0) with
      | Some c -> wire (mk (if Int64.equal c 0L then p 2 else p 1) bit)
      | None ->
          let arm_reads =
            List.filter_map
              (fun e -> match const_of g e with
                | Some _ -> None
                | None -> Some (mk e bit))
              [ p 1; p 2 ]
          in
          opaque (mk (p 0) 0 :: arm_reads))
  | Ir.Op.Black_box _ ->
      let all =
        Array.to_list nd.preds
        |> List.concat_map (fun e ->
               range_reads g e ~lo:0 ~hi:(Ir.Cdfg.width g e.Ir.Cdfg.src - 1))
      in
      opaque all

type bit_support = { bits : Bitpos.Set.t; pure_wire : bool }

(* A bit position inside a graph is a flat index, [base.(node) + bit]; a
   boundary read is the key [flat * span + dist], where [span] exceeds
   every edge distance, so keys of distinct (node, bit, dist) differ. *)
type step = {
  keys : int array;  (** one key per read *)
  srcs : int array;
      (** the read's node when the read is combinational (it expands when
          that node is in the cone), -1 for a registered read (never
          expands) *)
  flats : int array;  (** the read's flat bit *)
  pos : int array;
      (** the read's operand position: the index in the reader's [preds]
          of the first edge from its node at its distance *)
  passthrough : bool;
}

type table = {
  graph : Ir.Cdfg.t;
  base : int array;
  owner : int array;  (** flat bit -> node *)
  span : int;
  steps : step array;  (** [dep] of every flat bit *)
  (* Scratch of the closure running now; a closure's stamp [gen] marks the
     cone's nodes and the flat bits it has closed. The support of closed
     bit [f] is [pool.(off.(f) .. off.(f) + len.(f) - 1)]: distinct keys,
     unordered, in one pool that each closure refills from 0. *)
  mutable gen : int;
  in_cone : int array;
  memo_gen : int array;
  off : int array;
  len : int array;
  memo_wire : bool array;
  mutable pool : int array;
  mutable top : int;
  (* Union scratch: [seen.(key) = ustamp] while [key] is in the union
     being built. *)
  mutable ustamp : int;
  seen : int array;
  (* The supports {!compose} is building. *)
  mutable out : int array;
}

let table g =
  let n = Ir.Cdfg.num_nodes g in
  let base = Array.make n 0 and total = ref 0 and span = ref 1 in
  for v = 0 to n - 1 do
    base.(v) <- !total;
    total := !total + Ir.Cdfg.width g v;
    Array.iter
      (fun (e : Ir.Cdfg.edge) -> span := max !span (e.dist + 1))
      (Ir.Cdfg.preds g v)
  done;
  let owner = Array.make !total 0 in
  for v = 0 to n - 1 do
    Array.fill owner base.(v) (Ir.Cdfg.width g v) v
  done;
  let step flat =
    let node = owner.(flat) in
    let d = dep g ~node ~bit:(flat - base.(node)) in
    let reads = Array.of_list d.reads in
    let preds = Ir.Cdfg.preds g node in
    let flat_of (r : Bitpos.t) = base.(r.node) + r.bit in
    let pos (r : Bitpos.t) =
      let rec go i =
        let e = preds.(i) in
        if e.Ir.Cdfg.src = r.node && e.dist = r.dist then i else go (i + 1)
      in
      go 0
    in
    {
      keys = Array.map (fun r -> (flat_of r * !span) + r.Bitpos.dist) reads;
      srcs =
        Array.map
          (fun (r : Bitpos.t) -> if r.dist = 0 then r.node else -1)
          reads;
      flats = Array.map flat_of reads;
      pos = Array.map pos reads;
      passthrough = d.passthrough;
    }
  in
  {
    graph = g;
    base;
    owner;
    span = !span;
    steps = Array.init !total step;
    gen = 0;
    in_cone = Array.make n 0;
    memo_gen = Array.make !total 0;
    off = Array.make !total 0;
    len = Array.make !total 0;
    memo_wire = Array.make !total true;
    pool = Array.make 256 0;
    top = 0;
    ustamp = 0;
    seen = Array.make (!total * !span) 0;
    out = Array.make 256 0;
  }

exception Too_wide

(* The reference closure: the support of every output bit of [root] within
   [cone], memoised per (node, bit) for this call. Every support reached
   below a root bit is a subset of that root bit's support, so once any
   set grows past [bound] the cone is infeasible and [Too_wide] is
   raised. *)
let close ~bound t ~root ~cone =
  t.gen <- t.gen + 1;
  t.top <- 0;
  let gen = t.gen in
  List.iter (fun v -> t.in_cone.(v) <- gen) cone;
  if t.in_cone.(root) <> gen then
    invalid_arg "Bitdep.closure: root not in cone";
  let rec go flat =
    if t.memo_gen.(flat) <> gen then begin
      (* Seed with an empty result to cut accidental cycles; the dist-0
         subgraph is acyclic so this is never observed on valid input. *)
      t.memo_gen.(flat) <- gen;
      t.len.(flat) <- 0;
      t.memo_wire.(flat) <- true;
      let s = t.steps.(flat) in
      let reads = Array.length s.keys in
      let wire = ref s.passthrough and expanded = ref 0 in
      for i = 0 to reads - 1 do
        let src = s.srcs.(i) in
        if src >= 0 && t.in_cone.(src) = gen then begin
          let sub = s.flats.(i) in
          go sub;
          incr expanded;
          if not t.memo_wire.(sub) then wire := false
        end
      done;
      if reads = 1 && !expanded = 1 then begin
        (* a single expanded read: its support, shared *)
        let sub = s.flats.(0) in
        t.off.(flat) <- t.off.(sub);
        t.len.(flat) <- t.len.(sub)
      end
      else begin
        (* the union, built at the top of the pool: each read adds its
           expanded support, or itself when it is a boundary read *)
        t.ustamp <- t.ustamp + 1;
        let u = t.ustamp and n = ref 0 in
        for i = 0 to reads - 1 do
          let src = s.srcs.(i) and sub = s.flats.(i) in
          let expand = src >= 0 && t.in_cone.(src) = gen in
          let from = if expand then t.pool else s.keys in
          let lo = if expand then t.off.(sub) else i in
          let hi = if expand then lo + t.len.(sub) - 1 else i in
          for j = lo to hi do
            let key = from.(j) in
            if t.seen.(key) <> u then begin
              if !n >= bound then raise Too_wide;
              t.seen.(key) <- u;
              let at = t.top + !n in
              if at = Array.length t.pool then begin
                let p = Array.make (2 * at) 0 in
                Array.blit t.pool 0 p 0 at;
                t.pool <- p
              end;
              t.pool.(at) <- key;
              incr n
            end
          done
        done;
        t.off.(flat) <- t.top;
        t.len.(flat) <- !n;
        t.top <- t.top + !n
      end;
      t.memo_wire.(flat) <- !wire
    end
  in
  for bit = 0 to Ir.Cdfg.width t.graph root - 1 do
    go (t.base.(root) + bit)
  done

type cone_support = { max_support : int; lut_bits : int }

let closure ?(bound = max_int) t ~root ~cone =
  match close ~bound t ~root ~cone with
  | exception Too_wide -> None
  | () ->
      let max_support = ref 0 and lut_bits = ref 0 in
      let first = t.base.(root) in
      for flat = first to first + Ir.Cdfg.width t.graph root - 1 do
        let n = t.len.(flat) in
        max_support := max !max_support n;
        if n >= 2 || (n = 1 && not t.memo_wire.(flat)) then
          incr lut_bits
      done;
      Some { max_support = !max_support; lut_bits = !lut_bits }

type supports = int array

(* Bit [b]'s record in a node's supports starts at [b * (k + 2)]: its
   size, its wire flag (1 or 0), then its first [min size k] keys. A size
   above [k] is too wide; it is [k + 1] when the bit reads a too-wide bit
   of an in-cone operand, else the exact count. Each union is built in
   [out] and checked against [seen]. *)
let compose ?(stop = false) t ~k ~root ops =
  let stride = k + 2 and first = t.base.(root) in
  let w = Ir.Cdfg.width t.graph root in
  if Array.length t.out < w * stride then
    t.out <- Array.make (max (w * stride) (2 * Array.length t.out)) 0;
  let out = t.out in
  match
    for bit = 0 to w - 1 do
      let s = t.steps.(first + bit) and o = bit * stride in
      t.ustamp <- t.ustamp + 1;
      let u = t.ustamp and n = ref 0 and wide = ref false in
      let wire = ref s.passthrough and i = ref 0 in
      let reads = Array.length s.keys in
      while !i < reads do
        let src = s.srcs.(!i) in
        let sub = if src >= 0 then ops.(s.pos.(!i)) else [||] in
        let expand = Array.length sub > 0 in
        let so =
          if expand then (s.flats.(!i) - t.base.(src)) * stride else 0
        in
        if expand && sub.(so + 1) = 0 then wire := false;
        if expand && sub.(so) > k then begin
          (* a too-wide bit below: this bit is too wide as well *)
          if stop then raise Too_wide;
          wide := true;
          i := reads
        end
        else begin
          let from = if expand then sub else s.keys in
          let lo = if expand then so + 2 else !i in
          let hi = if expand then so + 1 + sub.(so) else !i in
          for j = lo to hi do
            let key = from.(j) in
            if t.seen.(key) <> u then begin
              t.seen.(key) <- u;
              if !n < k then out.(o + 2 + !n) <- key
              else if stop then raise Too_wide;
              incr n
            end
          done;
          incr i
        end
      done;
      out.(o) <- (if !wide then k + 1 else !n);
      out.(o + 1) <- (if !wire then 1 else 0)
    done
  with
  | exception Too_wide -> None
  | () -> Some (Array.sub out 0 (w * stride))

let measure ~k sup =
  let stride = k + 2 in
  let max_support = ref 0 and lut_bits = ref 0 in
  for o = 0 to (Array.length sup / stride) - 1 do
    let n = sup.(o * stride) in
    max_support := max !max_support n;
    if n >= 2 || (n = 1 && sup.((o * stride) + 1) = 0) then incr lut_bits
  done;
  { max_support = !max_support; lut_bits = !lut_bits }

(* The views below each run the closure once on a fresh table. *)

let support g ~root ~cone ~bit =
  if bit < 0 || bit >= Ir.Cdfg.width g root then
    invalid_arg "Bitdep.support: bit outside the root's width";
  let t = table g in
  close ~bound:max_int t ~root ~cone:(Int_set.elements cone);
  let flat = t.base.(root) + bit in
  let bitpos key =
    let f = key / t.span in
    let node = t.owner.(f) in
    Bitpos.{ node; bit = f - t.base.(node); dist = key mod t.span }
  in
  let bits = ref Bitpos.Set.empty in
  for j = t.off.(flat) to t.off.(flat) + t.len.(flat) - 1 do
    bits := Bitpos.Set.add (bitpos t.pool.(j)) !bits
  done;
  { bits = !bits; pure_wire = t.memo_wire.(flat) }

let unbounded g ~root ~cone =
  Option.get (closure (table g) ~root ~cone:(Int_set.elements cone))

let max_support_width g ~root ~cone = (unbounded g ~root ~cone).max_support
let lut_bits g ~root ~cone = (unbounded g ~root ~cone).lut_bits
