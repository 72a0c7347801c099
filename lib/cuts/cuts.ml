module Int_set = Bitdep.Int_set

(* Instrumentation (lib/obs): additive — never influences which cuts are
   produced. *)
let c_candidates = Obs.Counter.get "cuts.candidates"
let c_enumerated = Obs.Counter.get "cuts.enumerated"
let c_infeasible = Obs.Counter.get "cuts.infeasible"
let c_pruned = Obs.Counter.get "cuts.pruned"
let c_merges = Obs.Counter.get "cuts.node_merges"
let c_closures = Obs.Counter.get "cuts.closures"
let c_walks = Obs.Counter.get "cuts.walks"
let c_truncated = Obs.Counter.get "cuts.deadline_truncations"

type cut = {
  root : int;
  leaves : int list;
  cone : Int_set.t;
  support : int;
  area : int;
}

type t = cut array array

type params = {
  k : int;
  max_cuts : int;
  max_candidates : int;
  max_leaf_words : int;
}

let default_params ~k =
  { k; max_cuts = 10; max_candidates = 512; max_leaf_words = k + 2 }

let is_trivial c = Int_set.cardinal c.cone = 1

let is_input c (e : Ir.Cdfg.edge) =
  e.dist > 0 || not (Int_set.mem e.src c.cone)

let iter_inputs g c f =
  Int_set.iter
    (fun w ->
      Array.iter (fun e -> if is_input c e then f w e) (Ir.Cdfg.preds g w))
    c.cone

(* Cone members must be computable logic: inputs and black boxes always
   stay at the boundary; constants may be absorbed (hardwired). *)
let absorbable g id =
  match Ir.Cdfg.op g id with
  | Ir.Op.Input _ | Ir.Op.Black_box _ -> false
  | Ir.Op.Const _ | Ir.Op.Not | Ir.Op.Bitwise _ | Ir.Op.Shl _ | Ir.Op.Shr _
  | Ir.Op.Slice _ | Ir.Op.Concat | Ir.Op.Add | Ir.Op.Sub | Ir.Op.Cmp _
  | Ir.Op.Mux ->
      true

let ceil_div a b = (a + b - 1) / b

(* LUT cost of [v]'s trivial cut, whose supports need [lut_bits] LUT
   bits. A cone of two or more nodes costs its [lut_bits]. *)
let trivial_area ~k g v ~lut_bits =
  match Ir.Cdfg.op g v with
  | Ir.Op.Input _ | Ir.Op.Const _ | Ir.Op.Shl _ | Ir.Op.Shr _ | Ir.Op.Slice _
  | Ir.Op.Concat | Ir.Op.Black_box _ ->
      0
  | Ir.Op.Not | Ir.Op.Bitwise _ | Ir.Op.Mux -> lut_bits
  | Ir.Op.Add | Ir.Op.Sub -> Ir.Cdfg.width g v
  | Ir.Op.Cmp _ ->
      let w_in = Ir.Cdfg.width g (Ir.Cdfg.preds g v).(0).Ir.Cdfg.src in
      max 1 (ceil_div ((2 * w_in) - 1) (k - 1))

(* The always-legal trivial cut: the node alone, operands as leaves, its
   supports composed with no operand in the cone. *)
let trivial_cut ~k deps g v =
  let preds = Ir.Cdfg.preds g v in
  let leaves =
    Array.to_list preds
    |> List.map (fun (e : Ir.Cdfg.edge) -> e.src)
    |> List.sort_uniq Int.compare
  in
  let sup =
    Bitdep.compose deps ~k ~root:v (Array.make (Array.length preds) (-1))
  in
  ( {
      root = v;
      leaves;
      cone = Int_set.singleton v;
      support = Bitdep.max_support deps;
      area = trivial_area ~k g v ~lut_bits:(Bitdep.lut_bits deps);
    },
    sup )

let trivial_only ?(k = 4) g =
  Bitdep.with_table g @@ fun deps ->
  Array.init (Ir.Cdfg.num_nodes g) (fun v ->
      [| fst (trivial_cut ~k deps g v) |])

(* A leaf set a successor's merge may choose for the operand [u]: [{u}]
   itself (no members, no supports: [u] stays a boundary), or the sorted
   leaves of one of [u]'s cuts with that cut's cone and its supports. *)
type block = {
  leaves : int array;
  members : int array;
  sup : Bitdep.supports;
}

(* [List.compare Int.compare] over the leaf arrays: by the first differing
   leaf, a prefix first. *)
let compare_leaves (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 in
  while !i < la && !i < lb && a.(!i) = b.(!i) do incr i done;
  if !i < la && !i < lb then Int.compare a.(!i) b.(!i) else Int.compare la lb

(* [bs] sorted by leaves by insertion, of two blocks with the same leaves
   the first kept: a node's leaf block, passed first, always is. *)
let sort_blocks (bs : block array) =
  let out = Array.copy bs and n = ref 0 in
  Array.iter
    (fun b ->
      let i = ref !n in
      while !i > 0 && compare_leaves out.(!i - 1).leaves b.leaves > 0 do
        decr i
      done;
      if !i = 0 || compare_leaves out.(!i - 1).leaves b.leaves <> 0 then begin
        for j = !n downto !i + 1 do
          out.(j) <- out.(j - 1)
        done;
        out.(!i) <- b;
        incr n
      end)
    bs;
  if !n = Array.length out then out else Array.sub out 0 !n

(* [Array.blit] of ints as a loop: it pays no write barrier per int when
   [b] lives in the major heap. *)
let blit_ints (a : int array) s (b : int array) d len =
  for i = 0 to len - 1 do
    b.(d + i) <- a.(s + i)
  done

(* [Array.fill] of ints as a loop, for the same reason. *)
let zero_ints (a : int array) s len =
  for i = s to s + len - 1 do
    a.(i) <- 0
  done

(* [a] with room for at least [n] ints, its contents kept. *)
let ensure a n =
  if n <= Array.length a then a
  else begin
    let b = Array.make (Int.max n (2 * Array.length a)) 0 in
    blit_ints a 0 b 0 (Array.length a);
    b
  end

(* A leaf set within one merge is a bit mask over the merge's universe,
   the leaves of every block its operands may choose in increasing id
   order: bit [i mod word_bits] of word [i / word_bits] stands for the
   universe's [i]th node, so a mask's bits order its leaves as ids do. *)
let word_bits = 62

let has_bit (a : int array) at i =
  a.(at + (i / word_bits)) land (1 lsl (i mod word_bits)) <> 0

let set_bit (a : int array) at i =
  let w = at + (i / word_bits) in
  a.(w) <- a.(w) lor (1 lsl (i mod word_bits))

(* The bits set in [a.(at .. at + words - 1)]. *)
let popcount (a : int array) at words =
  let c = ref 0 in
  for w = at to at + words - 1 do
    let m = ref a.(w) in
    while !m <> 0 do
      m := !m land (!m - 1);
      incr c
    done
  done;
  !c

(* A set of entries of [stride] ints each in [pool], the first [words]
   ints of an entry its key, found through the open-addressing table
   [slots.(0 .. mask)] of entry offsets: slot [i] is empty unless
   [gens.(i) = gen]. *)
type table = {
  mutable pool : int array;
  mutable top : int;
  mutable slots : int array;
  mutable gens : int array;
  mutable gen : int;
  mutable mask : int;
  mutable words : int;
  mutable stride : int;
}

(* Empties [x] for entries of [stride] ints keyed by their first [words],
   with slots for [n] entries at half load at most. *)
let clear x ~words ~stride n =
  let nslots = ref 64 in
  while !nslots < 2 * n do nslots := 2 * !nslots done;
  x.slots <- ensure x.slots !nslots;
  x.gens <- ensure x.gens !nslots;
  x.gen <- x.gen + 1;
  x.mask <- !nslots - 1;
  x.words <- words;
  x.stride <- stride;
  x.top <- 0

(* Room for an entry at [x.top], where the caller writes a key for
   {!intern}. *)
let reserve x =
  if x.top + x.stride > Array.length x.pool then
    x.pool <- ensure x.pool (x.top + x.stride)

(* The entry whose key is the one written at [x.top]: an older entry, or
   the one at [x.top] itself, then made, whose other ints are the
   caller's to write. *)
let intern x =
  let at = x.top and p = x.pool and words = x.words and h = ref 0 in
  for i = at to at + words - 1 do
    h := (!h lxor p.(i)) * 0x2f0b3a49
  done;
  let i = ref ((!h lxor (!h lsr 29)) land x.mask) and found = ref (-1) in
  while !found < 0 && x.gens.(!i) = x.gen do
    let e = x.slots.(!i) and j = ref 0 in
    while !j < words && p.(e + !j) = p.(at + !j) do incr j done;
    if !j = words then found := e else i := (!i + 1) land x.mask
  done;
  if !found >= 0 then !found
  else begin
    x.slots.(!i) <- at;
    x.gens.(!i) <- x.gen;
    x.top <- at + x.stride;
    at
  end

(* A leaf set's entry in the table of a merge holds its mask, its leaf
   count, the [fields] of its cone: its supports ([unvisited] before its
   closure, -1 for an infeasible cone), the offset and the size of its
   members in the members pool, its LUT bits and its max support; and,
   for a candidate, the picks of the first combination that produced
   it. *)
let fields = 5
let f_sup = 0
let f_moff = 1
let f_msize = 2
let f_lut = 3
let f_maxsup = 4
let unvisited = -2

(* Scratch of the merges of one [enumerate] call. [uni.(0 .. nuni - 1)]
   is the universe of the merge running now, and [local.(u)] the index of
   [u] in it while [in_uni.(u) = ustamp]. [masks.(base.(i) + 2 * words *
   j ..)] holds the leaf mask of block [j] of operand [i] and then its
   member mask, the members it has in the universe. [part] holds the
   partial unions of the cartesian product, one mask per depth, and
   [pick] the choice taken at each depth. [cand] holds the distinct leaf
   sets of the merge: first the candidates, then the reached leaves of
   walked candidates that no candidate has. *)
type product = {
  uni : int array;
  mutable nuni : int;
  local : int array;
  in_uni : int array;
  mutable ustamp : int;
  mutable base : int array;
  mutable masks : int array;
  mutable part : int array;
  mutable pick : int array;
  cand : table;
}

let product n =
  {
    uni = Array.make n 0;
    nuni = 0;
    local = Array.make n 0;
    in_uni = Array.make n 0;
    ustamp = 0;
    base = Array.make 8 0;
    masks = Array.make 256 0;
    part = Array.make 64 0;
    pick = Array.make 8 0;
    cand =
      {
        pool = Array.make 256 0;
        top = 0;
        slots = Array.make 64 0;
        gens = Array.make 64 0;
        gen = 0;
        mask = 63;
        words = 1;
        stride = 1;
      };
  }

(* Sets up the universe of [choices] (the blocks of each operand) and
   their masks; returns the words of a mask. *)
let universe x (choices : block array array) =
  x.ustamp <- x.ustamp + 1;
  let us = x.ustamp and nu = ref 0 in
  for i = 0 to Array.length choices - 1 do
    let bs = choices.(i) in
    for j = 0 to Array.length bs - 1 do
      let ls = bs.(j).leaves in
      for k = 0 to Array.length ls - 1 do
        let l = ls.(k) in
        if x.in_uni.(l) <> us then begin
          x.in_uni.(l) <- us;
          (* kept sorted by insertion *)
          let p = ref !nu in
          while !p > 0 && x.uni.(!p - 1) > l do
            x.uni.(!p) <- x.uni.(!p - 1);
            decr p
          done;
          x.uni.(!p) <- l;
          incr nu
        end
      done
    done
  done;
  x.nuni <- !nu;
  for i = 0 to !nu - 1 do
    x.local.(x.uni.(i)) <- i
  done;
  let words = Int.max 1 ((!nu + word_bits - 1) / word_bits) in
  let arity = Array.length choices in
  x.base <- ensure x.base arity;
  let total = ref 0 in
  for i = 0 to arity - 1 do
    x.base.(i) <- !total;
    total := !total + (2 * words * Array.length choices.(i))
  done;
  x.masks <- ensure x.masks !total;
  zero_ints x.masks 0 !total;
  for i = 0 to arity - 1 do
    let bs = choices.(i) in
    for j = 0 to Array.length bs - 1 do
      let lm = x.base.(i) + (2 * words * j) and b = bs.(j) in
      for k = 0 to Array.length b.leaves - 1 do
        set_bit x.masks lm x.local.(b.leaves.(k))
      done;
      for k = 0 to Array.length b.members - 1 do
        let u = b.members.(k) in
        if x.in_uni.(u) = us then set_bit x.masks (lm + words) x.local.(u)
      done
    done
  done;
  words

(* The capped cartesian product of [choices] (the blocks of each operand,
   sorted by leaves), in operand-major order: the first [cap]
   combinations, each the union of its choices' leaves, deduplicated into
   [x.cand], whose slots leave room for as many entries again. Returns
   the number of distinct candidates. *)
let merged_leaf_sets x ~cap choices =
  let arity = Array.length choices in
  let words = universe x choices in
  let combos =
    Array.fold_left (fun acc c -> Int.min cap (acc * Array.length c)) 1 choices
  in
  let cand = x.cand in
  clear cand ~words ~stride:(words + 1 + fields + arity) (2 * combos);
  x.pick <- ensure x.pick arity;
  x.part <- ensure x.part (arity * words);
  zero_ints x.part 0 words;
  let count = ref 0 and distinct = ref 0 in
  (* the union of the first [d] choices is [part.(d * words ..)] *)
  let rec go d =
    let blocks = choices.(d) and s = d * words and j = ref 0 in
    while !j < Array.length blocks && !count < cap do
      x.pick.(d) <- !j;
      let lm = x.base.(d) + (2 * words * !j) in
      if d + 1 < arity then begin
        for w = 0 to words - 1 do
          x.part.(s + words + w) <- x.part.(s + w) lor x.masks.(lm + w)
        done;
        go (d + 1)
      end
      else begin
        incr count;
        reserve cand;
        let at = cand.top and pool = cand.pool in
        for w = 0 to words - 1 do
          pool.(at + w) <- x.part.(s + w) lor x.masks.(lm + w)
        done;
        if intern cand = at then begin
          pool.(at + words) <- popcount pool at words;
          pool.(at + words + 1 + f_sup) <- unvisited;
          blit_ints x.pick 0 pool (at + words + 1 + fields) arity;
          incr distinct
        end
      end;
      incr j
    done
  in
  go 0;
  !distinct

let enumerate ?params ?(deadline = Resilience.Deadline.none) ?truncated ~k g =
  Obs.span ~cat:"cuts" "cuts.enumerate" @@ fun () ->
  if Resilience.Fault.fires "cuts.raise" then
    failwith "injected fault: cuts.raise";
  let forced_timeout = Resilience.Fault.fires "cuts.timeout" in
  let p = match params with Some p -> p | None -> default_params ~k in
  let n = Ir.Cdfg.num_nodes g in
  let absorb = Array.init n (absorbable g) in
  (* One dep table for every composition of this call, its arena holding
     every supports record; each node's trivial cut is computed once and
     reused by every merge. *)
  Bitdep.with_table g @@ fun deps ->
  let trivial = Array.init n (trivial_cut ~k:p.k deps g) in
  (* Building blocks: for each node, the leaf sets successors may choose
     from, sorted by leaves — the singleton {v} (v stays a boundary) plus
     every cut's leaf set with its cone and supports, the trivial cut's
     included, which is how a successor absorbs v itself with the
     boundary at v's operands. Non-absorbable nodes (inputs, black boxes)
     offer only {v}. *)
  let leaf =
    Array.init n (fun v -> { leaves = [| v |]; members = [||]; sup = -1 })
  in
  let trivial_block =
    Array.init n (fun v ->
        let c, sup = trivial.(v) in
        { leaves = Array.of_list c.leaves; members = [| v |]; sup })
  in
  let blocks =
    Array.init n (fun v ->
        if absorb.(v) then sort_blocks [| leaf.(v); trivial_block.(v) |]
        else [| leaf.(v) |])
  in
  let result : cut list array = Array.init n (fun v -> [ fst trivial.(v) ]) in
  (* Scratch reused by every merge of this call; no cache outlives it. *)
  let x = product n in
  (* Stamped marks of a candidate: its leaves and its cone's members. *)
  let stamp = ref 0 in
  let leaf_mark = Array.make n 0 and cone_mark = Array.make n 0 in
  let members = Array.make n 0 and size = ref 0 in
  (* Canonical cone of the marked leaf set: nodes reachable backward from
     [id] along dist-0 edges, stopping at leaves; the leaves it stops at
     are set in the mask at the top of [x.cand]. False when a
     non-absorbable node would fall inside the cone or a registered
     operand is not a leaf. *)
  let rec walk st id =
    if cone_mark.(id) = st then true
    else if leaf_mark.(id) = st then begin
      set_bit x.cand.pool x.cand.top x.local.(id);
      true
    end
    else if not absorb.(id) then false
    else begin
      cone_mark.(id) <- st;
      members.(!size) <- id;
      incr size;
      let preds = Ir.Cdfg.preds g id in
      let ok = ref true and i = ref 0 in
      while !ok && !i < Array.length preds do
        let e = preds.(!i) in
        if e.Ir.Cdfg.dist = 0 then ok := walk st e.src
        else if leaf_mark.(e.src) = st then
          set_bit x.cand.pool x.cand.top x.local.(e.src)
        else ok := false;
        incr i
      done;
      !ok
    end
  in
  (* [ops.(u)]: the supports of [u]'s operands for the composition of [u]
     running now. *)
  let ops =
    Array.init n (fun v -> Array.make (Array.length (Ir.Cdfg.preds g v)) (-1))
  in
  (* [u]'s supports within the candidate marked [st], composed from its
     in-cone operands', memoised per candidate. *)
  let within_gen = Array.make n 0 and within_sup = Array.make n (-1) in
  let rec within st u =
    if within_gen.(u) <> st then begin
      let preds = Ir.Cdfg.preds g u and o = ops.(u) in
      for i = 0 to Array.length preds - 1 do
        let e = preds.(i) in
        o.(i) <-
          (if e.dist = 0 && leaf_mark.(e.src) <> st then within st e.src
           else -1)
      done;
      within_sup.(u) <- Bitdep.compose deps ~k:p.k ~root:u o;
      within_gen.(u) <- st
    end;
    within_sup.(u)
  in
  (* Whether [members.(i ..)] hold none of the leaves marked [st]. *)
  let rec disjoint st members i =
    i = Array.length members
    || (leaf_mark.(members.(i)) <> st && disjoint st members (i + 1))
  in
  (* The cones of one merge are keyed by their reached leaves: unreached
     leaves do not change the cone, so candidates reaching the same leaves
     share it. A clean candidate reaches all its leaves, so its cone's
     entry is its own; a walked candidate's is the entry of its reached
     leaves, interned into [x.cand] after the candidates when no
     candidate has those leaves. *)
  let mpool = ref (Array.make 256 0) and mtop = ref 0 in
  let field e = e + x.cand.words + 1 in
  (* Feasible cones ranked by (area, support, leaf count, leaves): of two
     equally many sorted leaves, the first to differ is the lowest bit
     where the masks differ. *)
  let rank a b =
    let m = x.cand.pool and words = x.cand.words in
    let fa = field a and fb = field b in
    let c = Int.compare m.(fa + f_lut) m.(fb + f_lut) in
    if c <> 0 then c
    else
      let c = Int.compare m.(fa + f_maxsup) m.(fb + f_maxsup) in
      if c <> 0 then c
      else
        let c = Int.compare m.(a + words) m.(b + words) in
        if c <> 0 then c
        else begin
          let i = ref 0 in
          while !i < words && m.(a + !i) = m.(b + !i) do incr i done;
          if !i = words then 0
          else
            let d = m.(a + !i) lxor m.(b + !i) in
            if m.(a + !i) land d land -d <> 0 then -1 else 1
        end
  in
  (* The best [nbest] feasible cones of the merge running now, ranked;
     [offer] tells whether the cone it is given joined them. [by_sup] is
     scratch for the kept ones' supports fields in the order of their
     offsets. *)
  let best = Array.make (Int.max p.max_cuts 0) 0 and nbest = ref 0 in
  let by_sup = Array.make (Int.max p.max_cuts 0) 0 in
  let offer e =
    (!nbest < p.max_cuts || (!nbest > 0 && rank e best.(!nbest - 1) < 0))
    && begin
      let i = ref (Int.min !nbest (p.max_cuts - 1)) in
      while !i > 0 && rank e best.(!i - 1) < 0 do
        best.(!i) <- best.(!i - 1);
        decr i
      done;
      best.(!i) <- e;
      nbest := Int.min (!nbest + 1) p.max_cuts;
      true
    end
  in
  (* [v]'s cuts, its trivial cut first, and its blocks. *)
  let merge v =
    let preds = Ir.Cdfg.preds g v in
    let arity = Array.length preds in
    if (not absorb.(v)) || arity = 0 then ([ fst trivial.(v) ], blocks.(v))
    else
      let choices =
        Array.map
          (fun (e : Ir.Cdfg.edge) ->
            if e.dist > 0 then [| leaf.(e.src) |] else blocks.(e.src))
          preds
      in
      let candidates = merged_leaf_sets x ~cap:p.max_candidates choices in
      mtop := 0;
      nbest := 0;
      let m0 = Bitdep.mark deps and o = ops.(v) in
      let enumerated = ref 0 and infeasible = ref 0 and found = ref 0
      and closures = ref 0 and walks = ref 0 in
      let cand = x.cand and words = x.cand.words in
      (* the root's bit, when the root is in the universe *)
      let root = if x.in_uni.(v) = x.ustamp then x.local.(v) else -1 in
      let last = cand.top and at = ref 0 in
      while !at < last do
        let entry = !at in
        let picks = field entry + fields in
        at := entry + cand.stride;
        (* the root reaching itself through a recurrence is no cone *)
        if
          cand.pool.(entry + words) <= p.max_leaf_words
          && not (root >= 0 && has_bit cand.pool entry root)
        then begin
          incr stamp;
          let st = !stamp in
          (* A clean candidate: no chosen block's cone, its root
             included, holds one of its leaves. Each chosen block then
             closes exactly its cone here, as it did under its own
             leaves, so the candidate's cone is the root plus the blocks'
             members, it reaches every leaf, and each in-cone operand's
             supports are its block's. Other candidates walk their
             cone. The cone grows past the root iff some chosen block has
             members: then its root is one, and is in the universe, since
             its operand also offers itself as a leaf. *)
          let clean = ref true and grows = ref false and i = ref 0 in
          while !clean && !i < arity do
            let j = cand.pool.(picks + !i) in
            let mm = x.base.(!i) + (2 * words * j) + words in
            for w = 0 to words - 1 do
              let b = x.masks.(mm + w) in
              if b land cand.pool.(entry + w) <> 0 then clean := false;
              if b <> 0 then grows := true
            done;
            incr i
          done;
          (* a one-node cone is the trivial cut *)
          let cone =
            if !clean then if !grows then entry else -1
            else begin
              incr walks;
              (* the candidate's leaves are its chosen blocks' *)
              for i = 0 to arity - 1 do
                let ls = choices.(i).(cand.pool.(picks + i)).leaves in
                for j = 0 to Array.length ls - 1 do
                  leaf_mark.(ls.(j)) <- st
                done
              done;
              size := 0;
              reserve cand;
              let r = cand.top and pool = cand.pool in
              zero_ints pool r words;
              if walk st v && !size > 1 then begin
                let e = intern cand in
                if e = r then begin
                  pool.(r + words) <- popcount pool r words;
                  pool.(field r + f_sup) <- unvisited
                end;
                e
              end
              else -1
            end
          in
          if cone >= 0 then begin
            let f = field cone in
            if cand.pool.(f + f_sup) = unvisited then begin
              incr closures;
              let cm = Bitdep.mark deps in
              (* An in-cone operand's chosen block closes exactly its
                 sub-cone here when the block's cone holds none of the
                 candidate's leaves; otherwise another operand brought in
                 a leaf inside it, and the sub-cone is built. *)
              for i = 0 to arity - 1 do
                let b = choices.(i).(cand.pool.(picks + i)) in
                o.(i) <-
                  (if !clean then b.sup
                   else
                     let e = preds.(i) in
                     if e.dist > 0 || leaf_mark.(e.src) = st then -1
                     else if disjoint st b.members 0 then b.sup
                     else within st e.src)
              done;
              let s = Bitdep.compose ~stop:true deps ~k:p.k ~root:v o in
              cand.pool.(f + f_sup) <- s;
              let best_so_far =
                s >= 0
                && begin
                  if !clean then begin
                    (* the cone's members: the root and the chosen
                       blocks' *)
                    cone_mark.(v) <- st;
                    members.(0) <- v;
                    size := 1;
                    for i = 0 to arity - 1 do
                      let mb = choices.(i).(cand.pool.(picks + i)).members in
                      for j = 0 to Array.length mb - 1 do
                        let u = mb.(j) in
                        if cone_mark.(u) <> st then begin
                          cone_mark.(u) <- st;
                          members.(!size) <- u;
                          incr size
                        end
                      done
                    done
                  end;
                  if !mtop + !size > Array.length !mpool then
                    mpool := ensure !mpool (!mtop + !size);
                  blit_ints members 0 !mpool !mtop !size;
                  let m = cand.pool in
                  m.(f + f_moff) <- !mtop;
                  m.(f + f_msize) <- !size;
                  m.(f + f_lut) <- Bitdep.lut_bits deps;
                  m.(f + f_maxsup) <- Bitdep.max_support deps;
                  mtop := !mtop + !size;
                  incr found;
                  offer cone
                end
              in
              (* The sub-cones built for this candidate are dead now, and
                 so are the cone's supports unless it ranks among the
                 best so far. *)
              Bitdep.release deps cm;
              if best_so_far then
                cand.pool.(f + f_sup) <- Bitdep.keep deps ~k:p.k ~root:v s
            end;
            if cand.pool.(f + f_sup) >= 0 then incr enumerated
            else incr infeasible
          end
        end
      done;
      (* Only the kept cones become cuts. Their supports, in the order of
         their offsets, move down to [m0]; the records of cones pushed out
         of the best by better ones are dropped. *)
      let nk = !nbest and m = cand.pool in
      for i = 0 to nk - 1 do
        let f = field best.(i) + f_sup and j = ref i in
        while !j > 0 && m.(by_sup.(!j - 1)) > m.(f) do
          by_sup.(!j) <- by_sup.(!j - 1);
          decr j
        done;
        by_sup.(!j) <- f
      done;
      Bitdep.release deps m0;
      for i = 0 to nk - 1 do
        let f = by_sup.(i) in
        m.(f) <- Bitdep.keep deps ~k:p.k ~root:v m.(f)
      done;
      let bs = Array.make (nk + 2) leaf.(v) and cuts = ref [] in
      bs.(1) <- trivial_block.(v);
      for i = nk - 1 downto 0 do
        let e = best.(i) in
        let f = field e in
        let leaves = Array.make m.(e + words) 0 and l = ref 0 in
        for u = 0 to x.nuni - 1 do
          if has_bit m e u then begin
            leaves.(!l) <- x.uni.(u);
            incr l
          end
        done;
        let members = Array.sub !mpool m.(f + f_moff) m.(f + f_msize) in
        bs.(i + 2) <- { leaves; members; sup = m.(f + f_sup) };
        cuts :=
          {
            root = v;
            leaves = Array.to_list leaves;
            cone =
              Array.fold_left
                (fun s u -> Int_set.add u s)
                Int_set.empty members;
            support = m.(f + f_maxsup);
            area = m.(f + f_lut);
          }
          :: !cuts
      done;
      Obs.Counter.incr ~by:candidates c_candidates;
      Obs.Counter.incr ~by:!enumerated c_enumerated;
      Obs.Counter.incr ~by:!infeasible c_infeasible;
      Obs.Counter.incr ~by:!closures c_closures;
      Obs.Counter.incr ~by:!walks c_walks;
      Obs.Counter.incr ~by:(!found - nk) c_pruned;
      (fst trivial.(v) :: !cuts, sort_blocks bs)
  in
  (* Algorithm 1: worklist over nodes in topological order; re-enqueue
     successors whenever a node's cut set changes. On our graphs (dist-0
     subgraph acyclic) this converges after one pass. *)
  let queue = Queue.create () in
  let queued = Array.make n false in
  List.iter
    (fun v ->
      Queue.add v queue;
      queued.(v) <- true)
    (Ir.Cdfg.topo_order g);
  let same_cutset a b =
    List.length a = List.length b
    && List.for_all2
         (fun (x : cut) (y : cut) -> List.equal Int.equal x.leaves y.leaves)
         a b
  in
  (* Deadline degradation: abandoning the worklist early is safe because
     every node's cut set starts as [trivial] — downstream consumers just
     see fewer non-trivial choices, never an invalid set. *)
  let stop_early () =
    Obs.Counter.incr c_truncated;
    (match truncated with Some r -> r := true | None -> ());
    Queue.clear queue
  in
  if forced_timeout then stop_early ();
  while not (Queue.is_empty queue) do
    if Resilience.Deadline.expired deadline then stop_early ()
    else begin
    let v = Queue.pop queue in
    queued.(v) <- false;
    Obs.Counter.incr c_merges;
    let cuts, fresh_blocks =
      Obs.span ~cat:"cuts" "cuts.node"
        ~args:
          (if Obs.Trace.enabled () then [ ("node", Obs.Json.Int v) ] else [])
        (fun () -> merge v)
    in
    if not (same_cutset cuts result.(v)) then begin
      result.(v) <- cuts;
      blocks.(v) <- fresh_blocks;
      List.iter
        (fun (s, dist) ->
          if dist = 0 && not queued.(s) then begin
            Queue.add s queue;
            queued.(s) <- true
          end)
        (Ir.Cdfg.succs g v)
    end
    end
  done;
  Array.map Array.of_list result

let delay ~device ~delays g cut =
  if is_trivial cut then
    let op = Ir.Cdfg.op g cut.root in
    let width =
      (* a comparison walks its operands' carry chain, not its 1-bit out *)
      match op with
      | Ir.Op.Cmp _ -> Ir.Cdfg.width g (Ir.Cdfg.preds g cut.root).(0).Ir.Cdfg.src
      | _ -> Ir.Cdfg.width g cut.root
    in
    match Ir.Op.classify op with
    | Fpga.Op_class.Wire -> 0.0
    | Fpga.Op_class.Logic ->
        if cut.area = 0 then 0.0 else device.Fpga.Device.lut_delay
    | Fpga.Op_class.Arith ->
        Fpga.Delays.additive delays ~cls:Fpga.Op_class.Arith ~width
    | Fpga.Op_class.Black_box _ as cls ->
        Fpga.Delays.additive delays ~cls ~width
  else if cut.area = 0 then 0.0
  else device.Fpga.Device.lut_delay

let total_cuts t = Array.fold_left (fun acc cs -> acc + Array.length cs) 0 t

let pp_cut g ppf c =
  Fmt.pf ppf "@[<h>%s <- {%a} cone=%d sup=%d area=%d@]"
    (Ir.Cdfg.node_name g c.root)
    Fmt.(list ~sep:comma string)
    (List.map (Ir.Cdfg.node_name g) c.leaves)
    (Int_set.cardinal c.cone) c.support c.area

let pp_node_cuts g ppf (v, cs) =
  Fmt.pf ppf "@[<v2>%s (%d cuts):@,%a@]" (Ir.Cdfg.node_name g v)
    (Array.length cs)
    Fmt.(array ~sep:cut (pp_cut g))
    cs
