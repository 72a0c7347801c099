module Int_set = Bitdep.Int_set

(* Instrumentation (lib/obs): additive — never influences which cuts are
   produced. *)
let c_candidates = Obs.Counter.get "cuts.candidates"
let c_enumerated = Obs.Counter.get "cuts.enumerated"
let c_infeasible = Obs.Counter.get "cuts.infeasible"
let c_pruned = Obs.Counter.get "cuts.pruned"
let c_merges = Obs.Counter.get "cuts.node_merges"
let c_closures = Obs.Counter.get "cuts.closures"
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

(* LUT cost of [v]'s trivial cut, whose cone support is [s]. A cone of
   two or more nodes costs its [s.lut_bits]. *)
let trivial_area ~k g v (s : Bitdep.cone_support) =
  match Ir.Cdfg.op g v with
  | Ir.Op.Input _ | Ir.Op.Const _ | Ir.Op.Shl _ | Ir.Op.Shr _ | Ir.Op.Slice _
  | Ir.Op.Concat | Ir.Op.Black_box _ ->
      0
  | Ir.Op.Not | Ir.Op.Bitwise _ | Ir.Op.Mux -> s.lut_bits
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
  let s = Bitdep.measure deps ~k ~root:v sup in
  ( {
      root = v;
      leaves;
      cone = Int_set.singleton v;
      support = s.max_support;
      area = trivial_area ~k g v s;
    },
    sup )

let trivial_only ?(k = 4) g =
  Bitdep.with_table g @@ fun deps ->
  Array.init (Ir.Cdfg.num_nodes g) (fun v ->
      [| fst (trivial_cut ~k deps g v) |])

let compare_leaves = List.compare Int.compare

(* A leaf set a successor's merge may choose for the operand [u]: [{u}]
   itself (no members, no supports: [u] stays a boundary), or the leaves
   of one of [u]'s cuts with that cut's cone and its supports. *)
type block = { leaves : int list; members : int array; sup : Bitdep.supports }

(* [Array.blit] of ints as a loop: it pays no write barrier per int when
   [b] lives in the major heap. Copies forward, so it may overlap only
   with [d <= s]. *)
let blit_ints (a : int array) s (b : int array) d len =
  for i = 0 to len - 1 do
    b.(d + i) <- a.(s + i)
  done

(* [a] with room for at least [n] ints, its contents kept. *)
let ensure a n =
  if n <= Array.length a then a
  else begin
    let b = Array.make (Int.max n (2 * Array.length a)) 0 in
    blit_ints a 0 b 0 (Array.length a);
    b
  end

(* A set of int slices, each entry of [pool] its length [len], its [len]
   ints and then [extra] ints of the caller's, found through the
   open-addressing table [slots.(0 .. mask)] of entry offsets (-1
   empty). *)
type slices = {
  mutable pool : int array;
  mutable top : int;
  mutable slots : int array;
  mutable mask : int;
}

let slices () =
  { pool = Array.make 256 0; top = 0; slots = Array.make 64 (-1); mask = 63 }

(* Empties [x], with slots for [n] entries at half load at most. *)
let clear x n =
  let nslots = ref 64 in
  while !nslots < 2 * n do nslots := 2 * !nslots done;
  x.slots <- ensure x.slots !nslots;
  Array.fill x.slots 0 !nslots (-1);
  x.mask <- !nslots - 1;
  x.top <- 0

let rec same_from (pool : int array) at (src : int array) s len i =
  i >= len
  || (pool.(at + 1 + i) = src.(s + i) && same_from pool at src s len (i + 1))

(* Whether the entry at [at] holds [src.(s .. s + len - 1)]. *)
let same pool at src s len = pool.(at) = len && same_from pool at src s len 0

(* The offset of the entry holding [src.(s .. s + len - 1)], made with
   room for [extra] ints after it when there is none yet: a new entry's
   offset is the [top] before the call. *)
let intern x ~extra (src : int array) s len =
  let h = ref len in
  for i = s to s + len - 1 do
    h := (!h * 0x2f0b3a49) + src.(i)
  done;
  let i = ref (!h land x.mask) in
  while x.slots.(!i) >= 0 && not (same x.pool x.slots.(!i) src s len) do
    i := (!i + 1) land x.mask
  done;
  if x.slots.(!i) >= 0 then x.slots.(!i)
  else begin
    let at = x.top in
    if at + 1 + len + extra > Array.length x.pool then
      x.pool <- ensure x.pool (at + 1 + len + extra);
    x.slots.(!i) <- at;
    x.pool.(at) <- len;
    blit_ints src s x.pool (at + 1) len;
    x.top <- at + 1 + len + extra;
    at
  end

(* Scratch of the merge candidates, reused by every merge of one
   [enumerate] call. [part] holds the partial unions of the cartesian
   product, one segment per depth, and [pick] the choice taken at each
   depth; [cand] the distinct candidates, each its sorted leaves and then
   the picks of the first combination that produced it. *)
type product = {
  mutable part : int array;
  mutable pick : int array;
  cand : slices;
}

(* Merges the sorted [leaves] into the sorted [b.(i .. dst - 1)], writing
   the union from [b.(j)] on; returns the union's end. *)
let rec merge_into (b : int array) ~dst i j = function
  | [] ->
      blit_ints b i b j (dst - i);
      j + dst - i
  | l :: rest as leaves ->
      if i < dst && b.(i) < l then begin
        b.(j) <- b.(i);
        merge_into b ~dst (i + 1) (j + 1) leaves
      end
      else begin
        b.(j) <- l;
        let i = if i < dst && b.(i) = l then i + 1 else i in
        merge_into b ~dst i (j + 1) rest
      end

(* The capped cartesian product of [choices] (the blocks of each operand,
   sorted by leaves), in operand-major order: the first [cap]
   combinations, each the union of its choices' leaves, deduplicated into
   [x.cand]. Returns the number of distinct candidates. *)
let merged_leaf_sets x ~cap choices =
  let arity = Array.length choices in
  let combos =
    Array.fold_left (fun acc c -> Int.min cap (acc * Array.length c)) 1 choices
  in
  clear x.cand combos;
  x.pick <- ensure x.pick arity;
  let count = ref 0 and distinct = ref 0 in
  (* the union of the first [d] choices is [part.(s .. s + len - 1)] *)
  let rec go d s len =
    if d = arity then begin
      incr count;
      let top = x.cand.top in
      if intern x.cand ~extra:arity x.part s len = top then begin
        blit_ints x.pick 0 x.cand.pool (top + 1 + len) arity;
        incr distinct
      end
    end
    else begin
      let blocks = choices.(d) and j = ref 0 in
      while !j < Array.length blocks && !count < cap do
        x.pick.(d) <- !j;
        let dst = s + len and leaves = blocks.(!j).leaves in
        if dst + len + List.length leaves > Array.length x.part then
          x.part <- ensure x.part (dst + len + List.length leaves);
        go (d + 1) dst (merge_into x.part ~dst s dst leaves - dst);
        incr j
      done
    end
  in
  go 0 0 0;
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
  (* Each node's cuts come paired with their blocks. Building blocks: for
     each node, the leaf sets successors may choose from — the singleton
     {v} plus v's own enumerated cuts, each with its cone and supports. *)
  let trivial =
    Array.init n (fun v ->
        let c, sup = trivial_cut ~k:p.k deps g v in
        (c, { leaves = c.leaves; members = [| v |]; sup }))
  in
  let leaf =
    Array.init n (fun v -> { leaves = [ v ]; members = [||]; sup = -1 })
  in
  let blocks_of v fresh =
    if absorb.(v) then
      leaf.(v) :: List.map snd fresh
      |> List.sort_uniq (fun a b -> compare_leaves a.leaves b.leaves)
      |> Array.of_list
    else [| leaf.(v) |]
  in
  let blocks = Array.init n (fun v -> blocks_of v [ trivial.(v) ]) in
  let result : cut list array = Array.init n (fun v -> [ fst trivial.(v) ]) in
  (* Scratch reused by every merge of this call; no cache outlives it. *)
  let x = { part = Array.make 64 0; pick = Array.make 8 0; cand = slices () } in
  (* Stamped marks of the cone walk: a candidate's leaves, the cone's
     members, and the leaves the walk reached. *)
  let stamp = ref 0 in
  let leaf_mark = Array.make n 0 and cone_mark = Array.make n 0
  and reach_mark = Array.make n 0 in
  let members = Array.make n 0 and size = ref 0 in
  (* Canonical cone of the marked leaf set: nodes reachable backward from
     [id] along dist-0 edges, stopping at leaves; the leaves it stops at
     are marked reached. False when a non-absorbable node would fall
     inside the cone or a registered operand is not a leaf. *)
  let rec walk st id =
    if cone_mark.(id) = st then true
    else if leaf_mark.(id) = st then begin
      reach_mark.(id) <- st;
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
        else if leaf_mark.(e.src) = st then reach_mark.(e.src) <- st
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
  (* The distinct cones of one merge by reached leaves: unreached leaves
     do not change the cone, so candidates reaching the same leaves share
     it. Each entry's leaves are followed by its [fields]: its supports
     (-1 for an infeasible cone), the offset and the size of its members
     in [mpool], its LUT bits and its max support. *)
  let memo = slices () and reached = Array.make n 0 in
  let mpool = ref (Array.make 256 0) and mtop = ref 0 in
  let fields = 5 and f_sup = 0 and f_moff = 1 and f_msize = 2 and f_lut = 3
  and f_maxsup = 4 in
  let field e = e + 1 + memo.pool.(e) in
  (* Feasible cones ranked by (area, support, leaf count, leaves). *)
  let rank a b =
    let m = memo.pool and fa = field a and fb = field b in
    let c = Int.compare m.(fa + f_lut) m.(fb + f_lut) in
    if c <> 0 then c
    else
      let c = Int.compare m.(fa + f_maxsup) m.(fb + f_maxsup) in
      if c <> 0 then c
      else
        let c = Int.compare m.(a) m.(b) in
        let i = ref 1 in
        while c = 0 && !i <= m.(a) && m.(a + !i) = m.(b + !i) do incr i done;
        if c <> 0 || !i > m.(a) then c else Int.compare m.(a + !i) m.(b + !i)
  in
  (* The best [nbest] feasible cones of the merge running now, ranked;
     [offer] tells whether the cone it is given joined them. *)
  let best = Array.make (Int.max p.max_cuts 0) 0 and nbest = ref 0 in
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
  let merge v =
    if not absorb.(v) then [ trivial.(v) ]
    else
      let preds = Ir.Cdfg.preds g v in
      let arity = Array.length preds in
      if arity = 0 then [ trivial.(v) ]
      else
        let choices =
          Array.map
            (fun (e : Ir.Cdfg.edge) ->
              if e.dist > 0 then [| leaf.(e.src) |] else blocks.(e.src))
            preds
        in
        let candidates = merged_leaf_sets x ~cap:p.max_candidates choices in
        clear memo candidates;
        mtop := 0;
        nbest := 0;
        let m0 = Bitdep.mark deps and o = ops.(v) in
        let enumerated = ref 0 and infeasible = ref 0 and found = ref 0
        and closures = ref 0 in
        let c = x.cand.pool and at = ref 0 in
        while !at < x.cand.top do
          let len = c.(!at) and first = !at + 1 in
          let picks = first + len in
          at := picks + arity;
          incr stamp;
          let st = !stamp in
          for i = first to first + len - 1 do
            leaf_mark.(c.(i)) <- st
          done;
          size := 0;
          (* the root reaching itself through a recurrence is no cone; a
             one-node cone is the trivial cut *)
          if
            len <= p.max_leaf_words
            && leaf_mark.(v) <> st
            && walk st v && !size > 1
          then begin
            let nr = ref 0 in
            for i = first to first + len - 1 do
              if reach_mark.(c.(i)) = st then begin
                reached.(!nr) <- c.(i);
                incr nr
              end
            done;
            let top = memo.top in
            let cone = intern memo ~extra:fields reached 0 !nr in
            if cone = top then begin
              incr closures;
              let cm = Bitdep.mark deps in
              (* An in-cone operand's chosen block closes exactly its
                 sub-cone here when the block's cone holds none of the
                 candidate's leaves; otherwise another operand brought in
                 a leaf inside it, and the sub-cone is built. *)
              for i = 0 to arity - 1 do
                let e = preds.(i) in
                o.(i) <-
                  (if e.dist > 0 || leaf_mark.(e.src) = st then -1
                   else
                     let b = choices.(i).(c.(picks + i)) in
                     if disjoint st b.members 0 then b.sup
                     else within st e.src)
              done;
              let s = Bitdep.compose ~stop:true deps ~k:p.k ~root:v o in
              let f = field cone in
              memo.pool.(f + f_sup) <- s;
              let best_so_far =
                s >= 0
                && begin
                  let cs = Bitdep.measure deps ~k:p.k ~root:v s in
                  if !mtop + !size > Array.length !mpool then
                    mpool := ensure !mpool (!mtop + !size);
                  blit_ints members 0 !mpool !mtop !size;
                  memo.pool.(f + f_moff) <- !mtop;
                  memo.pool.(f + f_msize) <- !size;
                  memo.pool.(f + f_lut) <- cs.lut_bits;
                  memo.pool.(f + f_maxsup) <- cs.max_support;
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
                memo.pool.(f + f_sup) <- Bitdep.keep deps ~k:p.k ~root:v s
            end;
            if memo.pool.(field cone + f_sup) >= 0 then incr enumerated
            else incr infeasible
          end
        done;
        (* Only the kept cones become cuts. Their supports, in the order
           of their entries, move down to [m0]; the records of cones
           pushed out of the best by better ones are dropped. *)
        let kept = Array.sub best 0 !nbest in
        let by_entry = Array.copy kept in
        Array.sort Int.compare by_entry;
        Bitdep.release deps m0;
        Array.iter
          (fun e ->
            let f = field e + f_sup in
            memo.pool.(f) <- Bitdep.keep deps ~k:p.k ~root:v memo.pool.(f))
          by_entry;
        let cut e =
          let m = memo.pool and f = field e in
          let leaves = List.init m.(e) (fun i -> m.(e + 1 + i)) in
          let members = Array.sub !mpool m.(f + f_moff) m.(f + f_msize) in
          ( {
              root = v;
              leaves;
              cone = Int_set.of_list (Array.to_list members);
              support = m.(f + f_maxsup);
              area = m.(f + f_lut);
            },
            { leaves; members; sup = m.(f + f_sup) } )
        in
        Obs.Counter.incr ~by:candidates c_candidates;
        Obs.Counter.incr ~by:!enumerated c_enumerated;
        Obs.Counter.incr ~by:!infeasible c_infeasible;
        Obs.Counter.incr ~by:!closures c_closures;
        Obs.Counter.incr ~by:(!found - !nbest) c_pruned;
        trivial.(v) :: List.map cut (Array.to_list kept)
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
    let fresh =
      Obs.span ~cat:"cuts" "cuts.node"
        ~args:[ ("node", Obs.Json.Int v) ]
        (fun () -> merge v)
    in
    let cuts = List.map fst fresh in
    if not (same_cutset cuts result.(v)) then begin
      result.(v) <- cuts;
      (* Building blocks: the singleton {v} (v stays a boundary) plus every
         cut's leaf set — including the trivial cut's, which is how a
         successor absorbs v itself with the boundary at v's operands.
         Non-absorbable nodes (inputs, black boxes) offer only {v}. *)
      blocks.(v) <- blocks_of v fresh;
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
