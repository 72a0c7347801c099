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
    Option.get
      (Bitdep.compose deps ~k ~root:v (Array.make (Array.length preds) [||]))
  in
  let s = Bitdep.measure ~k sup in
  ( {
      root = v;
      leaves;
      cone = Int_set.singleton v;
      support = s.max_support;
      area = trivial_area ~k g v s;
    },
    sup )

let trivial_only ?(k = 4) g =
  let deps = Bitdep.table g in
  Array.init (Ir.Cdfg.num_nodes g) (fun v ->
      [| fst (trivial_cut ~k deps g v) |])

let compare_leaves = List.compare Int.compare

(* A leaf set a successor's merge may choose for the operand [u]: [{u}]
   itself (no members, no supports: [u] stays a boundary), or the leaves
   of one of [u]'s cuts with that cut's cone and its supports. *)
type block = { leaves : int list; members : int array; sup : Bitdep.supports }

(* A feasible non-trivial cone found by a merge, before ranking: its
   reached leaves (sorted), their count, its members and its supports.
   Only the kept ones become [cut]s. *)
type found = {
  reached : int list;
  width : int;
  members : int array;
  s : Bitdep.cone_support;
  sup : Bitdep.supports;
}

(* Ranked by (area, support, leaf count, leaves). *)
let rank a b =
  let c = Int.compare a.s.lut_bits b.s.lut_bits in
  if c <> 0 then c
  else
    let c = Int.compare a.s.max_support b.s.max_support in
    if c <> 0 then c
    else
      let c = Int.compare a.width b.width in
      if c <> 0 then c else compare_leaves a.reached b.reached

(* [a] with room for at least [n] ints, its contents kept. *)
let ensure a n =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Scratch of the merge candidates, reused by every merge of one
   [enumerate] call. [part] holds the partial unions of the cartesian
   product, one segment per depth, and [pick] the choice taken at each
   depth; [cand.(0 .. top - 1)] the distinct candidates, each its length,
   its sorted leaves and the picks of the first combination that produced
   it, found through the open-addressing table [slots.(0 .. mask)] (start
   offsets, -1 empty). *)
type product = {
  mutable part : int array;
  mutable pick : int array;
  mutable cand : int array;
  mutable top : int;
  mutable slots : int array;
  mutable mask : int;
}

(* Adds the union in [part.(s .. s + len - 1)], with the picks of its
   first [arity] depths, to the candidates unless it is one already;
   returns whether it was new. *)
let add_candidate x ~arity s len =
  let b = x.part and mask = x.mask in
  let h = ref len in
  for i = s to s + len - 1 do
    h := (!h * 0x2f0b3a49) + b.(i)
  done;
  let same at =
    let c = x.cand in
    let rec go i = i >= len || (c.(at + 1 + i) = b.(s + i) && go (i + 1)) in
    c.(at) = len && go 0
  in
  let i = ref (!h land mask) in
  while x.slots.(!i) >= 0 && not (same x.slots.(!i)) do
    i := (!i + 1) land mask
  done;
  x.slots.(!i) < 0
  && begin
    x.cand <- ensure x.cand (x.top + len + 1 + arity);
    x.slots.(!i) <- x.top;
    x.cand.(x.top) <- len;
    Array.blit b s x.cand (x.top + 1) len;
    Array.blit x.pick 0 x.cand (x.top + 1 + len) arity;
    x.top <- x.top + len + 1 + arity;
    true
  end

(* The capped cartesian product of [choices] (the blocks of each operand,
   sorted by leaves), in operand-major order: the first [cap]
   combinations, each the union of its choices' leaves, deduplicated into
   [x.cand]. Returns the number of distinct candidates. *)
let merged_leaf_sets x ~cap choices =
  let arity = Array.length choices in
  let combos =
    Array.fold_left (fun acc c -> min cap (acc * Array.length c)) 1 choices
  in
  let nslots = ref 64 in
  while !nslots < 2 * combos do nslots := 2 * !nslots done;
  x.slots <- ensure x.slots !nslots;
  Array.fill x.slots 0 !nslots (-1);
  x.mask <- !nslots - 1;
  x.pick <- ensure x.pick arity;
  x.top <- 0;
  let count = ref 0 and distinct = ref 0 in
  (* the union of the first [d] choices is [part.(s .. s + len - 1)] *)
  let rec go d s len =
    if d = arity then begin
      incr count;
      if add_candidate x ~arity s len then incr distinct
    end
    else
      Array.iteri
        (fun j block ->
          if !count < cap then begin
            x.pick.(d) <- j;
            let dst = s + len in
            x.part <- ensure x.part (dst + len + List.length block.leaves);
            let b = x.part in
            let rec merge i j = function
              | [] ->
                  Array.blit b i b j (dst - i);
                  j + dst - i
              | l :: rest as leaves ->
                  if i < dst && b.(i) < l then begin
                    b.(j) <- b.(i);
                    merge (i + 1) (j + 1) leaves
                  end
                  else begin
                    b.(j) <- l;
                    let i = if i < dst && b.(i) = l then i + 1 else i in
                    merge i (j + 1) rest
                  end
            in
            go (d + 1) dst (merge s dst block.leaves - dst)
          end)
        choices.(d)
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
  (* One dep table for every composition of this call; each node's trivial
     cut is computed once and reused by every merge. *)
  let deps = Bitdep.table g in
  (* Each node's cuts come paired with their blocks. Building blocks: for
     each node, the leaf sets successors may choose from — the singleton
     {v} plus v's own enumerated cuts, each with its cone and supports. *)
  let trivial =
    Array.init n (fun v ->
        let c, sup = trivial_cut ~k:p.k deps g v in
        (c, { leaves = c.leaves; members = [| v |]; sup }))
  in
  let leaf =
    Array.init n (fun v -> { leaves = [ v ]; members = [||]; sup = [||] })
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
  let x =
    {
      part = Array.make 64 0;
      pick = Array.make 8 0;
      cand = Array.make 256 0;
      top = 0;
      slots = Array.make 64 0;
      mask = 0;
    }
  in
  (* Stamped marks of the cone walk: a candidate's leaves, the cone's
     members, and the leaves the walk reached. *)
  let stamp = ref 0 in
  let leaf_mark = Array.make n 0 and cone_mark = Array.make n 0
  and reach_mark = Array.make n 0 in
  let members = Array.make n 0 and size = ref 0 in
  (* Canonical cone of the marked leaf set: nodes reachable backward from
     [id] along dist-0 edges, stopping at leaves; the leaves it stops at
     are marked reached. Raises [Exit] when a non-absorbable node would
     fall inside the cone or a registered operand is not a leaf. *)
  let rec walk st id =
    if cone_mark.(id) = st then ()
    else if leaf_mark.(id) = st then reach_mark.(id) <- st
    else if not absorb.(id) then raise Exit
    else begin
      cone_mark.(id) <- st;
      members.(!size) <- id;
      incr size;
      let preds = Ir.Cdfg.preds g id in
      for i = 0 to Array.length preds - 1 do
        let e = preds.(i) in
        if e.Ir.Cdfg.dist = 0 then walk st e.src
        else if leaf_mark.(e.src) = st then reach_mark.(e.src) <- st
        else raise Exit
      done
    end
  in
  (* [u]'s supports within the candidate marked [st], composed from its
     in-cone operands', memoised per candidate. *)
  let within_gen = Array.make n 0 and within_sup = Array.make n [||] in
  let rec within st u =
    if within_gen.(u) <> st then begin
      let preds = Ir.Cdfg.preds g u in
      let ops = Array.make (Array.length preds) [||] in
      for i = 0 to Array.length preds - 1 do
        let e = preds.(i) in
        if e.dist = 0 && leaf_mark.(e.src) <> st then
          ops.(i) <- within st e.src
      done;
      within_sup.(u) <- Option.get (Bitdep.compose deps ~k:p.k ~root:u ops);
      within_gen.(u) <- st
    end;
    within_sup.(u)
  in
  (* Whether [members.(i ..)] hold none of the leaves marked [st]. *)
  let rec disjoint st members i =
    i = Array.length members
    || (leaf_mark.(members.(i)) <> st && disjoint st members (i + 1))
  in
  (* The distinct cones of one merge by reached-leaf list: unreached
     leaves do not change the cone, so candidates reaching the same leaves
     share it. [None] is an infeasible cone. *)
  let memo : (int list, found option) Hashtbl.t = Hashtbl.create 64 in
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
        let ops = Array.make arity [||] in
        Hashtbl.clear memo;
        let enumerated = ref 0 and infeasible = ref 0 and found = ref [] in
        let c = x.cand and at = ref 0 in
        while !at < x.top do
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
            && match walk st v with () -> !size > 1 | exception Exit -> false
          then begin
            let reached = ref [] in
            for i = first + len - 1 downto first do
              if reach_mark.(c.(i)) = st then reached := c.(i) :: !reached
            done;
            let reached = !reached in
            let r =
              match Hashtbl.find_opt memo reached with
              | Some r -> r
              | None ->
                  (* An in-cone operand's chosen block closes exactly its
                     sub-cone here when the block's cone holds none of the
                     candidate's leaves; otherwise another operand brought
                     in a leaf inside it, and the sub-cone is built. *)
                  for i = 0 to arity - 1 do
                    let e = preds.(i) in
                    ops.(i) <-
                      (if e.dist > 0 || leaf_mark.(e.src) = st then [||]
                       else
                         let b = choices.(i).(c.(picks + i)) in
                         if disjoint st b.members 0 then b.sup
                         else within st e.src)
                  done;
                  let r =
                    Bitdep.compose ~stop:true deps ~k:p.k ~root:v ops
                    |> Option.map (fun sup ->
                           {
                             reached;
                             width = List.length reached;
                             members = Array.sub members 0 !size;
                             s = Bitdep.measure ~k:p.k sup;
                             sup;
                           })
                  in
                  Hashtbl.add memo reached r;
                  Option.iter (fun f -> found := f :: !found) r;
                  r
            in
            if Option.is_some r then incr enumerated else incr infeasible
          end
        done;
        let ranked = List.sort rank !found in
        let kept =
          List.filteri (fun i _ -> i < p.max_cuts) ranked
          |> List.map (fun f ->
                 ( {
                     root = v;
                     leaves = f.reached;
                     cone = Int_set.of_list (Array.to_list f.members);
                     support = f.s.max_support;
                     area = f.s.lut_bits;
                   },
                   { leaves = f.reached; members = f.members; sup = f.sup } ))
        in
        Obs.Counter.incr ~by:candidates c_candidates;
        Obs.Counter.incr ~by:!enumerated c_enumerated;
        Obs.Counter.incr ~by:!infeasible c_infeasible;
        Obs.Counter.incr ~by:(Hashtbl.length memo) c_closures;
        Obs.Counter.incr ~by:(List.length ranked - List.length kept) c_pruned;
        trivial.(v) :: kept
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
