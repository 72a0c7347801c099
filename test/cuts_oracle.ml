(* The word-level cut enumerator as it was written over lists and
   [Int_set]s (one cone walk over functional sets and one closure per
   candidate, candidates as sorted lists), kept as the oracle
   [Cuts.enumerate] must agree with. Deadlines, fault points and spans
   are left out, and the five enumeration counters are returned instead
   of bumped. *)

module Int_set = Bitdep.Int_set
open Cuts

type counts = {
  candidates : int;
  enumerated : int;
  infeasible : int;
  pruned : int;
  node_merges : int;
}

let absorbable g id =
  match Ir.Cdfg.op g id with
  | Ir.Op.Input _ | Ir.Op.Black_box _ -> false
  | Ir.Op.Const _ | Ir.Op.Not | Ir.Op.Bitwise _ | Ir.Op.Shl _ | Ir.Op.Shr _
  | Ir.Op.Slice _ | Ir.Op.Concat | Ir.Op.Add | Ir.Op.Sub | Ir.Op.Cmp _
  | Ir.Op.Mux ->
      true

let ceil_div a b = (a + b - 1) / b

let area ~k g ~root ~cone (s : Bitdep.cone_support) =
  if Int_set.cardinal cone = 1 then
    match Ir.Cdfg.op g root with
    | Ir.Op.Input _ | Ir.Op.Const _ | Ir.Op.Shl _ | Ir.Op.Shr _
    | Ir.Op.Slice _ | Ir.Op.Concat | Ir.Op.Black_box _ ->
        0
    | Ir.Op.Not | Ir.Op.Bitwise _ | Ir.Op.Mux -> s.lut_bits
    | Ir.Op.Add | Ir.Op.Sub -> Ir.Cdfg.width g root
    | Ir.Op.Cmp _ ->
        let w_in = Ir.Cdfg.width g (Ir.Cdfg.preds g root).(0).Ir.Cdfg.src in
        max 1 (ceil_div ((2 * w_in) - 1) (k - 1))
  else s.lut_bits

let cone_of g ~root ~leaf_set =
  let rec walk id (cone, reached) =
    if Int_set.mem id cone then Some (cone, reached)
    else if Int_set.mem id leaf_set then Some (cone, Int_set.add id reached)
    else if not (absorbable g id) then None
    else
      let cone = Int_set.add id cone in
      Array.fold_left
        (fun acc (e : Ir.Cdfg.edge) ->
          match acc with
          | None -> None
          | Some (cone, reached) ->
              if e.dist > 0 then
                if Int_set.mem e.src leaf_set then
                  Some (cone, Int_set.add e.src reached)
                else None
              else walk e.src (cone, reached))
        (Some (cone, reached))
        (Ir.Cdfg.preds g id)
  in
  match walk root (Int_set.empty, Int_set.empty) with
  | None -> None
  | Some (cone, reached) -> Some (cone, Int_set.elements reached)

let trivial_cut ~k g v =
  let leaves =
    Array.to_list (Ir.Cdfg.preds g v)
    |> List.map (fun (e : Ir.Cdfg.edge) -> e.src)
    |> List.sort_uniq Int.compare
  in
  let cone = Int_set.singleton v in
  let s = Option.get (Closure_oracle.closure g ~root:v ~cone) in
  {
    root = v;
    leaves;
    cone;
    support = s.max_support;
    area = area ~k g ~root:v ~cone s;
  }

let compare_leaves = List.compare Int.compare

let rank a b =
  let c = Int.compare a.area b.area in
  if c <> 0 then c
  else
    let c = Int.compare a.support b.support in
    if c <> 0 then c
    else
      let c = Int.compare (List.length a.leaves) (List.length b.leaves) in
      if c <> 0 then c else compare_leaves a.leaves b.leaves

let merged_leaf_sets ~cap choices =
  let acc = ref [] and count = ref 0 in
  let rec go partial = function
    | [] ->
        if !count < cap then begin
          acc := partial :: !acc;
          incr count
        end
    | opts :: rest ->
        List.iter
          (fun leaves ->
            if !count < cap then go (List.rev_append leaves partial) rest)
          opts
  in
  go [] choices;
  List.map (List.sort_uniq Int.compare) !acc |> List.sort_uniq compare_leaves

let enumerate ~(params : params) g =
  let p = params in
  let candidates = ref 0 and enumerated = ref 0 and infeasible = ref 0
  and pruned = ref 0 and node_merges = ref 0 in
  let n = Ir.Cdfg.num_nodes g in
  let trivial = Array.init n (trivial_cut ~k:p.k g) in
  let blocks : int list list array = Array.make n [] in
  let result : cut list array = Array.make n [] in
  for v = 0 to n - 1 do
    result.(v) <- [ trivial.(v) ];
    blocks.(v) <-
      (if absorbable g v then
         List.sort_uniq compare_leaves [ [ v ]; trivial.(v).leaves ]
       else [ [ v ] ])
  done;
  let mk_cut v leaves =
    if List.mem v leaves then None
    else
    match cone_of g ~root:v ~leaf_set:(Int_set.of_list leaves) with
    | None -> None
    | Some (cone, leaves) ->
        if Int_set.cardinal cone = 1 then None
        else
          match Closure_oracle.closure ~bound:p.k g ~root:v ~cone with
          | None ->
              incr infeasible;
              None
          | Some s ->
              incr enumerated;
              Some
                {
                  root = v;
                  leaves;
                  cone;
                  support = s.max_support;
                  area = area ~k:p.k g ~root:v ~cone s;
                }
  in
  let merge v =
    if not (absorbable g v) then [ trivial.(v) ]
    else
      let preds = Ir.Cdfg.preds g v in
      if Array.length preds = 0 then [ trivial.(v) ]
      else
        let choices =
          Array.to_list preds
          |> List.map (fun (e : Ir.Cdfg.edge) ->
                 if e.dist > 0 then [ [ e.src ] ] else blocks.(e.src))
        in
        let cands = merged_leaf_sets ~cap:p.max_candidates choices in
        candidates := !candidates + List.length cands;
        let cuts =
          List.filter_map
            (fun leaves ->
              if List.length leaves > p.max_leaf_words then None
              else mk_cut v leaves)
            cands
        in
        let cuts =
          List.sort_uniq (fun a b -> compare_leaves a.leaves b.leaves) cuts
        in
        let ranked = List.sort rank cuts in
        let kept = List.filteri (fun i _ -> i < p.max_cuts) ranked in
        pruned := !pruned + List.length ranked - List.length kept;
        trivial.(v) :: kept
  in
  let queue = Queue.create () in
  let queued = Array.make n false in
  List.iter
    (fun v ->
      Queue.add v queue;
      queued.(v) <- true)
    (Ir.Cdfg.topo_order g);
  let same_cutset a b =
    List.length a = List.length b
    && List.for_all2 (fun x y -> List.equal Int.equal x.leaves y.leaves) a b
  in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    queued.(v) <- false;
    incr node_merges;
    let fresh = merge v in
    if not (same_cutset fresh result.(v)) then begin
      result.(v) <- fresh;
      blocks.(v) <-
        (if absorbable g v then
           ([ v ] :: List.map (fun c -> c.leaves) fresh)
           |> List.sort_uniq compare_leaves
         else [ [ v ] ]);
      List.iter
        (fun (s, dist) ->
          if dist = 0 && not queued.(s) then begin
            Queue.add s queue;
            queued.(s) <- true
          end)
        (Ir.Cdfg.succs g v)
    end
  done;
  ( Array.map Array.of_list result,
    {
      candidates = !candidates;
      enumerated = !enumerated;
      infeasible = !infeasible;
      pruned = !pruned;
      node_merges = !node_merges;
    } )
