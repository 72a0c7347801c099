module Int_set = Bitdep.Int_set

(* Instrumentation (lib/obs): additive — never influences which cuts are
   produced. *)
let c_candidates = Obs.Counter.get "cuts.candidates"
let c_enumerated = Obs.Counter.get "cuts.enumerated"
let c_infeasible = Obs.Counter.get "cuts.infeasible"
let c_pruned = Obs.Counter.get "cuts.pruned"
let c_merges = Obs.Counter.get "cuts.node_merges"
let c_truncated = Obs.Counter.get "cuts.deadline_truncations"
let t_enumerate = Obs.Timer.get "cuts.enumerate"

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

(* LUT cost of a cone whose closure is [s]. *)
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

(* Canonical cone of a leaf set: nodes reachable backward from [root] along
   dist-0 edges, stopping at leaves. Returns None when a non-absorbable
   node would fall inside the cone. Unreachable leaves are dropped. *)
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
                (* registered operand: must be a leaf *)
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

(* The always-legal trivial cut: the node alone, operands as leaves. *)
let trivial_cut ~k deps g v =
  let leaves =
    Array.to_list (Ir.Cdfg.preds g v)
    |> List.map (fun (e : Ir.Cdfg.edge) -> e.src)
    |> List.sort_uniq Int.compare
  in
  let cone = Int_set.singleton v in
  let s = Option.get (Bitdep.closure deps ~root:v ~cone) in
  {
    root = v;
    leaves;
    cone;
    support = s.max_support;
    area = area ~k g ~root:v ~cone s;
  }

let trivial_only ?(k = 4) g =
  let deps = Bitdep.table g in
  Array.init (Ir.Cdfg.num_nodes g) (fun v -> [| trivial_cut ~k deps g v |])

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

(* Cartesian product of per-operand choice lists, capped. Each choice is a
   leaf set (as a sorted int list). *)
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

let enumerate ?params ?(deadline = Resilience.Deadline.none) ?truncated ~k g =
  Obs.Timer.span t_enumerate @@ fun () ->
  Obs.Trace.span ~cat:"cuts" "cuts.enumerate" @@ fun () ->
  if Resilience.Fault.fires "cuts.raise" then
    failwith "injected fault: cuts.raise";
  let forced_timeout = Resilience.Fault.fires "cuts.timeout" in
  let p = match params with Some p -> p | None -> default_params ~k in
  let n = Ir.Cdfg.num_nodes g in
  (* One dep table for every closure of this call; each node's trivial cut
     is computed once and reused by every merge. *)
  let deps = Bitdep.table g in
  let trivial = Array.init n (trivial_cut ~k:p.k deps g) in
  (* Building blocks: for each node, the leaf sets successors may choose
     from — the singleton {v} plus v's own enumerated (non-trivial) cuts. *)
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
      (* the root reached itself through a recurrence: not a cone *)
    else
    match cone_of g ~root:v ~leaf_set:(Int_set.of_list leaves) with
    | None -> None
    | Some (cone, leaves) ->
        if Int_set.cardinal cone = 1 then None (* that's the trivial cut *)
        else
          match Bitdep.closure ~bound:p.k deps ~root:v ~cone with
          | None ->
              Obs.Counter.incr c_infeasible;
              None
          | Some s ->
              Obs.Counter.incr c_enumerated;
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
        let candidates = merged_leaf_sets ~cap:p.max_candidates choices in
        Obs.Counter.incr ~by:(List.length candidates) c_candidates;
        let cuts =
          List.filter_map
            (fun leaves ->
              if List.length leaves > p.max_leaf_words then None
              else mk_cut v leaves)
            candidates
        in
        let cuts =
          List.sort_uniq (fun a b -> compare_leaves a.leaves b.leaves) cuts
        in
        let ranked = List.sort rank cuts in
        let kept = List.filteri (fun i _ -> i < p.max_cuts) ranked in
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
    && List.for_all2 (fun x y -> List.equal Int.equal x.leaves y.leaves) a b
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
      if Obs.Trace.enabled () then
        Obs.Trace.span ~cat:"cuts" "cuts.node"
          ~args:[ ("node", Obs.Json.Int v) ]
          (fun () -> merge v)
      else merge v
    in
    if not (same_cutset fresh result.(v)) then begin
      result.(v) <- fresh;
      (* Building blocks: the singleton {v} (v stays a boundary) plus every
         cut's leaf set — including the trivial cut's, which is how a
         successor absorbs v itself with the boundary at v's operands.
         Non-absorbable nodes (inputs, black boxes) offer only {v}. *)
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
