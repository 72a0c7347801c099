type stats = { removed : int; folded : int; merged : int; rounds : int }

let pp_stats ppf s =
  Fmt.pf ppf "%d removed, %d folded, %d merged in %d rounds" s.removed
    s.folded s.merged s.rounds

(* Rebuild a graph under a substitution (node -> replacement node) and an
   opcode override (node -> new op, used to constify folded nodes), keeping
   only what the outputs reach. *)
let rebuild g ~replace ~new_op =
  let n = Ir.Cdfg.num_nodes g in
  let rec resolve v =
    match replace.(v) with None -> v | Some u -> resolve u
  in
  let op_of v =
    match new_op.(v) with Some op -> op | None -> Ir.Cdfg.op g v
  in
  let preds_of v =
    match new_op.(v) with
    | Some _ -> [||] (* constified: no operands *)
    | None ->
        Array.map
          (fun (e : Ir.Cdfg.edge) -> { e with Ir.Cdfg.src = resolve e.src })
          (Ir.Cdfg.preds g v)
  in
  (* liveness backward from resolved outputs *)
  let live = Array.make n false in
  let rec mark v =
    if not live.(v) then begin
      live.(v) <- true;
      Array.iter (fun (e : Ir.Cdfg.edge) -> mark e.src) (preds_of v)
    end
  in
  let outs = List.map resolve (Ir.Cdfg.outputs g) in
  List.iter mark outs;
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if live.(v) then begin
      remap.(v) <- !next;
      incr next
    end
  done;
  let nodes = ref [] in
  for v = n - 1 downto 0 do
    if live.(v) then
      nodes :=
        Ir.Cdfg.
          {
            id = remap.(v);
            op = op_of v;
            width = Ir.Cdfg.width g v;
            preds =
              Array.map
                (fun (e : Ir.Cdfg.edge) -> { e with src = remap.(e.src) })
                (preds_of v);
            name = (Ir.Cdfg.node g v).Ir.Cdfg.name;
          }
        :: !nodes
  done;
  Ir.Cdfg.create ~nodes:!nodes ~outputs:(List.map (fun o -> remap.(o)) outs)

let no_subst g = Array.make (Ir.Cdfg.num_nodes g) None

let dead_code g =
  let before = Ir.Cdfg.num_nodes g in
  let g' = rebuild g ~replace:(no_subst g) ~new_op:(no_subst g) in
  (g', before - Ir.Cdfg.num_nodes g')

(* --- constant folding and algebraic identities ------------------------- *)

let const_of g (e : Ir.Cdfg.edge) =
  if e.dist > 0 then None
  else
    match Ir.Cdfg.op g e.src with Ir.Op.Const c -> Some c | _ -> None

let ones ~width = Int64.sub (Int64.shift_left 1L width) 1L

let fold_constants g =
  let n = Ir.Cdfg.num_nodes g in
  let replace = Array.make n None in
  let new_op = Array.make n None in
  let count = ref 0 in
  let alias v (e : Ir.Cdfg.edge) =
    (* only a same-iteration, same-width pass-through may alias *)
    if e.dist = 0 && Ir.Cdfg.width g e.src = Ir.Cdfg.width g v then begin
      replace.(v) <- Some e.src;
      incr count;
      true
    end
    else false
  in
  let constify v c =
    new_op.(v) <- Some (Ir.Op.Const (Int64.logand c (ones ~width:(Ir.Cdfg.width g v))));
    incr count
  in
  let same_value (a : Ir.Cdfg.edge) (b : Ir.Cdfg.edge) =
    a.src = b.src && a.dist = b.dist
    && (a.dist = 0 || Int64.equal a.init b.init)
  in
  Ir.Cdfg.iter
    (fun nd ->
      if replace.(nd.id) = None && new_op.(nd.id) = None then begin
        let p i = nd.preds.(i) in
        let c i = const_of g (p i) in
        let all_const =
          Array.length nd.preds > 0
          && Array.for_all (fun e -> const_of g e <> None) nd.preds
        in
        match nd.op with
        | Ir.Op.Input _ | Ir.Op.Const _ | Ir.Op.Black_box _ -> ()
        | op when all_const -> (
            (* full evaluation on constant operands *)
            let args =
              Array.map
                (fun e -> Option.get (const_of g e))
                nd.preds
            in
            match op with
            | Ir.Op.Concat ->
                let low_w = Ir.Cdfg.width g (p 1).Ir.Cdfg.src in
                constify nd.id
                  (Int64.logor (Int64.shift_left args.(0) low_w) args.(1))
            | _ ->
                constify nd.id
                  (Ir.Op.eval op ~width:nd.width
                     ~black_box:(fun ~kind:_ _ -> 0L)
                     args))
        | Ir.Op.Bitwise Ir.Op.Xor -> (
            if same_value (p 0) (p 1) then constify nd.id 0L
            else
              match (c 0, c 1) with
              | Some z, _ when Int64.equal z 0L -> ignore (alias nd.id (p 1))
              | _, Some z when Int64.equal z 0L -> ignore (alias nd.id (p 0))
              | _ -> ())
        | Ir.Op.Bitwise Ir.Op.And -> (
            if same_value (p 0) (p 1) then ignore (alias nd.id (p 0))
            else
              let w = nd.width in
              match (c 0, c 1) with
              | Some z, _ when Int64.equal z 0L -> constify nd.id 0L
              | _, Some z when Int64.equal z 0L -> constify nd.id 0L
              | Some m, _ when Int64.equal m (ones ~width:w) ->
                  ignore (alias nd.id (p 1))
              | _, Some m when Int64.equal m (ones ~width:w) ->
                  ignore (alias nd.id (p 0))
              | _ -> ())
        | Ir.Op.Bitwise Ir.Op.Or -> (
            if same_value (p 0) (p 1) then ignore (alias nd.id (p 0))
            else
              let w = nd.width in
              match (c 0, c 1) with
              | Some z, _ when Int64.equal z 0L -> ignore (alias nd.id (p 1))
              | _, Some z when Int64.equal z 0L -> ignore (alias nd.id (p 0))
              | Some m, _ when Int64.equal m (ones ~width:w) ->
                  constify nd.id (ones ~width:w)
              | _, Some m when Int64.equal m (ones ~width:w) ->
                  constify nd.id (ones ~width:w)
              | _ -> ())
        | Ir.Op.Add -> (
            match (c 0, c 1) with
            | Some z, _ when Int64.equal z 0L -> ignore (alias nd.id (p 1))
            | _, Some z when Int64.equal z 0L -> ignore (alias nd.id (p 0))
            | _ -> ())
        | Ir.Op.Sub -> (
            match c 1 with
            | Some z when Int64.equal z 0L -> ignore (alias nd.id (p 0))
            | _ -> if same_value (p 0) (p 1) then constify nd.id 0L)
        | Ir.Op.Shl 0 | Ir.Op.Shr 0 -> ignore (alias nd.id (p 0))
        | Ir.Op.Slice { lo = 0; hi } when hi = Ir.Cdfg.width g (p 0).Ir.Cdfg.src - 1 ->
            ignore (alias nd.id (p 0))
        | Ir.Op.Mux -> (
            if same_value (p 1) (p 2) then ignore (alias nd.id (p 1))
            else
              match c 0 with
              | Some v ->
                  ignore (alias nd.id (if Int64.equal v 0L then p 2 else p 1))
              | None -> ())
        | Ir.Op.Not -> (
            (* double negation *)
            let e = p 0 in
            if e.dist = 0 then
              match Ir.Cdfg.op g e.src with
              | Ir.Op.Not ->
                  let inner = (Ir.Cdfg.preds g e.src).(0) in
                  if inner.Ir.Cdfg.dist = 0 then ignore (alias nd.id inner)
              | _ -> ())
        | Ir.Op.Shl _ | Ir.Op.Shr _ | Ir.Op.Slice _ | Ir.Op.Concat
        | Ir.Op.Cmp _ ->
            ()
      end)
    g;
  if !count = 0 then (g, 0)
  else (rebuild g ~replace ~new_op, !count)

(* --- common subexpression elimination ---------------------------------- *)

let cse g =
  let replace = Array.make (Ir.Cdfg.num_nodes g) None in
  let rec resolve v = match replace.(v) with None -> v | Some u -> resolve u in
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  List.iter
    (fun v ->
      let nd = Ir.Cdfg.node g v in
      match nd.op with
      | Ir.Op.Input _ | Ir.Op.Black_box _ -> ()
      | op ->
          let key =
            ( Ir.Op.to_string op,
              nd.width,
              Array.to_list
                (Array.map
                   (fun (e : Ir.Cdfg.edge) -> (resolve e.src, e.dist, e.init))
                   nd.preds) )
          in
          (match Hashtbl.find_opt seen key with
          | Some rep when rep <> v ->
              replace.(v) <- Some rep;
              incr count
          | Some _ -> ()
          | None -> Hashtbl.add seen key v))
    (Ir.Cdfg.topo_order g);
  if !count = 0 then (g, 0)
  else (rebuild g ~replace ~new_op:(no_subst g), !count)

(* Instrumentation (lib/obs): per-pass totals, additive only. *)
let c_removed = Obs.Counter.get "opt.dead_code_removed"
let c_folded = Obs.Counter.get "opt.constants_folded"
let c_merged = Obs.Counter.get "opt.cse_merged"
let c_rounds = Obs.Counter.get "opt.rounds"

(* The fixpoint stops after this many rounds even if the graph still
   changes. *)
let max_rounds = 8

let simplify g =
  Obs.span ~cat:"opt" "opt.simplify" @@ fun () ->
  let rec go g acc round =
    if round >= max_rounds then (g, { acc with rounds = round })
    else begin
      let g, folded = fold_constants g in
      let g, merged = cse g in
      let g, removed = dead_code g in
      Obs.Counter.incr ~by:folded c_folded;
      Obs.Counter.incr ~by:merged c_merged;
      Obs.Counter.incr ~by:removed c_removed;
      Obs.Counter.incr c_rounds;
      let acc =
        {
          removed = acc.removed + removed;
          folded = acc.folded + folded;
          merged = acc.merged + merged;
          rounds = round + 1;
        }
      in
      if folded = 0 && merged = 0 && removed = 0 then (g, acc)
      else go g acc (round + 1)
    end
  in
  go g { removed = 0; folded = 0; merged = 0; rounds = 0 } 0
