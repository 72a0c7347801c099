let c_incumbents = Obs.Counter.get "milp.incumbents"

type slot = {
  mutable worker : Node.worker option;
  mutable local : Node.t list;  (* private stack, top first *)
  mutable lease : Node.t option;
  mutable certs : Cert.node list;  (* newest first *)
  mutable limited : int;  (* retired [Limited] nodes *)
  mutable beat : float;
}

type stop = [ `Budget | `Unbounded | `Exn of exn ]

type t = {
  m : Mutex.t;  (* guards [q], [qlen] and every slot *)
  cv : Condition.t;
  thieves : bool;
  qcap : int;
  mutable q : Node.t list;  (* newest first; thieves take the last *)
  mutable qlen : int;
  slots : slot array;
  pending : int Atomic.t;
  stop : stop option Atomic.t;
  closed_limited : int;
  closed_certs : Cert.node list;
  certs_on : bool;
  elapsed : unit -> float;
  inc_m : Mutex.t;  (* guards [best_x], [inc_log], [first_inc] *)
  best_obj : float Atomic.t;
  mutable best_x : float array option;
  mutable inc_log : (int * float) list;  (* newest first *)
  mutable first_inc : float;
}

let create ~domains ~certs_on ~elapsed (start : Checkpoint.t) =
  let thieves = domains > 1 in
  let slots =
    Array.init domains (fun _ ->
        { worker = None; local = []; lease = None; certs = []; limited = 0;
          beat = 0.0 })
  in
  let q =
    match start.frontier with
    | first :: rest when thieves ->
        slots.(0).local <- [ first ];
        rest
    | init ->
        slots.(0).local <- init;
        []
  in
  { m = Mutex.create (); cv = Condition.create (); thieves;
    qcap = max 64 (8 * domains); q; qlen = List.length q; slots;
    pending = Atomic.make (List.length start.frontier);
    stop = Atomic.make None; closed_limited = start.lp_limited;
    closed_certs = start.cert_nodes; certs_on; elapsed;
    inc_m = Mutex.create (); best_obj = Atomic.make infinity; best_x = None;
    inc_log = []; first_inc = start.first_incumbent_s }

let locked t f = Mutex.protect t.m f
let join t (w : Node.worker) = locked t (fun () -> t.slots.(w.wid).worker <- Some w)

(* Every open node but worker [except]'s lease. Under [m]. *)
let frontier_locked ?(except = -1) t =
  let slots = Array.to_list t.slots in
  List.concat
    (List.mapi (fun i s -> if i = except then [] else Option.to_list s.lease) slots)
  @ List.concat_map (fun s -> s.local) slots
  @ t.q

let open_bound ?except t lo =
  locked t @@ fun () ->
  List.fold_left
    (fun lo (n : Node.t) -> Float.min lo n.bound)
    lo (frontier_locked ?except t)

let root_open t =
  locked t @@ fun () ->
  List.exists (fun (n : Node.t) -> Node.depth n.bounds = 0) (frontier_locked t)

let incumbent t = Atomic.get t.best_obj

(* Under [inc_m], or before any worker runs. *)
let note t ?(tid = 1) ~obj ~gap ~node ~depth ~seeded () =
  Obs.Counter.incr c_incumbents;
  if Float.is_nan t.first_inc then t.first_inc <- t.elapsed ();
  Obs.Probe.note_incumbent ~objective:obj ~gap;
  if Obs.recording () then
    Obs.emit ~cat:"milp" ~tid "milp.incumbent"
      [
        ("objective", Obs.Json.Float obj);
        ("gap", Obs.Json.Float gap);
        ("node", Obs.Json.Int node);
        ("depth", Obs.Json.Int depth);
        ("seeded", Obs.Json.Bool seeded);
      ]

let seed t (x, obj) =
  t.best_x <- Some (Array.copy x);
  Atomic.set t.best_obj obj;
  if t.certs_on then t.inc_log <- [ (-1, obj) ];
  (* No relaxation solved yet, so no dual bound: gap unknown. *)
  note t ~obj ~gap:Float.nan ~node:0 ~depth:0 ~seeded:true ()

let lex_less a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then false
    else if a.(i) < b.(i) -. 1e-9 then true
    else if a.(i) > b.(i) +. 1e-9 then false
    else go (i + 1)
  in
  go 0

(* [best_obj] only decreases: a candidate failing the pre-check skips
   both locks. *)
let improve t ~wid ~node_id ~nid ~depth x obj =
  obj <= Atomic.get t.best_obj +. 1e-9
  && begin
    (* [open_bound] takes [m], so it runs before [inc_m] is taken. *)
    let lo = open_bound ~except:wid t obj in
    Mutex.protect t.inc_m @@ fun () ->
    let cur = Atomic.get t.best_obj in
    let accept =
      obj < cur -. 1e-9
      || obj <= cur +. 1e-9
         && match t.best_x with None -> true | Some bx -> lex_less x bx
    in
    if accept then begin
      Atomic.set t.best_obj obj;
      t.best_x <- Some x;
      if t.certs_on then t.inc_log <- (nid, obj) :: t.inc_log;
      let gap =
        if Float.is_finite lo then
          Float.abs (obj -. lo) /. Float.max 1.0 (Float.abs obj)
        else Float.nan
      in
      note t ~tid:(wid + 1) ~obj ~gap ~node:node_id ~depth ~seeded:false ()
    end;
    accept
  end

(* The helpers below run under [m]. *)
let request_stop t r =
  if Atomic.compare_and_set t.stop None (Some r) then Condition.broadcast t.cv

let finish_pending t =
  if Atomic.fetch_and_add t.pending (-1) = 1 then Condition.broadcast t.cv

(* Requeue open nodes at the steal end; the first is taken first. *)
let park t nodes =
  t.q <- t.q @ List.rev nodes;
  t.qlen <- t.qlen + List.length nodes;
  Condition.broadcast t.cv

(* The one budget stop: the node goes back on the worker's stack, open
   for the exit gap and the final snapshot. *)
let stop_budget t s node =
  s.local <- node :: s.local;
  s.lease <- None;
  request_stop t `Budget

(* The oldest (shallowest) published node; O(qcap). *)
let steal t =
  match List.rev t.q with
  | [] -> None
  | last :: rev_rest ->
      t.q <- List.rev rev_rest;
      t.qlen <- t.qlen - 1;
      Some last

let take t (w : Node.worker) ~budget =
  let s = t.slots.(w.wid) in
  locked t @@ fun () ->
  let rec wait () =
    if Atomic.get t.stop <> None then None
    else
      match s.local with
      | n :: rest ->
          s.local <- rest;
          Some (n, false)
      | [] -> (
          match steal t with
          | Some n -> Some (n, t.thieves)
          | None ->
              if Atomic.get t.pending = 0 then None
              else begin
                Condition.wait t.cv t.m;
                wait ()
              end)
  in
  match wait () with
  | Some (n, _) when budget () ->
      stop_budget t s n;
      None
  | r ->
      Option.iter
        (fun (n, _) ->
          s.lease <- Some n;
          s.beat <- Obs.Clock.wall ())
        r;
      r

let complete t (w : Node.worker) node outcome cert =
  let s = t.slots.(w.wid) in
  locked t @@ fun () ->
  Option.iter (fun c -> s.certs <- c :: s.certs) cert;
  (match outcome with
  | Node.Leaf | Node.Limited ->
      if outcome = Node.Limited then s.limited <- s.limited + 1;
      s.lease <- None;
      finish_pending t
  | Node.Children (near, far) ->
      (* count the children before retiring the parent, so [pending]
         never dips to 0 with work in flight *)
      ignore (Atomic.fetch_and_add t.pending 2);
      let published = t.thieves && t.qlen < t.qcap in
      if published then begin
        t.q <- far :: t.q;
        t.qlen <- t.qlen + 1;
        Condition.signal t.cv
      end;
      s.local <- (if published then [ near ] else [ near; far ]) @ s.local;
      s.lease <- None;
      finish_pending t
  | Node.Cancelled ->
      s.lease <- None;
      park t [ node ]
  | Node.Stop_budget -> stop_budget t s node
  | Node.Stop_unbounded ->
      s.lease <- None;
      request_stop t `Unbounded;
      finish_pending t);
  s.beat <- Obs.Clock.wall ()

let evict ?failed t (w : Node.worker) =
  let s = t.slots.(w.wid) in
  locked t @@ fun () ->
  park t (Option.to_list s.lease @ s.local);
  s.lease <- None;
  s.local <- [];
  Option.iter (fun e -> request_stop t (`Exn e)) failed

let stopped t = Atomic.get t.stop

let leases t =
  locked t @@ fun () ->
  List.filter_map
    (fun s ->
      Option.map (fun w -> (w, Option.map (fun n -> (n, s.beat)) s.lease)) s.worker)
    (Array.to_list t.slots)

type view = {
  frontier : Node.t list;
  incumbent : (float array * float) option;
  incumbents : (int * float) list;
  first_incumbent_s : float;
  pivots : int;
  limited : int;
  warm : int;
  certs : Cert.node list;
  pcs : Node.pc array;
}

let view t =
  locked t @@ fun () ->
  (* Lock order m ≺ inc_m: workers take [inc_m] only while not holding
     [m], so this nesting cannot deadlock. *)
  let incumbent, incumbents, first_incumbent_s =
    Mutex.protect t.inc_m @@ fun () ->
    ( Option.map (fun x -> (Array.copy x, Atomic.get t.best_obj)) t.best_x,
      List.rev t.inc_log,
      t.first_inc )
  in
  let slots = Array.to_list t.slots in
  let workers = List.filter_map (fun s -> s.worker) slots in
  let sum f = List.fold_left (fun a (w : Node.worker) -> a + f w) 0 workers in
  {
    frontier = frontier_locked t;
    incumbent;
    incumbents;
    first_incumbent_s;
    pivots = sum (fun w -> w.pivots);
    limited =
      Array.fold_left (fun a (s : slot) -> a + s.limited) t.closed_limited t.slots;
    warm = sum (fun w -> w.warm);
    certs =
      t.closed_certs @ List.concat_map (fun (s : slot) -> List.rev s.certs) slots;
    pcs = Array.of_list (List.map (fun (w : Node.worker) -> Node.pc_copy w.pc) workers);
  }
