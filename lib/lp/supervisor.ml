(* Runs the worker domains over the pool and supervises them: snapshot
   cadence, crash recovery and the stall watchdog. *)

type sink = {
  ck_path : string;
  ck_every_s : float;
  ck_every_nodes : int option;
  ck_meta : Obs.Json.t;
}

type report = { checkpoints : int; recoveries : int; stalls : int }

let max_worker_deaths = 3

type t = {
  pool : Pool.t;
  env : Node.env;
  root : Root.t;
  sink : sink option;
  fingerprint : string Lazy.t;
  domains : int;
  elapsed : unit -> float;
  budget : unit -> bool;
  ck_m : Mutex.t;  (* guards the cadence fields and serializes writes *)
  mutable last_ck : float;
  mutable next_ck_nodes : int;
  mutable checkpoints : int;
  recoveries : int Atomic.t;
  stalls : int Atomic.t;
  deaths : int array;  (* slot [i] is written only by worker [i] *)
}

let snapshot t =
  let v = Pool.view t.pool in
  let r = t.root in
  {
    Checkpoint.fingerprint = Lazy.force t.fingerprint;
    domains = t.domains;
    (* Read after the view, so every id in its frontier is below it. *)
    next_nid = Atomic.get t.env.next_nid;
    nodes_done = Atomic.get t.env.nodes;
    lp_limited = v.limited;
    fixed_vars = r.fixed;
    root_bound = r.bound;
    root_lb = Array.copy r.lb;
    root_ub = Array.copy r.ub;
    incumbent = v.incumbent;
    first_incumbent_s = v.first_incumbent_s;
    elapsed_s = t.elapsed ();
    frontier = v.frontier;
    pc = v.pcs;
    certs_on = t.env.certs_on;
    cert_nodes = v.certs;
    fixes = List.rev r.fixes;
    root_duals = r.duals;
    presolve = r.presolve;
    cuts = r.cuts;
    meta = (match t.sink with Some s -> s.ck_meta | None -> Obs.Json.Null);
  }

let checkpoint t ~force =
  match t.sink with
  | None -> ()
  | Some s ->
      Mutex.protect t.ck_m @@ fun () ->
      let nodes = Atomic.get t.env.nodes in
      if
        force
        || Obs.Clock.wall () -. t.last_ck >= s.ck_every_s
        || nodes >= t.next_ck_nodes
      then begin
        t.last_ck <- Obs.Clock.wall ();
        Option.iter (fun n -> t.next_ck_nodes <- nodes + n) s.ck_every_nodes;
        Checkpoint.write ~path:s.ck_path (snapshot t);
        t.checkpoints <- t.checkpoints + 1;
        if Obs.recording () then
          Obs.emit ~cat:"milp" "milp.checkpoint"
            [ ("nodes", Obs.Json.Int nodes); ("path", Obs.Json.String s.ck_path) ]
      end

(* Whether the slot recovered: its lease and stack are requeued, its
   solver state reset, and it keeps taking work. Resource exhaustion and
   slots past their death budget are systemic, not recovered. *)
let recover t (w : Node.worker) e =
  match e with
  | Out_of_memory | Stack_overflow -> false
  | _ when t.deaths.(w.wid) >= max_worker_deaths -> false
  | _ ->
      t.deaths.(w.wid) <- t.deaths.(w.wid) + 1;
      Node.reset w;
      Pool.evict t.pool w;
      Atomic.incr t.recoveries;
      if Obs.recording ~level:Obs.Log.Warn () then
        Obs.emit ~level:Obs.Log.Warn ~cat:"milp" ~tid:(w.wid + 1)
          "milp.recovery"
          [
            ("worker", Obs.Json.Int w.wid);
            ("error", Obs.Json.String (Printexc.to_string e));
            ("death", Obs.Json.Int t.deaths.(w.wid));
          ];
      true

let retire t w node outcome cert =
  Pool.complete t.pool w node outcome cert;
  (match outcome with Node.Cancelled -> Atomic.incr t.recoveries | _ -> ());
  checkpoint t ~force:false

let work ?(until = fun () -> false) t w =
  let rec loop () =
    match if until () then None else Pool.take t.pool w ~budget:t.budget with
    | None -> ()
    | Some (node, stolen) ->
        (if stolen && Resilience.Fault.fires "milp.steal_drop" then begin
           (* the thief dies at the steal handoff: a worker death, so the
              leased node replays instead of vanishing *)
           if not (recover t w Node.Worker_killed) then raise Node.Worker_killed
         end
         else
           match Node.process t.env w node with
           | exception e when recover t w e -> ()
           | outcome, cert -> retire t w node outcome cert);
        loop ()
  in
  try loop () with e -> Pool.evict ~failed:e t.pool w

let watchdog t win stop =
  (* Per slot, the beat at its last nudge: a second trip over the same
     beat means the nudge did not help. A node is cancelled at most
     once, so a slow LP is replayed to completion. *)
  let nudged : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let cancelled : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let stall (w : Node.worker) level =
    Atomic.incr t.stalls;
    if Obs.recording ~level:Obs.Log.Warn () then
      Obs.emit ~level:Obs.Log.Warn ~cat:"milp" ~tid:(w.wid + 1) "milp.stall"
        [ ("worker", Obs.Json.Int w.wid); ("level", Obs.Json.String level) ]
  in
  let tick = Float.max 0.005 (win /. 4.0) in
  while not (Atomic.get stop) do
    Unix.sleepf tick;
    if not (Atomic.get stop) then begin
      let now = Obs.Clock.wall () in
      List.iter
        (fun ((w : Node.worker), lease) ->
          match lease with
          | None -> Hashtbl.remove nudged w.wid
          | Some ((node : Node.t), beat) ->
              if now -. beat > win then
                if Hashtbl.find_opt nudged w.wid <> Some beat then begin
                  Hashtbl.replace nudged w.wid beat;
                  Node.nudge w;
                  stall w "nudge"
                end
                else if not (Hashtbl.mem cancelled node.nid) then begin
                  Hashtbl.replace cancelled node.nid ();
                  Node.cancel w;
                  stall w "cancel"
                end)
        (Pool.leases t.pool)
    end
  done

let run ~pool ~env ~root ~sink ~fingerprint ~domains ~elapsed ~budget
    ~stall_window ~w0 ~helper =
  let t =
    { pool; env; root; sink; fingerprint; domains; elapsed; budget;
      ck_m = Mutex.create (); last_ck = Obs.Clock.wall ();
      next_ck_nodes =
        (match sink with
        | Some { ck_every_nodes = Some n; _ } -> Atomic.get env.Node.nodes + n
        | _ -> max_int);
      checkpoints = 0; recoveries = Atomic.make 0; stalls = Atomic.make 0;
      deaths = Array.make domains 0 }
  in
  let wd_stop = Atomic.make false in
  let wd =
    match stall_window with
    | Some win when win > 0.0 ->
        Some (Domain.spawn (fun () -> watchdog t win wd_stop))
    | _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set wd_stop true;
      Option.iter Domain.join wd)
  @@ fun () ->
  (* Worker 0 alone runs until the root is retired, because root fixing
     rewrites the box the helpers copy. *)
  Pool.join pool w0;
  work t w0 ~until:(fun () -> not (Pool.root_open pool));
  let helpers = Array.init (domains - 1) (fun i -> helper (i + 1)) in
  Array.iter (Pool.join pool) helpers;
  let spawned = Array.map (fun w -> Domain.spawn (fun () -> work t w)) helpers in
  work t w0;
  Array.iter Domain.join spawned;
  (match Pool.stopped pool with Some (`Exn e) -> raise e | _ -> ());
  (* A budget-stopped supervised solve always leaves a fresh, resumable
     snapshot behind. *)
  checkpoint t ~force:true;
  { checkpoints = t.checkpoints; recoveries = Atomic.get t.recoveries;
    stalls = Atomic.get t.stalls }
