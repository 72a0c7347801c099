let points =
  [
    ( "milp.timeout",
      "Lp.Milp.solve acts as if its budget expired before any incumbent \
       was found (returns status Unknown)" );
    ( "milp.raise",
      "Lp.Milp.solve raises Failure at entry (exception-containment path)" );
    ( "simplex.cycle",
      "Lp.Simplex gives up with Iteration_limit at every optimize call \
       (simulated pivot cycling / numeric trouble)" );
    ("cuts.raise", "Cuts.enumerate raises Failure at entry");
    ( "cuts.timeout",
      "Cuts.enumerate acts as if its deadline expired immediately \
       (trivial-dominated cut sets)" );
    ( "techmap.timeout",
      "Techmap area-flow labelling degrades to trivial cuts as if its \
       deadline expired" );
    ( "milp.worker_kill",
      "a B&B worker dies (raises) at node-processing entry, before the \
       node is counted; the supervisor re-enqueues its leased subtree" );
    ( "milp.steal_drop",
      "a stolen queue entry is dropped at the steal handoff (the thief \
       dies holding the lease); lease replay must recover it" );
    ( "milp.checkpoint_torn",
      "a checkpoint write is torn mid-file (truncated payload); resume \
       must detect and reject it" );
    ( "milp.stall",
      "a B&B worker wedges at node-processing entry (blocks until its \
       deadline expires or the watchdog cancels it)" );
  ]

let mem name = List.mem_assoc name points

type mode = Always | Nth of int | Prob of { pct : int; seed : int }

let armed_tbl : (string, mode) Hashtbl.t = Hashtbl.create 8
let hits_tbl : (string, int) Hashtbl.t = Hashtbl.create 8
let c_fired = Obs.Counter.get "resilience.faults_fired"

(* Fault sites fire from B&B worker domains too (simplex.cycle); the hit
   counters must not lose updates under concurrency. Arming/clearing
   stays a driver-side (single-domain) operation. *)
let hits_mutex = Mutex.create ()

let clear () =
  Hashtbl.reset armed_tbl;
  Hashtbl.reset hits_tbl

let armed () =
  Hashtbl.fold (fun name _ acc -> name :: acc) armed_tbl []
  |> List.sort compare

(* Deterministic 30-bit mix of (seed, hit index): the same spec fires on
   the same hits in every run, which is what makes probabilistic faults
   usable in CI. *)
let mix seed hit =
  let z = (seed * 1_000_003) + hit + 0x9E3779B9 in
  let z = z * 0x85EBCA6B land 0x3FFFFFFF in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 land 0x3FFFFFFF in
  z lxor (z lsr 16)

let parse_clause clause =
  let clause = String.trim clause in
  let split_on ch s =
    match String.index_opt s ch with
    | None -> (s, None)
    | Some i ->
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let name, rest = split_on '@' clause in
  match rest with
  | Some n -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (name, Nth n)
      | _ -> Error (Printf.sprintf "bad hit index in %S (want point@N, N >= 1)" clause))
  | None -> (
      let name, rest = split_on '%' name in
      match rest with
      | None -> Ok (name, Always)
      | Some pr -> (
          let pct, seed = split_on ':' pr in
          match (int_of_string_opt pct, Option.map int_of_string_opt seed) with
          | Some pct, Some (Some seed) when pct >= 0 && pct <= 100 ->
              Ok (name, Prob { pct; seed })
          | Some pct, None when pct >= 0 && pct <= 100 ->
              Ok (name, Prob { pct; seed = 0 })
          | _ ->
              Error
                (Printf.sprintf "bad probability in %S (want point%%P:S, 0 <= P <= 100)"
                   clause)))

let arm spec =
  let clauses =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
        match parse_clause c with
        | Error _ as e -> e
        | Ok (name, _) when not (mem name) ->
            Error (Printf.sprintf "unknown fault point %S (see `pipesyn faults')" name)
        | Ok nm -> parse (nm :: acc) rest)
  in
  match parse [] clauses with
  | Error _ as e -> e
  | Ok parsed ->
      List.iter (fun (name, mode) -> Hashtbl.replace armed_tbl name mode) parsed;
      Ok ()

let fires point =
  match Hashtbl.find_opt armed_tbl point with
  | None -> false
  | Some mode ->
      let hit =
        Mutex.lock hits_mutex;
        let h =
          1 + Option.value ~default:0 (Hashtbl.find_opt hits_tbl point)
        in
        Hashtbl.replace hits_tbl point h;
        Mutex.unlock hits_mutex;
        h
      in
      let fired =
        match mode with
        | Always -> true
        | Nth n -> hit = n
        | Prob { pct; seed } -> mix seed hit mod 100 < pct
      in
      if fired then Obs.Counter.incr c_fired;
      fired
