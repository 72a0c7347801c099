(* Process-global instrumentation registry. Everything is stdlib-only:
   the library must be linkable from the innermost subsystems (lp, cuts)
   without dragging in fmt, and the JSON emitter replaces yojson. *)

(* Registries are process-global and may be touched from worker domains
   (simplex counters, trace instants fire inside the parallel B&B pool),
   so lookups and hot mutations go through a lock or an atomic. One lock
   for all registries is fine: counter bumps are atomics outside it, and
   the paths it guards (registration, snapshots, span entry and exit)
   are short and, apart from spans, cold. *)
let registry_mutex = Mutex.create ()

let locked m f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      raise e

(* The integer in environment variable [var] when it parses (trimmed) to
   at least [min]; [None] when unset, unparsable or too small. *)
let env_int var ~min =
  match Sys.getenv_opt var with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= min -> Some v
      | _ -> None)

(* Event cap at a trace/log [enable]: the explicit [cap] clamped to at
   least 16, else [var] from the environment, else [default]. *)
let buffer_cap cap var ~default =
  match cap with
  | Some v -> max 16 v
  | None -> Option.value ~default (env_int var ~min:16)

module Clock = struct
  (* Wall clock for deadlines, trace timestamps and throughput. [Sys.time]
     is per-process CPU seconds, which accumulates across OCaml 5 domains:
     a 4-domain busy solve burns a CPU-second budget ~4x faster than wall
     clock and skews every nodes/s figure. [Unix.gettimeofday] is wall
     time but not guaranteed monotone (NTP steps), so reads are
     monotonized through a process-global CAS-max cell — [wall] never goes
     backwards, from any domain. *)
  let mono_last = Atomic.make neg_infinity

  let wall () =
    let t = Unix.gettimeofday () in
    let rec fix () =
      let last = Atomic.get mono_last in
      if t >= last then
        if Atomic.compare_and_set mono_last last t then t else fix ()
      else last
    in
    fix ()

  let cpu = Sys.time
end

module Counter = struct
  type t = { cname : string; n : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let get name =
    locked registry_mutex (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
            let c = { cname = name; n = Atomic.make 0 } in
            Hashtbl.add registry name c;
            c)

  let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.n by)
  let value c = Atomic.get c.n
  let name c = c.cname
end

(* Wall-time total of every {!span} name. [depth] counts the open spans
   of that name, so only the outermost one adds its interval and a
   recursive or nested span never counts twice. Fields are guarded by
   [registry_mutex], so a span may run on any domain. *)
type total = { mutable secs : float; mutable depth : int; mutable t0 : float }

let totals : (string, total) Hashtbl.t = Hashtbl.create 32

(* The latest [milp.incumbent] as (objective, gap), read by the resource
   probe; nan before the first incumbent and after {!reset}. *)
let no_incumbent = (Float.nan, Float.nan)
let last_incumbent = Atomic.make no_incumbent

(* Every read and reset of the registries holds the lock: a probe domain
   folds the counters while solver domains insert new names, and even
   two unlocked [Hashtbl] traversals race on the table's traversal
   flag. *)
let reset () =
  locked registry_mutex (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.Counter.n 0) Counter.registry;
      Hashtbl.iter (fun _ t -> t.secs <- 0.0) totals);
  Atomic.set last_incumbent no_incumbent

let counters () =
  locked registry_mutex (fun () ->
      Hashtbl.fold
        (fun _ c acc ->
          let n = Atomic.get c.Counter.n in
          if n <> 0 then (c.Counter.cname, n) :: acc else acc)
        Counter.registry [])
  |> List.sort compare

let snapshot () =
  let spans =
    locked registry_mutex (fun () ->
        Hashtbl.fold
          (fun name t acc ->
            if t.secs <> 0.0 then (name ^ ".s", t.secs) :: acc else acc)
          totals [])
  in
  List.map (fun (n, v) -> (n, float_of_int v)) (counters ()) @ spans
  |> List.sort compare

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* Floats print with the shortest digit string that [float_of_string]
     reads back to exactly the same IEEE double (precision grows until
     the round trip is exact; 17 significant digits always suffice) and
     always in a form the parser recognises as a float; non-finite
     values have no JSON spelling and degrade to null. Exactness
     matters downstream: bench-diff re-reads metrics files and compares
     them, and must never see a precision-loss delta. *)
  let float_repr f =
    if not (Float.is_finite f) then None
    else
      let rec shortest p =
        let s = Printf.sprintf "%.*g" p f in
        if p >= 17 || float_of_string s = f then s else shortest (p + 1)
      in
      let s = shortest 1 in
      Some
        (if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
         else s ^ ".0")

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> (
        match float_repr f with
        | None -> Buffer.add_string buf "null"
        | Some s -> Buffer.add_string buf s)
    | String s -> escape buf s
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ", ";
            emit buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ", ";
            escape buf k;
            Buffer.add_string buf ": ";
            emit buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    emit buf j;
    Buffer.contents buf

  let to_channel oc j =
    output_string oc (to_string j);
    output_char oc '\n'

  (* ---- minimal parser -------------------------------------------------- *)

  exception Parse of string

  type cursor = { s : string; mutable pos : int }

  let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

  let skip_ws c =
    while
      c.pos < String.length c.s
      && (match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      c.pos <- c.pos + 1
    done

  let expect c ch =
    match peek c with
    | Some x when x = ch -> c.pos <- c.pos + 1
    | Some x -> raise (Parse (Printf.sprintf "expected '%c', got '%c' at %d" ch x c.pos))
    | None -> raise (Parse (Printf.sprintf "expected '%c', got end of input" ch))

  let literal c word v =
    let n = String.length word in
    if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
      c.pos <- c.pos + n;
      v
    end
    else raise (Parse (Printf.sprintf "bad literal at %d" c.pos))

  let parse_string c =
    expect c '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek c with
      | None -> raise (Parse "unterminated string")
      | Some '"' -> c.pos <- c.pos + 1
      | Some '\\' -> (
          c.pos <- c.pos + 1;
          match peek c with
          | None -> raise (Parse "unterminated escape")
          | Some e ->
              c.pos <- c.pos + 1;
              (match e with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  if c.pos + 4 > String.length c.s then
                    raise (Parse "short \\u escape");
                  let hex = String.sub c.s c.pos 4 in
                  c.pos <- c.pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> raise (Parse "bad \\u escape")
                  in
                  (* ASCII only — enough for the escapes we emit *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else raise (Parse "non-ASCII \\u escape unsupported")
              | e -> raise (Parse (Printf.sprintf "bad escape '\\%c'" e)));
              go ())
      | Some ch ->
          c.pos <- c.pos + 1;
          Buffer.add_char buf ch;
          go ()
    in
    go ();
    Buffer.contents buf

  let parse_number c =
    let start = c.pos in
    let numchar ch =
      match ch with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      c.pos < String.length c.s && numchar c.s.[c.pos]
    do
      c.pos <- c.pos + 1
    done;
    let tok = String.sub c.s start (c.pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> raise (Parse (Printf.sprintf "bad number %S at %d" tok start)))

  let rec parse_value c =
    skip_ws c;
    match peek c with
    | None -> raise (Parse "unexpected end of input")
    | Some '{' ->
        c.pos <- c.pos + 1;
        skip_ws c;
        if peek c = Some '}' then begin
          c.pos <- c.pos + 1;
          Obj []
        end
        else
          let rec members acc =
            skip_ws c;
            let k = parse_string c in
            skip_ws c;
            expect c ':';
            let v = parse_value c in
            skip_ws c;
            match peek c with
            | Some ',' ->
                c.pos <- c.pos + 1;
                members ((k, v) :: acc)
            | Some '}' ->
                c.pos <- c.pos + 1;
                List.rev ((k, v) :: acc)
            | _ -> raise (Parse (Printf.sprintf "expected ',' or '}' at %d" c.pos))
          in
          Obj (members [])
    | Some '[' ->
        c.pos <- c.pos + 1;
        skip_ws c;
        if peek c = Some ']' then begin
          c.pos <- c.pos + 1;
          List []
        end
        else
          let rec items acc =
            let v = parse_value c in
            skip_ws c;
            match peek c with
            | Some ',' ->
                c.pos <- c.pos + 1;
                items (v :: acc)
            | Some ']' ->
                c.pos <- c.pos + 1;
                List.rev (v :: acc)
            | _ -> raise (Parse (Printf.sprintf "expected ',' or ']' at %d" c.pos))
          in
          List (items [])
    | Some '"' -> String (parse_string c)
    | Some 't' -> literal c "true" (Bool true)
    | Some 'f' -> literal c "false" (Bool false)
    | Some 'n' -> literal c "null" Null
    | Some _ -> parse_number c

  let of_string s =
    let c = { s; pos = 0 } in
    match parse_value c with
    | v ->
        skip_ws c;
        if c.pos <> String.length s then
          Error (Printf.sprintf "trailing garbage at %d" c.pos)
        else Ok v
    | exception Parse msg -> Error msg

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None

  let number = function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None
end

(* ---- the event store ---------------------------------------------------- *)

(* Every event is recorded once: {!emit}'s instants and the trace's span
   begins and ends go into one growable array, under one lock, with one
   absolute {!Clock.wall} reading taken inside that lock, so the store's
   order is its timestamps' order. {!Trace} and {!Log} are views over
   it; each event carries the bit of every view that took it. [tid] is
   the Chrome/Perfetto thread lane: the coordinator records on lane 1,
   B&B worker slot w (slot 0 = the coordinating domain) on lane w + 1,
   so per-domain utilization shows as separate rows. *)
type ph = B | E | I

type event = {
  ts : float;  (* absolute wall seconds *)
  ph : ph;
  level : int;  (* {!Log.level_value} *)
  cat : string;
  tid : int;
  name : string;
  args : (string * Json.t) list;
  views : int;  (* bits of the views that took it *)
}

(* A view holds the events with its [bit] from store index [first] on:
   [kept] of them, and [dropped] more refused at [cap], since its last
   enable or clear. While [on] it takes the events at level [floor] or
   above, and it exports timestamps relative to [epoch]. *)
type view = {
  bit : int;
  mutable on : bool;
  mutable epoch : float;
  mutable cap : int;
  mutable first : int;
  mutable kept : int;
  mutable dropped : int;
  mutable floor : int;
}

(* Guards the store and every view field. [floor] and each view's [on]
   are also read unlocked on the hot path: a stale read can only move
   the first or last event of an enable window. *)
let store_mutex = Mutex.create ()
let store : event array ref = ref [||]
let len = ref 0

(* Lowest level a view that is on takes, [max_int] with every view off,
   so an emission site's guard is one load and one compare. *)
let floor = ref max_int

let push e =
  if !len = Array.length !store then begin
    let a = Array.make (max 256 (2 * !len)) e in
    Array.blit !store 0 a 0 !len;
    store := a
  end;
  !store.(!len) <- e;
  incr len

(* Everything below that reads or writes a view or the store runs with
   [store_mutex] held, except [num_events] and [dropped], which take it. *)
module View = struct
  let make ~bit ~floor ~cap =
    { bit; on = false; epoch = 0.0; cap; first = 0; kept = 0; dropped = 0;
      floor }

  (* The trace takes every level; the log takes Info and up by default. *)
  let trace = make ~bit:1 ~floor:0 ~cap:1_000_000
  let log = make ~bit:2 ~floor:1 ~cap:200_000
  let all = [ trace; log ]

  let takes v level = v.on && level >= v.floor

  (* [v.bit] when [v] keeps an event at [level], else 0; a refusal at
     the cap counts as a drop. *)
  let admit v level =
    if not (takes v level) then 0
    else if v.kept >= v.cap then (v.dropped <- v.dropped + 1; 0)
    else (v.kept <- v.kept + 1; v.bit)

  (* The events [v] holds, oldest first. *)
  let held v =
    let acc = ref [] in
    for i = !len - 1 downto v.first do
      if !store.(i).views land v.bit <> 0 then acc := !store.(i) :: !acc
    done;
    !acc

  (* Keeps only the events some view holds, moving each view's [first]
     with its event; when no view holds any, the array is freed. *)
  let reclaim () =
    let old = !store and n = !len in
    let firsts = List.map (fun v -> v.first) all in
    store := [||];
    len := 0;
    let holder v f i = i >= f && old.(i).views land v.bit <> 0 in
    for i = 0 to n - 1 do
      List.iter2 (fun v f -> if f = i then v.first <- !len) all firsts;
      if List.exists2 (fun v f -> holder v f i) all firsts then push old.(i)
    done;
    List.iter2 (fun v f -> if f = n then v.first <- !len) all firsts

  let clear v =
    v.first <- !len;
    v.kept <- 0;
    v.dropped <- 0;
    reclaim ()

  let set_on v on =
    v.on <- on;
    floor :=
      List.fold_left (fun m v -> if v.on then min m v.floor else m) max_int all

  let enable v ~cap =
    v.cap <- cap;
    clear v;
    v.epoch <- Clock.wall ();
    set_on v true

  let disable v = set_on v false
  let num_events v = locked store_mutex (fun () -> v.kept)
  let dropped v = locked store_mutex (fun () -> v.dropped)
end

module Trace = struct
  (* Hierarchical spans (B/E pairs) and instant events: the view of the
     store that takes every level. The E of a recorded B is always kept
     (the view may exceed its cap by at most the open-span depth), so
     exported traces stay well-formed. *)
  let view = View.trace
  let default_cap = view.cap
  let max_depth_seen = ref 0

  (* Open spans, innermost first. [recorded] = false when the matching
     Begin was dropped at the cap, so its End must be dropped too. The
     stack is coordinator-only (workers never open spans). *)
  type open_span = { o_name : string; o_cat : string; recorded : bool }

  let open_stack : open_span list ref = ref []

  let enabled () = view.on
  let num_events () = View.num_events view
  let dropped () = View.dropped view

  let forget_spans () =
    open_stack := [];
    max_depth_seen := 0

  let clear () =
    locked store_mutex (fun () ->
        View.clear view;
        forget_spans ())

  let enable ?cap () =
    let cap = buffer_cap cap "PIPESYN_TRACE_CAP" ~default:default_cap in
    locked store_mutex (fun () ->
        View.enable view ~cap;
        forget_spans ())

  let span_event ph ts ~cat ~args name =
    { ts; ph; level = 0; cat; tid = 1; name; args; views = view.bit }

  let span_end ts o = span_event E ts ~cat:o.o_cat ~args:[] o.o_name

  let begin_span ?(cat = "app") ?(args = []) name =
    if view.on then
      locked store_mutex @@ fun () ->
      let depth = 1 + List.length !open_stack in
      if depth > !max_depth_seen then max_depth_seen := depth;
      let recorded = View.admit view 0 <> 0 in
      if recorded then push (span_event B (Clock.wall ()) ~cat ~args name);
      open_stack := { o_name = name; o_cat = cat; recorded } :: !open_stack

  (* Writes the E of a recorded span, past the cap if need be. *)
  let close ts o =
    if o.recorded then begin
      view.kept <- view.kept + 1;
      push (span_end ts o)
    end

  let end_span () =
    if view.on then
      locked store_mutex @@ fun () ->
      match !open_stack with
      | [] -> () (* enable () raced a begin; ignore the stray end *)
      | o :: rest ->
          open_stack := rest;
          close (Clock.wall ()) o

  (* Closes any still-open recorded spans so the view stays well-formed
     even if tracing is switched off mid-flow. *)
  let disable () =
    locked store_mutex @@ fun () ->
    List.iter (close (Clock.wall ())) !open_stack;
    open_stack := [];
    View.disable view

  (* ---- export ---------------------------------------------------------- *)

  (* The epoch and the view's events, with a closing E (at the current
     time) appended for each recorded span still open, leaving the store
     as it is. *)
  let exported () =
    locked store_mutex @@ fun () ->
    let ts = Clock.wall () in
    ( view.epoch,
      View.held view
      @ List.filter_map
          (fun o -> if o.recorded then Some (span_end ts o) else None)
          !open_stack )

  (* One exported event: the Chrome field set (ts in microseconds, pid,
     thread-scoped instants) or the native one (ts_s in seconds). *)
  let json_of_event ~chrome epoch e =
    let ts = e.ts -. epoch in
    let ph = match e.ph with B -> "B" | E -> "E" | I -> "i" in
    let str v = Json.String v in
    Json.Obj
      ((if chrome then
          [ ("name", str e.name); ("cat", str e.cat); ("ph", str ph);
            ("ts", Json.Float (ts *. 1e6)); ("pid", Json.Int 1);
            ("tid", Json.Int e.tid) ]
          @ if e.ph = I then [ ("s", str "t") ] else []
        else
          [ ("ph", str ph); ("name", str e.name); ("cat", str e.cat);
            ("ts_s", Json.Float ts); ("tid", Json.Int e.tid) ])
      @ if e.args = [] then [] else [ ("args", Json.Obj e.args) ])

  let export ~chrome =
    let epoch, events = exported () in
    Json.List (List.map (json_of_event ~chrome epoch) events)

  let export_chrome () =
    Json.Obj
      [
        ("traceEvents", export ~chrome:true);
        ("displayTimeUnit", Json.String "ms");
      ]

  let export_native () =
    Json.Obj
      [
        ("schema", Json.String "pipesyn-trace-v1");
        ("clock", Json.String "wall-s");
        ("dropped", Json.Int (dropped ()));
        ("events", export ~chrome:false);
      ]

  let write_chrome ~path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Json.to_channel oc (export_chrome ()))

  (* Summary folded into Metrics files (schema v4): the view's headline
     counts plus the incumbent-gap trajectory extracted from
     [milp.incumbent] instants. *)
  let summary () =
    let epoch, events, dropped =
      locked store_mutex (fun () -> (view.epoch, View.held view, view.dropped))
    in
    let count ph = List.length (List.filter (fun e -> e.ph = ph) events) in
    let incumbents =
      List.filter (fun e -> e.ph = I && e.name = "milp.incumbent") events
    in
    let point e =
      let gap =
        match List.assoc_opt "gap" e.args with
        | Some (Json.Float g) -> g
        | Some (Json.Int g) -> float_of_int g
        | _ -> Float.nan
      in
      Json.List [ Json.Float (e.ts -. epoch); Json.Float gap ]
    in
    Json.Obj
      [
        ("enabled", Json.Bool view.on);
        ("events", Json.Int (List.length events));
        ("spans", Json.Int (count B));
        ("instants", Json.Int (count I));
        ("max_depth", Json.Int !max_depth_seen);
        ("dropped", Json.Int dropped);
        ( "first_incumbent_s",
          Json.Float
            (match incumbents with e :: _ -> e.ts -. epoch | [] -> Float.nan) );
        ("gap_trajectory", Json.List (List.map point incumbents));
      ]

  (* ---- offline analysis ------------------------------------------------ *)

  module Analysis = struct
    (* Operates on a parsed Chrome trace_event document so the CLI
       trace-report and the test suite share one checker: a stack
       machine over the event stream validates well-formedness (every E
       matches the innermost open B, timestamps are monotone, nothing
       is left open) while aggregating per-span-name stats, the B&B
       tree shape from [milp.node] instants, and the incumbent/gap
       timeline from [milp.incumbent] instants. *)

    type span_stat = {
      sp_name : string;
      sp_cat : string;
      sp_count : int;
      sp_total : float;  (** summed durations, seconds *)
      sp_max : float;  (** longest single span, seconds *)
    }

    type slow_span = {
      sl_name : string;
      sl_cat : string;
      sl_start : float;  (** seconds from trace start *)
      sl_dur : float;  (** seconds *)
    }

    type tree_stats = {
      tr_nodes : int;
      tr_max_depth : int;
      tr_warm : int;  (** nodes whose LP resolve reused the parent basis *)
      tr_statuses : (string * int) list;  (** node LP status histogram *)
      tr_domains : (int * int) list;
          (** nodes processed per domain id, sorted; [(0, n)] only for
              single-domain traces (coordinator processes everything) *)
    }

    type gap_point = { gp_ts : float; gp_obj : float; gp_gap : float }

    type cut_stats = {
      cu_rounds : int;  (** root separation rounds recorded *)
      cu_cuts : int;  (** cuts applied across all rounds *)
      cu_bound0 : float;  (** root LP bound before any cuts; nan if absent *)
      cu_bound : float;  (** bound after the last recorded round *)
    }

    type report = {
      r_events : int;
      r_spans : int;
      r_instants : int;
      r_errors : string list;
      r_phases : span_stat list;  (** sorted by total time, descending *)
      r_slowest : slow_span list;  (** top slowest spans, descending *)
      r_tree : tree_stats option;
      r_timeline : gap_point list;
      r_cuts : cut_stats option;
          (** from ["milp.cut_round"] instants; [None] for traces
              recorded before cuts existed (pre-v8) or cuts-off runs *)
    }

    let max_errors = 50

    let num j = Option.value (Option.bind j Json.number) ~default:Float.nan

    let inum default = function
      | Some (Json.Int i) -> i
      | Some (Json.Float f) -> int_of_float f
      | _ -> default

    let analyze ?(top = 10) j =
      match Json.member "traceEvents" j with
      | None -> Error "not a Chrome trace: no \"traceEvents\" key"
      | Some (Json.List events) ->
          let errors = ref [] in
          let n_errors = ref 0 in
          let error fmt =
            Printf.ksprintf
              (fun msg ->
                incr n_errors;
                if !n_errors <= max_errors then errors := msg :: !errors)
              fmt
          in
          let stack = ref [] in
          let last_ts = ref neg_infinity in
          let n_spans = ref 0 in
          let n_instants = ref 0 in
          let stats : (string, span_stat) Hashtbl.t = Hashtbl.create 32 in
          let slow = ref [] in
          let tr_nodes = ref 0 in
          let tr_max_depth = ref 0 in
          let tr_warm = ref 0 in
          let statuses : (string, int) Hashtbl.t = Hashtbl.create 8 in
          let domains : (int, int) Hashtbl.t = Hashtbl.create 8 in
          let timeline = ref [] in
          let cu_rounds = ref 0 in
          let cu_cuts = ref 0 in
          let cu_bound0 = ref Float.nan in
          let cu_bound = ref Float.nan in
          List.iteri
            (fun i ev ->
              let str k =
                match Json.member k ev with
                | Some (Json.String s) -> Some s
                | _ -> None
              in
              let name = Option.value ~default:"?" (str "name") in
              let cat = Option.value ~default:"?" (str "cat") in
              let ts = num (Json.member "ts" ev) /. 1e6 in
              if Float.is_nan ts then error "event %d (%s): missing ts" i name
              else begin
                if ts < !last_ts -. 1e-9 then
                  error "event %d (%s): timestamp goes backwards (%.9f < %.9f)"
                    i name ts !last_ts;
                last_ts := Float.max !last_ts ts
              end;
              match str "ph" with
              | Some "B" ->
                  incr n_spans;
                  stack := (name, cat, ts) :: !stack
              | Some "E" -> (
                  match !stack with
                  | [] -> error "event %d: E (%s) with no open span" i name
                  | (bname, bcat, bts) :: rest ->
                      stack := rest;
                      if str "name" <> None && name <> bname then
                        error
                          "event %d: E for %S closes open span %S \
                           (parents must close after children)"
                          i name bname;
                      let dur = ts -. bts in
                      let cur =
                        match Hashtbl.find_opt stats bname with
                        | Some s -> s
                        | None ->
                            {
                              sp_name = bname;
                              sp_cat = bcat;
                              sp_count = 0;
                              sp_total = 0.0;
                              sp_max = 0.0;
                            }
                      in
                      Hashtbl.replace stats bname
                        {
                          cur with
                          sp_count = cur.sp_count + 1;
                          sp_total = cur.sp_total +. dur;
                          sp_max = Float.max cur.sp_max dur;
                        };
                      slow :=
                        {
                          sl_name = bname;
                          sl_cat = bcat;
                          sl_start = bts;
                          sl_dur = dur;
                        }
                        :: !slow)
              | Some ("i" | "I") -> (
                  incr n_instants;
                  let args = Json.member "args" ev in
                  let arg k = Option.bind args (Json.member k) in
                  match name with
                  | "milp.node" ->
                      incr tr_nodes;
                      let d = inum 0 (arg "depth") in
                      if d > !tr_max_depth then tr_max_depth := d;
                      (match arg "warm" with
                      | Some (Json.Bool true) -> incr tr_warm
                      | _ -> ());
                      let st =
                        match arg "status" with
                        | Some (Json.String s) -> s
                        | _ -> "?"
                      in
                      Hashtbl.replace statuses st
                        (1 + Option.value ~default:0
                               (Hashtbl.find_opt statuses st));
                      (* Absent in pre-parallel traces: count as domain 0. *)
                      let dom = inum 0 (arg "domain") in
                      Hashtbl.replace domains dom
                        (1 + Option.value ~default:0
                               (Hashtbl.find_opt domains dom))
                  | "milp.incumbent" ->
                      timeline :=
                        {
                          gp_ts = ts;
                          gp_obj = num (arg "objective");
                          gp_gap = num (arg "gap");
                        }
                        :: !timeline
                  | "milp.cut_round" ->
                      incr cu_rounds;
                      cu_cuts := !cu_cuts + inum 0 (arg "added");
                      if Float.is_nan !cu_bound0 then
                        cu_bound0 := num (arg "bound0");
                      cu_bound := num (arg "bound")
                  | _ -> ())
              | Some _ -> () (* M, X, … metadata: tolerated, uncounted *)
              | None -> error "event %d (%s): missing ph" i name)
            events;
          List.iter
            (fun (bname, _, _) -> error "span %S never closed" bname)
            !stack;
          if !n_errors > max_errors then
            errors :=
              Printf.sprintf "... and %d more errors" (!n_errors - max_errors)
              :: !errors;
          let phases =
            Hashtbl.fold (fun _ s acc -> s :: acc) stats []
            |> List.sort (fun a b -> compare b.sp_total a.sp_total)
          in
          let slowest =
            List.sort (fun a b -> compare b.sl_dur a.sl_dur) !slow
            |> List.filteri (fun i _ -> i < top)
          in
          let tree =
            if !tr_nodes = 0 then None
            else
              Some
                {
                  tr_nodes = !tr_nodes;
                  tr_max_depth = !tr_max_depth;
                  tr_warm = !tr_warm;
                  tr_statuses =
                    Hashtbl.fold (fun k v acc -> (k, v) :: acc) statuses []
                    |> List.sort compare;
                  tr_domains =
                    Hashtbl.fold (fun k v acc -> (k, v) :: acc) domains []
                    |> List.sort compare;
                }
          in
          Ok
            {
              r_events = List.length events;
              r_spans = !n_spans;
              r_instants = !n_instants;
              r_errors = List.rev !errors;
              r_phases = phases;
              r_slowest = slowest;
              r_tree = tree;
              r_timeline = List.rev !timeline;
              r_cuts =
                (if !cu_rounds = 0 then None
                 else
                   Some
                     {
                       cu_rounds = !cu_rounds;
                       cu_cuts = !cu_cuts;
                       cu_bound0 = !cu_bound0;
                       cu_bound = !cu_bound;
                     });
            }
      | Some _ -> Error "\"traceEvents\" is not a list"
  end
end

(* Leveled structured event log: the narrative companion to {!Trace},
   and the view of the store that takes instants at or above its level.
   Trace answers "where did the time go" with nested spans; Log answers
   "what happened" with a flat ordered stream — flow phase transitions,
   cascade retries/degradations, incumbents, cut rounds, checkpoints,
   recoveries, stalls, probe samples — serialized as NDJSON (one JSON
   object per line, greppable and tail-able, framed by a header and a
   footer line). *)
module Log = struct
  type level = Debug | Info | Warn | Error

  let level_value = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
  let levels = [| Debug; Info; Warn; Error |]

  let level_name = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let level_of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "debug" -> Some Debug
    | "info" -> Some Info
    | "warn" | "warning" -> Some Warn
    | "error" -> Some Error
    | _ -> None

  type event = {
    l_ts : float;  (** seconds since {!enable}, wall clock *)
    l_level : level;
    l_name : string;
    l_args : (string * Json.t) list;
  }

  let schema = "pipesyn-log-v1"
  let view = View.log
  let default_cap = view.cap
  let sink : (event -> unit) option ref = ref None

  let enable ?cap ?(level = Info) () =
    let cap = buffer_cap cap "PIPESYN_LOG_CAP" ~default:default_cap in
    locked store_mutex (fun () ->
        view.floor <- level_value level;
        View.enable view ~cap)

  let disable () = locked store_mutex (fun () -> View.disable view)
  let enabled () = view.on
  let clear () = locked store_mutex (fun () -> View.clear view)
  let set_sink f = locked store_mutex (fun () -> sink := f)
  let num_events () = View.num_events view
  let dropped () = View.dropped view

  let json_of_event e =
    Json.Obj
      (("t", Json.Float (e.ts -. view.epoch))
      :: ("level", Json.String (level_name levels.(e.level)))
      :: ("ev", Json.String e.name)
      :: (match e.args with [] -> [] | args -> [ ("args", Json.Obj args) ]))

  (* NDJSON form: a header object naming the schema and clock, one
     object per event, and a [log.end] footer carrying the event and
     drop counts — so a consumer can both stream the file line by line
     and check completeness at the end. *)
  let to_lines () =
    locked store_mutex (fun () ->
        let header =
          Json.Obj
            [
              ("schema", Json.String schema);
              ("clock", Json.String "wall-s");
              ("cap", Json.Int view.cap);
              ("min_level", Json.String (level_name levels.(view.floor)));
            ]
        in
        let footer =
          Json.Obj
            [
              ("ev", Json.String "log.end");
              ("t", Json.Float (Clock.wall () -. view.epoch));
              ("events", Json.Int view.kept);
              ("dropped", Json.Int view.dropped);
            ]
        in
        header :: List.map json_of_event (View.held view) @ [ footer ])

  let write ~path =
    let lines = to_lines () in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun j ->
            output_string oc (Json.to_string j);
            output_char oc '\n')
          lines)
end

(* One emission path: one lock, one clock read and at most one stored
   event, which the trace takes at every level and the log at or above
   its own; the log's sink sees exactly the events the log takes, drops
   at its cap included. *)
let recording ?(level = Log.Info) () = Log.level_value level >= !floor

let emit ?(level = Log.Info) ?(cat = "app") ?(tid = 1) name args =
  let lv = Log.level_value level in
  if lv >= !floor then
    let sink =
      locked store_mutex (fun () ->
          let ts = Clock.wall () in
          let views =
            List.fold_left (fun m v -> m lor View.admit v lv) 0 View.all
          in
          if views <> 0 then
            push { ts; ph = I; level = lv; cat; tid; name; args; views };
          match !Log.sink with
          | Some f when View.takes Log.view lv ->
              Some
                ( f,
                  { Log.l_ts = ts -. Log.view.epoch; l_level = level;
                    l_name = name; l_args = args } )
          | _ -> None)
    in
    (* The sink (the --progress renderer) runs outside the lock so a
       slow terminal never blocks solver domains, and its exceptions
       never reach the solver. *)
    match sink with Some (f, e) -> ( try f e with _ -> ()) | None -> ()

(* One timing path: a span always adds to its name's wall-time total
   (the [<name>.s] key of {!snapshot}) and, while tracing, also records
   the B/E pair. *)
let span ?cat ?args name f =
  let t =
    locked registry_mutex (fun () ->
        let t =
          match Hashtbl.find_opt totals name with
          | Some t -> t
          | None ->
              let t = { secs = 0.0; depth = 0; t0 = 0.0 } in
              Hashtbl.add totals name t;
              t
        in
        if t.depth = 0 then t.t0 <- Clock.wall ();
        t.depth <- t.depth + 1;
        t)
  in
  Trace.begin_span ?cat ?args name;
  let close () =
    Trace.end_span ();
    locked registry_mutex (fun () ->
        t.depth <- t.depth - 1;
        if t.depth = 0 then t.secs <- t.secs +. (Clock.wall () -. t.t0))
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* Background resource sampler: a dedicated domain that wakes every
   [PIPESYN_PROBE_MS] milliseconds and snapshots GC statistics, peak
   RSS, the live solver counters, per-domain node rates and the latest
   incumbent/gap into one ["probe.sample"] event — the live signal that
   feedback-guided re-solving and the [--progress] line are built from.
   Off by default. Strictly read-only with respect to the solver: it
   reads atomics and registry snapshots and writes only into the
   observability layer, so solver results are byte-identical probe-on
   vs probe-off. *)
module Probe = struct
  (* Peak resident set size from /proc/self/status (VmHWM, kB); [None]
     on platforms without procfs — callers treat the figure as
     best-effort. *)
  let peak_rss_kb () =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec scan () =
              match input_line ic with
              | exception End_of_file -> None
              | line ->
                  if String.length line >= 6 && String.sub line 0 6 = "VmHWM:"
                  then begin
                    let digits = Buffer.create 8 in
                    String.iter
                      (fun c ->
                        if c >= '0' && c <= '9' then Buffer.add_char digits c)
                      line;
                    int_of_string_opt (Buffer.contents digits)
                  end
                  else scan ()
            in
            scan ())

  let running_flag = Atomic.make false
  let stop_flag = Atomic.make false
  let n_samples = Atomic.make 0
  let dom : unit Domain.t option ref = ref None
  let probe_mutex = Mutex.create ()

  (* Per-worker-domain node counters are published by the solver under
     this prefix; the probe turns their deltas into per-domain rates. *)
  let domain_counter_prefix = "milp.nodes.d"

  let note_incumbent ~objective ~gap = Atomic.set last_incumbent (objective, gap)

  let loop period_s =
    let t0 = Clock.wall () in
    let c_nodes = Counter.get "milp.bnb_nodes" in
    let c_pivots = Counter.get "milp.lp_pivots" in
    let prev_t = ref t0 in
    let prev_nodes = ref (Counter.value c_nodes) in
    let prev_pivots = ref (Counter.value c_pivots) in
    let prev_dom : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let pl = String.length domain_counter_prefix in
    (* Sleep in short slices so [stop] returns promptly even under a
       long sampling period. *)
    let rec nap remaining =
      if remaining > 0.0 && not (Atomic.get stop_flag) then begin
        Unix.sleepf (Float.min remaining 0.02);
        nap (remaining -. 0.02)
      end
    in
    while not (Atomic.get stop_flag) do
      nap period_s;
      if not (Atomic.get stop_flag) then begin
        let now_ = Clock.wall () in
        let dt = Float.max 1e-9 (now_ -. !prev_t) in
        let g = Gc.quick_stat () in
        let nodes = Counter.value c_nodes in
        let pivots = Counter.value c_pivots in
        let rss = peak_rss_kb () in
        (* Node rate of each worker domain ["d<wid>"] since the last
           sample. *)
        let domain_rates =
          List.filter_map
            (fun (cname, v) ->
              if
                String.length cname > pl
                && String.sub cname 0 pl = domain_counter_prefix
              then begin
                let prev =
                  Option.value ~default:0 (Hashtbl.find_opt prev_dom cname)
                in
                Hashtbl.replace prev_dom cname v;
                let wid = String.sub cname pl (String.length cname - pl) in
                Some ("d" ^ wid, Json.Float (float_of_int (v - prev) /. dt))
              end
              else None)
            (counters ())
        in
        let inc, gap = Atomic.get last_incumbent in
        let args =
          [
            ("heap_words", Json.Int g.Gc.heap_words);
            ( "rss_kb",
              match rss with Some kb -> Json.Int kb | None -> Json.Null );
            ("minor_words", Json.Float g.Gc.minor_words);
            ("major_words", Json.Float g.Gc.major_words);
            ("compactions", Json.Int g.Gc.compactions);
            ("nodes", Json.Int nodes);
            ("pivots", Json.Int pivots);
            ("nodes_per_s", Json.Float (float_of_int (nodes - !prev_nodes) /. dt));
            ( "pivots_per_s",
              Json.Float (float_of_int (pivots - !prev_pivots) /. dt) );
            ("domain_nodes_per_s", Json.Obj domain_rates);
            ("gap", Json.Float gap);
            ("incumbent", Json.Float inc);
          ]
        in
        emit ~cat:"probe" ~tid:999 "probe.sample" args;
        ignore (Atomic.fetch_and_add n_samples 1);
        prev_t := now_;
        prev_nodes := nodes;
        prev_pivots := pivots
      end
    done

  let start ?period_ms () =
    let p =
      match period_ms with
      | Some v -> Some (max 1 v)
      | None -> env_int "PIPESYN_PROBE_MS" ~min:1
    in
    match p with
    | None -> false
    | Some ms ->
        locked probe_mutex (fun () ->
            if Atomic.get running_flag then true
            else begin
              Atomic.set stop_flag false;
              Atomic.set n_samples 0;
              let period_s = float_of_int ms /. 1000.0 in
              dom := Some (Domain.spawn (fun () -> loop period_s));
              Atomic.set running_flag true;
              true
            end)

  let stop () =
    locked probe_mutex (fun () ->
        match !dom with
        | None -> ()
        | Some d ->
            Atomic.set stop_flag true;
            Domain.join d;
            dom := None;
            Atomic.set stop_flag false;
            Atomic.set running_flag false)

  let running () = Atomic.get running_flag
  let samples () = Atomic.get n_samples
end

module Metrics = struct
  type t = {
    name : string;
    method_ : string;
    lut : int;
    ff : int;
    slack : float;
    solve_s : float option;
        (** MILP wall seconds; [None] (JSON null) for methods that never
            entered the MILP (heuristic flows, hard errors) — pre-v9
            files encoded that as 0.0, which {!of_json} normalizes back
            to [None] *)
    bnb_nodes : int option;
        (** branch-and-bound nodes explored; [None] when the method
            never entered the MILP (a real solve always explores at
            least the root, so the legacy 0 encoding is unambiguous) *)
    lp_pivots : int option;
        (** simplex pivots across the solve's LPs; [None] when the
            method never entered the MILP or for pre-v9 files *)
    cuts_total : int;
    first_incumbent_s : float;
        (** seconds into the MILP solve when the first incumbent
            appeared; nan for heuristic flows or when none was found *)
    final_gap : float;
        (** relative incumbent/bound gap at solver exit; nan when not
            applicable *)
    status : string;
    objective : float;
        (** MILP objective of the reported solution; nan for heuristic
            flows *)
    domains : int;  (** B&B worker-domain count the solve ran with *)
    nodes_per_s : float;
        (** B&B node throughput, [bnb_nodes / solve_s]; nan when no
            nodes were explored or the solve took no measurable time *)
    cert_nodes : int;
        (** nodes recorded in the solve's proof-carrying certificate;
            0 when the solve carried none *)
    audit_errors : int option;
        (** error findings from the exact-rational certificate audit;
            [None] (serialized as JSON null) when the audit did not run —
            pre-v8 files encoded that as the sentinel -1, which
            {!of_json} still maps back to [None] *)
    milp_cuts : int;
        (** cutting planes active in the MILP solve (root separation or
            re-installed on resume); 0 for heuristic flows or cuts-off
            runs *)
    gap_closed_root : float;
        (** fraction of the root gap closed by the cut rounds; nan when
            not applicable (heuristic flow, cuts off, no incumbent,
            resumed solve) *)
    checkpoints : int;
        (** frontier snapshots written during the solve; 0 when
            checkpointing was off *)
    recoveries : int;
        (** leased subtrees re-enqueued after a worker death or a
            watchdog cancel-and-requeue; 0 for undisturbed solves *)
    stalls : int;
        (** stall-watchdog escalations (nudges + cancels) recorded
            during the solve *)
    gc_minor_words : float;
        (** GC minor-heap words allocated across this result's flow run
            (quick_stat delta); 0.0 for pre-v9 files *)
    gc_major_words : float;
        (** GC major-heap words allocated across this result's flow run
            (quick_stat delta); 0.0 for pre-v9 files *)
    diagnostics : Json.t list;
    degradation : Json.t list;
  }

  let schema_version = 9

  let to_json m =
    Json.Obj
      [
        ("name", Json.String m.name);
        ("method", Json.String m.method_);
        ("lut", Json.Int m.lut);
        ("ff", Json.Int m.ff);
        ("slack", Json.Float m.slack);
        ( "solve_s",
          match m.solve_s with Some s -> Json.Float s | None -> Json.Null );
        ( "bnb_nodes",
          match m.bnb_nodes with Some n -> Json.Int n | None -> Json.Null );
        ( "lp_pivots",
          match m.lp_pivots with Some n -> Json.Int n | None -> Json.Null );
        ("cuts_total", Json.Int m.cuts_total);
        ("first_incumbent_s", Json.Float m.first_incumbent_s);
        ("final_gap", Json.Float m.final_gap);
        ("status", Json.String m.status);
        ("objective", Json.Float m.objective);
        ("domains", Json.Int m.domains);
        ("nodes_per_s", Json.Float m.nodes_per_s);
        ("cert_nodes", Json.Int m.cert_nodes);
        ( "audit_errors",
          match m.audit_errors with Some e -> Json.Int e | None -> Json.Null );
        ("milp_cuts", Json.Int m.milp_cuts);
        ("gap_closed_root", Json.Float m.gap_closed_root);
        ("checkpoints", Json.Int m.checkpoints);
        ("recoveries", Json.Int m.recoveries);
        ("stalls", Json.Int m.stalls);
        ("gc_minor_words", Json.Float m.gc_minor_words);
        ("gc_major_words", Json.Float m.gc_major_words);
        ("diagnostics", Json.List m.diagnostics);
        ("degradation", Json.List m.degradation);
      ]

  let of_json j =
    let str k =
      match Json.member k j with
      | Some (Json.String s) -> Ok s
      | _ -> Error (Printf.sprintf "missing string field %S" k)
    in
    let int k =
      match Json.member k j with
      | Some (Json.Int i) -> Ok i
      | _ -> Error (Printf.sprintf "missing int field %S" k)
    in
    let flt k =
      match Json.member k j with
      | Some (Json.Float f) -> Ok f
      | Some (Json.Int i) -> Ok (float_of_int i)
      | Some Json.Null -> Ok Float.nan
      | _ -> Error (Printf.sprintf "missing number field %S" k)
    in
    let ( let* ) = Result.bind in
    let* name = str "name" in
    let* method_ = str "method" in
    let* lut = int "lut" in
    let* ff = int "ff" in
    let* slack = flt "slack" in
    let solve_s = Option.bind (Json.member "solve_s" j) Json.number in
    let bnb_nodes =
      match Json.member "bnb_nodes" j with Some (Json.Int i) -> Some i | _ -> None
    in
    (* Pre-v9 files wrote 0.0 / 0 for methods that never entered the
       MILP, indistinguishable from a real instant solve — except that a
       real solve always explores at least the root node. Normalize the
       legacy pair back to None on read, like audit_errors' -1. *)
    let solve_s, bnb_nodes =
      match (solve_s, bnb_nodes) with
      | Some s, Some 0 when s = 0.0 -> (None, None)
      | p -> p
    in
    (* Absent in schema v1–v8 files. *)
    let lp_pivots =
      match Json.member "lp_pivots" j with Some (Json.Int i) -> Some i | _ -> None
    in
    let* cuts_total = int "cuts_total" in
    let* status = str "status" in
    (* Absent in schema v1–v3 files; default to nan for compatibility. *)
    let flt_opt k =
      Option.value (Option.bind (Json.member k j) Json.number) ~default:Float.nan
    in
    let first_incumbent_s = flt_opt "first_incumbent_s" in
    let final_gap = flt_opt "final_gap" in
    (* Absent in schema v1–v4 files. *)
    let objective = flt_opt "objective" in
    let nodes_per_s = flt_opt "nodes_per_s" in
    let domains =
      match Json.member "domains" j with Some (Json.Int i) -> i | _ -> 1
    in
    (* Absent in schema v1–v5 files. *)
    let cert_nodes =
      match Json.member "cert_nodes" j with Some (Json.Int i) -> i | _ -> 0
    in
    let audit_errors =
      (* v8 writes null for "did not run"; v6/v7 wrote the sentinel -1;
         older files omit the field entirely — all map to None *)
      match Json.member "audit_errors" j with
      | Some (Json.Int i) when i >= 0 -> Some i
      | _ -> None
    in
    (* Absent in schema v1–v7 files. *)
    let milp_cuts =
      match Json.member "milp_cuts" j with Some (Json.Int i) -> i | _ -> 0
    in
    let gap_closed_root = flt_opt "gap_closed_root" in
    (* Absent in schema v1–v6 files. *)
    let int_opt k =
      match Json.member k j with Some (Json.Int i) -> i | _ -> 0
    in
    let checkpoints = int_opt "checkpoints" in
    let recoveries = int_opt "recoveries" in
    let stalls = int_opt "stalls" in
    (* Absent in schema v1–v8 files. *)
    let gc_flt k =
      Option.value (Option.bind (Json.member k j) Json.number) ~default:0.0
    in
    let gc_minor_words = gc_flt "gc_minor_words" in
    let gc_major_words = gc_flt "gc_major_words" in
    (* Absent in schema v1 files; default to empty for compatibility. *)
    let diagnostics =
      match Json.member "diagnostics" j with Some (Json.List l) -> l | _ -> []
    in
    (* Absent in schema v1/v2 files; default to empty for compatibility. *)
    let degradation =
      match Json.member "degradation" j with Some (Json.List l) -> l | _ -> []
    in
    Ok
      {
        name;
        method_;
        lut;
        ff;
        slack;
        solve_s;
        bnb_nodes;
        lp_pivots;
        cuts_total;
        first_incumbent_s;
        final_gap;
        status;
        objective;
        domains;
        nodes_per_s;
        cert_nodes;
        audit_errors;
        milp_cuts;
        gap_closed_root;
        checkpoints;
        recoveries;
        stalls;
        gc_minor_words;
        gc_major_words;
        diagnostics;
        degradation;
      }

  (* File-level resource totals, captured at write time: process-lifetime
     GC figures, the current and top heap, and (Linux) the peak-RSS
     high-water mark, plus how many probe samples informed the run. *)
  let resources () =
    let g = Gc.quick_stat () in
    Json.Obj
      [
        ("gc_minor_words", Json.Float g.Gc.minor_words);
        ("gc_promoted_words", Json.Float g.Gc.promoted_words);
        ("gc_major_words", Json.Float g.Gc.major_words);
        ("gc_compactions", Json.Int g.Gc.compactions);
        ("heap_words", Json.Int g.Gc.heap_words);
        ("top_heap_words", Json.Int g.Gc.top_heap_words);
        ( "peak_rss_kb",
          match Probe.peak_rss_kb () with
          | Some kb -> Json.Int kb
          | None -> Json.Null );
        ("probe_samples", Json.Int (Probe.samples ()));
      ]

  let file ~results =
    Json.Obj
      [
        ("schema_version", Json.Int schema_version);
        ( "obs",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) (snapshot ())) );
        ("resources", resources ());
        ("trace", Trace.summary ());
        ("results", Json.List (List.map to_json results));
      ]

  let write_file ~path ~results =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Json.to_channel oc (file ~results))
end
