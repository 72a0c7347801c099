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

let log_schema = "pipesyn-log-v1"

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

  (* Open spans, innermost first. [recorded] = false when the matching
     Begin was dropped at the cap, so its End must be dropped too. The
     stack is coordinator-only (workers never open spans). *)
  type open_span = { o_name : string; o_cat : string; recorded : bool }

  let open_stack : open_span list ref = ref []

  let enabled () = view.on
  let num_events () = View.num_events view
  let dropped () = View.dropped view

  let clear () =
    locked store_mutex (fun () ->
        View.clear view;
        open_stack := [])

  let enable ?cap () =
    let cap = Option.fold cap ~none:default_cap ~some:(max 16) in
    locked store_mutex (fun () ->
        View.enable view ~cap;
        open_stack := [])

  let span_event ph ts ~cat ~args name =
    { ts; ph; level = 0; cat; tid = 1; name; args; views = view.bit }

  let span_end ts o = span_event E ts ~cat:o.o_cat ~args:[] o.o_name

  let begin_span ?(cat = "app") ?(args = []) name =
    if view.on then
      locked store_mutex @@ fun () ->
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

  (* ---- offline analysis ------------------------------------------------ *)

  module Analysis = struct
    (* The one reader of recorded events. Either export becomes one list
       of events: a Chrome trace's own, or a log's event lines as
       instants once its header, footer and event count are checked.
       One pass over that list then checks well-formedness with a stack
       machine (every E closes the innermost open B, timestamps never go
       backwards, nothing is left open) while it folds the per-span-name
       stats, the B&B tree from [milp.node], the incumbent timeline, the
       root cut rounds, the probe peaks and the stop record of the last
       flow run. *)

    type span_stat = {
      sp_name : string; sp_cat : string; sp_count : int;
      sp_total : float; sp_max : float;
    }

    type tree_stats = {
      tr_nodes : int; tr_max_depth : int; tr_warm : int;
      tr_statuses : (string * int) list; tr_domains : (int * int) list;
    }

    type gap_point = { gp_ts : float; gp_obj : float; gp_gap : float }
    type cut_stats =
      { cu_rounds : int; cu_cuts : int; cu_bound0 : float; cu_bound : float }
    type solve = { sv_nodes : int; sv_pivots : int; sv_gap : float; sv_elapsed : float }

    type stop = {
      st_status : string option; st_solve : solve option;
      st_last_incumbent : float; st_degraded : (string * string) list;
    }

    type report = {
      r_events : int; r_spans : int; r_instants : int; r_depth : int;
      r_errors : string list; r_phases : span_stat list;
      r_tree : tree_stats option; r_timeline : gap_point list;
      r_cuts : cut_stats option; r_samples : int;
      r_peak_heap_words : float; r_peak_rss_kb : float; r_flows : int;
      r_stop : stop;
    }

    (* One event as the pass reads it, [ts] in seconds. *)
    type ev = {
      e_name : string option; e_cat : string option; e_ph : string option;
      e_ts : float; e_args : Json.t option;
    }

    let max_errors = 50
    let num j = Option.value (Option.bind j Json.number) ~default:Float.nan
    let inum j = Option.fold ~none:0 ~some:int_of_float (Option.bind j Json.number)
    let str k j = match Json.member k j with Some (Json.String s) -> Some s | _ -> None

    (* The args every probe sample carries and a reader relies on. *)
    let probe_keys = [ "heap_words"; "nodes_per_s"; "gap"; "incumbent" ]

    let no_stop =
      { st_status = None; st_solve = None; st_last_incumbent = Float.nan;
        st_degraded = [] }

    let of_chrome ev =
      { e_name = str "name" ev; e_cat = str "cat" ev; e_ph = str "ph" ev;
        e_ts = num (Json.member "ts" ev) /. 1e6; e_args = Json.member "args" ev }

    (* A log's event lines as instants, and its framing errors. *)
    let of_log lines =
      let header, rest =
        match lines with
        | h :: rest when Json.member "ev" h = None -> (Some h, rest)
        | _ -> (None, lines)
      in
      let body, footer =
        match List.rev rest with
        | f :: rb when str "ev" f = Some "log.end" -> (List.rev rb, Some f)
        | _ -> (rest, None)
      in
      let n = List.length body in
      let errors =
        (match Option.bind header (str "schema") with
        | Some s when s = log_schema -> []
        | s -> [ Printf.sprintf "log header schema is %s, not %s"
                   (Option.value s ~default:"missing") log_schema ])
        @
        match Option.map (fun f -> inum (Json.member "events" f)) footer with
        | Some c when c = n -> []
        | Some c ->
            [ Printf.sprintf "log.end footer counts %d events, the log has %d" c n ]
        | None -> [ "log has no log.end footer" ]
      in
      let instant l =
        { e_name = str "ev" l; e_cat = None; e_ph = Some "i";
          e_ts = num (Json.member "t" l); e_args = Json.member "args" l }
      in
      (List.map instant body, errors)

    let fold events framing =
      let errors = ref (List.rev framing) in
      let n_errors = ref (List.length framing) in
      let error fmt =
        Printf.ksprintf
          (fun msg ->
            incr n_errors;
            if !n_errors <= max_errors then errors := msg :: !errors)
          fmt
      in
      let bump tbl k =
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      in
      let sorted tbl =
        List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) tbl [])
      in
      let peak p v = if Float.is_nan p || v > p then v else p in
      let stack = ref [] and depth = ref 0 and last_ts = ref neg_infinity in
      let n_spans = ref 0 and n_instants = ref 0 and flows = ref 0 in
      let stats : (string, span_stat) Hashtbl.t = Hashtbl.create 32 in
      let tr_nodes = ref 0 and tr_max_depth = ref 0 and tr_warm = ref 0 in
      let statuses = Hashtbl.create 8 and domains = Hashtbl.create 8 in
      let timeline = ref [] and cuts = ref None and stop = ref no_stop in
      (* A solve recorded after the flow finished starts a new record. *)
      let update f =
        stop := f (if !stop.st_status = None then !stop else no_stop)
      in
      let samples = ref 0 and heap = ref Float.nan and rss = ref Float.nan in
      let instant i name arg ts =
        let sarg k = match arg k with Some (Json.String s) -> Some s | _ -> None in
        match name with
        | "milp.node" ->
            incr tr_nodes;
            tr_max_depth := max !tr_max_depth (inum (arg "depth"));
            if arg "warm" = Some (Json.Bool true) then incr tr_warm;
            bump statuses (Option.value (sarg "status") ~default:"?");
            (* Absent in pre-parallel traces: count as domain 0. *)
            bump domains (inum (arg "domain"))
        | "milp.incumbent" ->
            timeline :=
              { gp_ts = ts; gp_obj = num (arg "objective"); gp_gap = num (arg "gap") }
              :: !timeline;
            update (fun s -> { s with st_last_incumbent = ts })
        | "milp.cut_round" ->
            let rounds, added =
              Option.fold !cuts ~none:(0, 0) ~some:(fun c -> (c.cu_rounds, c.cu_cuts))
            in
            cuts :=
              Some
                { cu_rounds = rounds + 1; cu_cuts = added + inum (arg "added");
                  cu_bound0 = num (arg "bound0"); cu_bound = num (arg "bound") }
        | "milp.done" ->
            let solve =
              { sv_nodes = inum (arg "nodes"); sv_pivots = inum (arg "pivots");
                sv_gap = num (arg "gap"); sv_elapsed = num (arg "elapsed_s") }
            in
            update (fun s -> { s with st_solve = Some solve })
        | "flow.phase" when sarg "phase" = Some "run" -> stop := no_stop
        | "flow.phase" when sarg "phase" = Some "done" ->
            incr flows;
            stop := { !stop with st_status = sarg "status" }
        | "cascade.degraded" ->
            let rung k = Option.value (sarg k) ~default:"?" in
            update (fun s ->
                { s with
                  st_degraded = (rung "attempt", rung "reason") :: s.st_degraded })
        | "probe.sample" ->
            incr samples;
            List.iter
              (fun k ->
                if arg k = None then error "event %d: probe.sample has no %s" i k)
              probe_keys;
            heap := peak !heap (num (arg "heap_words"));
            rss := peak !rss (num (arg "rss_kb"))
        | _ -> ()
      in
      List.iteri
        (fun i e ->
          let name = Option.value e.e_name ~default:"?" in
          if Float.is_nan e.e_ts then error "event %d (%s): missing ts" i name
          else begin
            if e.e_ts < !last_ts -. 1e-9 then
              error "event %d (%s): timestamp goes backwards (%.9f < %.9f)" i
                name e.e_ts !last_ts;
            last_ts := Float.max !last_ts e.e_ts
          end;
          match e.e_ph with
          | Some "B" ->
              incr n_spans;
              stack := (name, Option.value e.e_cat ~default:"?", e.e_ts) :: !stack;
              depth := max !depth (List.length !stack)
          | Some "E" -> (
              match !stack with
              | [] -> error "event %d: E (%s) with no open span" i name
              | (bname, bcat, bts) :: rest ->
                  stack := rest;
                  if e.e_name <> None && name <> bname then
                    error
                      "event %d: E for %S closes open span %S (parents must \
                       close after children)"
                      i name bname;
                  let dur = e.e_ts -. bts in
                  let s =
                    Option.value (Hashtbl.find_opt stats bname)
                      ~default:
                        { sp_name = bname; sp_cat = bcat; sp_count = 0;
                          sp_total = 0.0; sp_max = 0.0 }
                  in
                  Hashtbl.replace stats bname
                    { s with sp_count = s.sp_count + 1;
                             sp_total = s.sp_total +. dur;
                             sp_max = Float.max s.sp_max dur })
          | Some ("i" | "I") ->
              incr n_instants;
              instant i name (fun k -> Option.bind e.e_args (Json.member k)) e.e_ts
          | Some _ -> () (* M, X, … metadata: tolerated, uncounted *)
          | None -> error "event %d (%s): missing ph" i name)
        events;
      List.iter (fun (bname, _, _) -> error "span %S never closed" bname) !stack;
      if !n_errors > max_errors then
        errors :=
          Printf.sprintf "... and %d more errors" (!n_errors - max_errors) :: !errors;
      {
        r_events = List.length events;
        r_spans = !n_spans;
        r_instants = !n_instants;
        r_depth = !depth;
        r_errors = List.rev !errors;
        r_phases =
          Hashtbl.fold (fun _ s acc -> s :: acc) stats []
          |> List.sort (fun a b -> compare b.sp_total a.sp_total);
        r_tree =
          (if !tr_nodes = 0 then None
           else
             Some
               { tr_nodes = !tr_nodes; tr_max_depth = !tr_max_depth;
                 tr_warm = !tr_warm; tr_statuses = sorted statuses;
                 tr_domains = sorted domains });
        r_timeline = List.rev !timeline;
        r_cuts = !cuts;
        r_samples = !samples;
        r_peak_heap_words = !heap;
        r_peak_rss_kb = !rss;
        r_flows = !flows;
        r_stop = { !stop with st_degraded = List.rev !stop.st_degraded };
      }

    let analyze j =
      match (Json.member "traceEvents" j, j) with
      | Some (Json.List evs), _ -> Ok (fold (List.map of_chrome evs) [])
      | Some _, _ -> Error "\"traceEvents\" is not a list"
      | None, Json.List lines ->
          let events, framing = of_log lines in
          Ok (fold events framing)
      | None, _ ->
          Error "neither a Chrome trace (no \"traceEvents\" key) nor log lines"
  end

  (* The [trace] object of Metrics files (schema v4): the view's flags
     and a projection of its analysis. *)
  let summary () =
    let r = Result.get_ok (Analysis.analyze (export_chrome ())) in
    let point p = Json.List [ Json.Float p.Analysis.gp_ts; Json.Float p.gp_gap ] in
    Json.Obj
      [
        ("enabled", Json.Bool view.on);
        ("events", Json.Int r.r_events);
        ("spans", Json.Int r.r_spans);
        ("instants", Json.Int r.r_instants);
        ("max_depth", Json.Int r.r_depth);
        ("dropped", Json.Int (dropped ()));
        ( "first_incumbent_s",
          Json.Float (match r.r_timeline with p :: _ -> p.gp_ts | [] -> Float.nan) );
        ("gap_trajectory", Json.List (List.map point r.r_timeline));
      ]
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

  type event = {
    l_ts : float;  (** seconds since {!enable}, wall clock *)
    l_level : level;
    l_name : string;
    l_args : (string * Json.t) list;
  }

  let schema = log_schema
  let view = View.log
  let default_cap = view.cap
  let sink : (event -> unit) option ref = ref None

  let enable ?cap ?(level = Info) () =
    let cap = Option.fold cap ~none:default_cap ~some:(max 16) in
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
   [period_ms] milliseconds and snapshots GC statistics, peak
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
        (* [Gc.minor_words] would count this domain's words only; the
           other domains' counts are as of their last minor collection. *)
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

  let start ~period_ms =
    locked probe_mutex (fun () ->
        if not (Atomic.get running_flag) then begin
          Atomic.set stop_flag false;
          Atomic.set n_samples 0;
          let period_s = float_of_int (max 1 period_ms) /. 1000.0 in
          dom := Some (Domain.spawn (fun () -> loop period_s));
          Atomic.set running_flag true
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
  let schema_version = 9

  (* File-level resource totals, captured at write time: process-lifetime
     GC figures, the current and top heap, and (Linux) the peak-RSS
     high-water mark, plus how many probe samples informed the run.
     [Gc.quick_stat] counts each domain's minor words up to its last minor
     collection and [Gc.minor_words] only this domain's, so one minor
     collection first makes the total exact over every domain. *)
  let resources () =
    Gc.minor ();
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
        ("results", Json.List results);
      ]

  let write_file ~path ~results =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Json.to_channel oc (file ~results))
end
