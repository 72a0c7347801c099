(* Process-global instrumentation registry. Everything is stdlib-only:
   the library must be linkable from the innermost subsystems (lp, cuts)
   without dragging in fmt, and the JSON emitter replaces yojson. *)

(* Registries are process-global and may be touched from worker domains
   (simplex counters, trace instants fire inside the parallel B&B pool),
   so lookups and hot mutations go through a lock or an atomic. One lock
   for all registries is fine: registration happens at module init and
   the guarded paths are cold. *)
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

(* Lowest {!Log.level} value any sink takes: 0 while tracing (the trace
   keeps every level), the log's minimum while logging, [max_int] with
   both off. Each sink publishes its own floor; [floor] caches the
   minimum so an emission site's guard is one load and one compare. *)
let sink_floors = [| max_int; max_int |] (* trace, log *)
let floor = ref max_int

let set_floor sink v =
  sink_floors.(sink) <- v;
  floor := min sink_floors.(0) sink_floors.(1)

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
  let reset_all () = Hashtbl.iter (fun _ c -> Atomic.set c.n 0) registry

  let snapshot () =
    Hashtbl.fold
      (fun _ c acc ->
        let n = Atomic.get c.n in
        if n <> 0 then (c.cname, n) :: acc else acc)
      registry []
    |> List.sort compare
end

module Timer = struct
  type t = {
    tname : string;
    mutable total : float;
    mutable spans : int;
    mutable depth : int;  (** open {!span}s of this timer on the stack *)
    mutable t0 : float;  (** entry time of the outermost open span *)
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  let get name =
    locked registry_mutex (fun () ->
        match Hashtbl.find_opt registry name with
        | Some t -> t
        | None ->
            let t =
              { tname = name; total = 0.0; spans = 0; depth = 0; t0 = 0.0 }
            in
            Hashtbl.add registry name t;
            t)

  (* Re-entrancy: a span entered while another span of the same timer is
     open must not add its interval again — only the outermost exit
     accumulates, so [total] stays wall-per-timer even under recursion. *)
  let span t f =
    if t.depth = 0 then t.t0 <- Clock.wall ();
    t.depth <- t.depth + 1;
    let record () =
      t.depth <- t.depth - 1;
      if t.depth = 0 then t.total <- t.total +. (Clock.wall () -. t.t0);
      t.spans <- t.spans + 1
    in
    match f () with
    | v ->
        record ();
        v
    | exception e ->
        record ();
        raise e

  let elapsed t = t.total
  let count t = t.spans
  let name t = t.tname

  let reset_all () =
    Hashtbl.iter
      (fun _ t ->
        t.total <- 0.0;
        t.spans <- 0)
      registry

  let snapshot () =
    Hashtbl.fold
      (fun _ t acc ->
        if t.total <> 0.0 then (t.tname, t.total) :: acc else acc)
      registry []
    |> List.sort compare
end

module Series = struct
  (* Long MILP runs can add a point per B&B node; an unbounded list is a
     slow leak. Each series is capped: once [cap] stored points are
     reached, every other stored point is discarded (oldest-first
     thinning) and the recording stride doubles, so the series keeps a
     deterministic, uniformly-spaced subsample of the full stream.
     Determinism matters for the instrumentation-neutrality invariant:
     the same add-stream always yields the same stored points. *)

  let default_cap = 4096

  type t = {
    sname : string;
    cap : int;
    mutable pts : (float * float) list; (* reversed *)
    mutable n : int;  (** stored points, [List.length pts] *)
    mutable stride : int;  (** record every [stride]-th {!add} *)
    mutable seen : int;  (** total {!add} calls since reset *)
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 8

  let get name =
    locked registry_mutex (fun () ->
        match Hashtbl.find_opt registry name with
        | Some s -> s
        | None ->
            let s =
              { sname = name;
                cap = Option.value ~default:default_cap
                        (env_int "PIPESYN_SERIES_CAP" ~min:2);
                pts = []; n = 0; stride = 1; seen = 0 }
            in
            Hashtbl.add registry name s;
            s)

  (* Incumbent/convergence points arrive from whichever domain found the
     improvement, so the whole stride/thin update runs under the lock. *)
  let add s ~x ~y =
    locked registry_mutex @@ fun () ->
    let i = s.seen in
    s.seen <- s.seen + 1;
    if i mod s.stride = 0 then begin
      s.pts <- (x, y) :: s.pts;
      s.n <- s.n + 1;
      if s.n >= s.cap then begin
        (* Thin to every other stored point, keeping the oldest so the
           series still starts at its first recorded sample. *)
        let kept =
          List.filteri (fun i _ -> i mod 2 = 0) (List.rev s.pts) |> List.rev
        in
        s.pts <- kept;
        s.n <- List.length kept;
        s.stride <- s.stride * 2
      end
    end

  let points s = List.rev s.pts

  (* Most recent point, if any. Lock-guarded: the resource probe reads
     series the solver domains are appending to. *)
  let last s =
    locked registry_mutex (fun () ->
        match s.pts with p :: _ -> Some p | [] -> None)

  let name s = s.sname
  let seen s = s.seen
  let capacity s = s.cap

  let reset_all () =
    Hashtbl.iter
      (fun _ s ->
        s.pts <- [];
        s.n <- 0;
        s.stride <- 1;
        s.seen <- 0)
      registry

  let snapshot () =
    Hashtbl.fold
      (fun _ s acc ->
        if s.pts <> [] then (s.sname, List.rev s.pts) :: acc else acc)
      registry []
    |> List.sort compare
end

let reset () =
  Counter.reset_all ();
  Timer.reset_all ();
  Series.reset_all ()

let counters () = Counter.snapshot ()
let timers () = Timer.snapshot ()
let series () = Series.snapshot ()

let snapshot () =
  List.map (fun (n, v) -> (n, float_of_int v)) (counters ())
  @ List.map (fun (n, v) -> (n ^ ".s", v)) (timers ())
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
end

module Trace = struct
  (* Structured tracing: hierarchical spans (B/E pairs) and instant
     events over one process-wide buffer. Disabled by default — every
     entry point checks one bool, so instrumented code pays a branch and
     nothing else. Timestamps are monotonized wall seconds ({!Clock.wall})
     relative to the [enable] call, matching the clock deadlines use, so
     multi-domain timelines line up with real time.

     The buffer is bounded (default {!default_cap} events, env
     [PIPESYN_TRACE_CAP]). On overflow new begins/instants are dropped
     deterministically and counted in {!dropped}; an [end_span] whose
     begin was recorded is always written (the buffer may exceed the cap
     by at most the open-span depth), so exported traces stay
     well-formed: every recorded B has a matching E. *)

  (* [tid] is the Chrome/Perfetto thread lane. The coordinator records on
     lane 1; B&B worker slot w (0-based, slot 0 = the coordinating
     domain) records on lane w + 1, so per-domain utilization is visible
     as separate rows. *)
  type event =
    | Begin of {
        name : string;
        cat : string;
        ts : float;
        tid : int;
        args : (string * Json.t) list;
      }
    | End of { name : string; cat : string; ts : float; tid : int }
    | Instant of {
        name : string;
        cat : string;
        ts : float;
        tid : int;
        args : (string * Json.t) list;
      }

  let default_cap = 1_000_000

  let on = ref false
  let epoch = ref 0.0
  let cap = ref default_cap
  let dropped_n = ref 0
  let spans_n = ref 0
  let instants_n = ref 0
  let max_depth_seen = ref 0

  (* Growable event buffer; grows geometrically, never shrinks until
     [clear]. A list would invert order and cost a rev on export. *)
  let buf : event array ref = ref [||]
  let len = ref 0

  (* Open spans, innermost first. [recorded] = false when the matching
     Begin was dropped at the cap, so its End must be dropped too. *)
  type open_span = { o_name : string; o_cat : string; recorded : bool }

  let open_stack : open_span list ref = ref []

  (* Serializes buffer/counter mutation: worker domains emit instants
     concurrently with coordinator spans. The span stack itself is
     coordinator-only (workers never open spans), but every push must be
     exclusive. *)
  let trace_mutex = Mutex.create ()

  let push e =
    if !len >= Array.length !buf then begin
      let ncap = max 256 (2 * Array.length !buf) in
      let a = Array.make ncap e in
      Array.blit !buf 0 a 0 !len;
      buf := a
    end;
    !buf.(!len) <- e;
    incr len

  let enabled () = !on
  let now () = Clock.wall () -. !epoch
  let num_events () = !len
  let dropped () = !dropped_n

  let clear () =
    buf := [||];
    len := 0;
    dropped_n := 0;
    spans_n := 0;
    instants_n := 0;
    max_depth_seen := 0;
    open_stack := []

  let enable ?cap:c () =
    cap := buffer_cap c "PIPESYN_TRACE_CAP" ~default:default_cap;
    clear ();
    epoch := Clock.wall ();
    on := true;
    set_floor 0 0

  let begin_span ?(cat = "app") ?(args = []) name =
    if !on then
      locked trace_mutex @@ fun () ->
      let depth = 1 + List.length !open_stack in
      if depth > !max_depth_seen then max_depth_seen := depth;
      let recorded = !len < !cap in
      if recorded then begin
        push (Begin { name; cat; ts = now (); tid = 1; args });
        incr spans_n
      end
      else incr dropped_n;
      open_stack := { o_name = name; o_cat = cat; recorded } :: !open_stack

  let end_span () =
    if !on then
      locked trace_mutex @@ fun () ->
      match !open_stack with
      | [] -> () (* enable () raced a begin; ignore the stray end *)
      | o :: rest ->
          open_stack := rest;
          if o.recorded then
            push (End { name = o.o_name; cat = o.o_cat; ts = now (); tid = 1 })

  let span ?cat ?args name f =
    if not !on then f ()
    else begin
      begin_span ?cat ?args name;
      match f () with
      | v ->
          end_span ();
          v
      | exception e ->
          end_span ();
          raise e
    end

  let add_instant ~cat ~tid ~args name =
    if !on then
      locked trace_mutex @@ fun () ->
      if !len < !cap then begin
        push (Instant { name; cat; ts = now (); tid; args });
        incr instants_n
      end
      else incr dropped_n

  let disable () =
    (* Close any still-open recorded spans so the buffer stays
       well-formed even if tracing is switched off mid-flow. *)
    locked trace_mutex @@ fun () ->
    let ts = now () in
    List.iter
      (fun o ->
        if o.recorded then
          push (End { name = o.o_name; cat = o.o_cat; ts; tid = 1 }))
      !open_stack;
    open_stack := [];
    on := false;
    set_floor 0 max_int

  (* ---- export ---------------------------------------------------------- *)

  (* Events still open at export time get synthesized closing E events
     (at the current timestamp) appended to the exported stream, without
     mutating the live buffer. *)
  let closing_ends () =
    let ts = now () in
    List.filter_map
      (fun o ->
        if o.recorded then
          Some (End { name = o.o_name; cat = o.o_cat; ts; tid = 1 })
        else None)
      !open_stack

  let all_events () =
    List.init !len (fun i -> !buf.(i)) @ closing_ends ()

  let us t = t *. 1e6

  (* One exported event: the Chrome field set (ts in microseconds, pid,
     thread-scoped instants) or the native one (ts_s in seconds). *)
  let json_of_event ~chrome e =
    let name, cat, ph, ts, tid, args =
      match e with
      | Begin b -> (b.name, b.cat, "B", b.ts, b.tid, b.args)
      | End e -> (e.name, e.cat, "E", e.ts, e.tid, [])
      | Instant i -> (i.name, i.cat, "i", i.ts, i.tid, i.args)
    in
    let str v = Json.String v in
    Json.Obj
      ((if chrome then
          [ ("name", str name); ("cat", str cat); ("ph", str ph);
            ("ts", Json.Float (us ts)); ("pid", Json.Int 1);
            ("tid", Json.Int tid) ]
          @ if ph = "i" then [ ("s", str "t") ] else []
        else
          [ ("ph", str ph); ("name", str name); ("cat", str cat);
            ("ts_s", Json.Float ts); ("tid", Json.Int tid) ])
      @ if args = [] then [] else [ ("args", Json.Obj args) ])

  let export_chrome () =
    Json.Obj
      [
        ("traceEvents",
          Json.List (List.map (json_of_event ~chrome:true) (all_events ())));
        ("displayTimeUnit", Json.String "ms");
      ]

  let export_native () =
    Json.Obj
      [
        ("schema", Json.String "pipesyn-trace-v1");
        ("clock", Json.String "wall-s");
        ("dropped", Json.Int !dropped_n);
        ("events",
          Json.List (List.map (json_of_event ~chrome:false) (all_events ())));
      ]

  let write_chrome ~path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Json.to_channel oc (export_chrome ()))

  (* Summary folded into Metrics files (schema v4): cheap scan of the
     buffer for the headline numbers plus the incumbent-gap trajectory
     extracted from [milp.incumbent] instants. *)
  let summary () =
    let first_incumbent = ref Float.nan in
    let gaps = ref [] in
    for i = 0 to !len - 1 do
      match !buf.(i) with
      | Instant { name = "milp.incumbent"; ts; args; _ } ->
          if Float.is_nan !first_incumbent then first_incumbent := ts;
          let gap =
            match List.assoc_opt "gap" args with
            | Some (Json.Float g) -> g
            | Some (Json.Int g) -> float_of_int g
            | _ -> Float.nan
          in
          gaps := Json.List [ Json.Float ts; Json.Float gap ] :: !gaps
      | _ -> ()
    done;
    Json.Obj
      [
        ("enabled", Json.Bool !on);
        ("events", Json.Int !len);
        ("spans", Json.Int !spans_n);
        ("instants", Json.Int !instants_n);
        ("max_depth", Json.Int !max_depth_seen);
        ("dropped", Json.Int !dropped_n);
        ("first_incumbent_s", Json.Float !first_incumbent);
        ("gap_trajectory", Json.List (List.rev !gaps));
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

    let num = function
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> Float.nan

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

(* Leveled structured event log: the narrative companion to {!Trace}.
   Trace answers "where did the time go" with nested spans; Log answers
   "what happened" with a flat ordered stream of the events {!emit}
   routes to it — flow phase transitions, cascade retries/degradations,
   incumbents, cut rounds, checkpoints, recoveries, stalls, probe
   samples — serialized as NDJSON (one JSON object per line, greppable
   and tail-able, framed by a header and a footer line). Same discipline
   as Trace: process-global, mutex-guarded, bounded with
   drop-new-at-the-cap plus a drop count, off by default, and strictly
   observational — no solver decision may ever read it. *)
module Log = struct
  type level = Debug | Info | Warn | Error

  let level_value = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

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
  let default_cap = 200_000

  (* Everything below is guarded by [log_mutex]; [on] is read unlocked
     on the hot path (a stale read can only delay the first or last
     event of an enable window, never corrupt the buffer). *)
  let log_mutex = Mutex.create ()
  let on = ref false
  let epoch = ref 0.0
  let cap = ref default_cap
  let min_level = ref Info
  let buf : event option array ref = ref [||]
  let len = ref 0
  let dropped_n = ref 0
  let sink : (event -> unit) option ref = ref None

  let push_locked e =
    if !len >= Array.length !buf then begin
      let ncap = min !cap (max 1024 (2 * Array.length !buf)) in
      let nbuf = Array.make ncap None in
      Array.blit !buf 0 nbuf 0 !len;
      buf := nbuf
    end;
    !buf.(!len) <- Some e;
    incr len

  let enable ?cap:c ?(level = Info) () =
    locked log_mutex (fun () ->
        on := true;
        epoch := Clock.wall ();
        cap := buffer_cap c "PIPESYN_LOG_CAP" ~default:default_cap;
        min_level := level;
        buf := [||];
        len := 0;
        dropped_n := 0;
        set_floor 1 (level_value level))

  let disable () =
    locked log_mutex (fun () ->
        on := false;
        set_floor 1 max_int)
  let enabled () = !on

  let clear () =
    locked log_mutex (fun () ->
        buf := [||];
        len := 0;
        dropped_n := 0)

  let set_sink f = locked log_mutex (fun () -> sink := f)

  let add ~level name args =
    if !on && level_value level >= level_value !min_level then begin
      let cb =
        locked log_mutex (fun () ->
            if not !on then None
            else begin
              let e =
                { l_ts = Clock.wall () -. !epoch; l_level = level;
                  l_name = name; l_args = args }
              in
              if !len < !cap then push_locked e else incr dropped_n;
              match !sink with Some f -> Some (f, e) | None -> None
            end)
      in
      (* The sink (the --progress renderer) runs outside the lock so a
         slow terminal never blocks solver domains, and its exceptions
         never reach the solver. *)
      match cb with Some (f, e) -> ( try f e with _ -> ()) | None -> ()
    end

  let num_events () = locked log_mutex (fun () -> !len)
  let dropped () = locked log_mutex (fun () -> !dropped_n)

  let json_of_event e =
    Json.Obj
      (("t", Json.Float e.l_ts)
      :: ("level", Json.String (level_name e.l_level))
      :: ("ev", Json.String e.l_name)
      ::
      (match e.l_args with [] -> [] | args -> [ ("args", Json.Obj args) ]))

  (* NDJSON form: a header object naming the schema and clock, one
     object per event, and a [log.end] footer carrying the event and
     drop counts — so a consumer can both stream the file line by line
     and check completeness at the end. *)
  let to_lines () =
    locked log_mutex (fun () ->
        let header =
          Json.Obj
            [
              ("schema", Json.String schema);
              ("clock", Json.String "wall-s");
              ("cap", Json.Int !cap);
              ("min_level", Json.String (level_name !min_level));
            ]
        in
        let footer =
          Json.Obj
            [
              ("ev", Json.String "log.end");
              ("t", Json.Float (Clock.wall () -. !epoch));
              ("events", Json.Int !len);
              ("dropped", Json.Int !dropped_n);
            ]
        in
        let lines = ref [ footer ] in
        for i = !len - 1 downto 0 do
          match !buf.(i) with
          | Some e -> lines := json_of_event e :: !lines
          | None -> ()
        done;
        header :: !lines)

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

(* One emission path: each event becomes a trace instant while tracing
   (every level) and a log event when the log takes its level; the log's
   sink sees exactly the events the log accepts. *)
let recording ?(level = Log.Info) () = Log.level_value level >= !floor

let emit ?(level = Log.Info) ?(cat = "app") ?(tid = 1) name args =
  Trace.add_instant ~cat ~tid ~args name;
  Log.add ~level name args

(* Background resource sampler: a dedicated domain that wakes every
   [PIPESYN_PROBE_MS] milliseconds and snapshots GC statistics, peak
   RSS, the live solver counters and the incumbent/gap into bounded
   {!Series} and ["probe.sample"] events — the live signal that
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
     this prefix; the probe turns their deltas into rate series. *)
  let domain_counter_prefix = "milp.nodes.d"

  let loop period_s =
    let t0 = Clock.wall () in
    let c_nodes = Counter.get "milp.bnb_nodes" in
    let c_pivots = Counter.get "milp.lp_pivots" in
    let s_heap = Series.get "probe.heap_words" in
    let s_minor = Series.get "probe.minor_words" in
    let s_major = Series.get "probe.major_words" in
    let s_rss = Series.get "probe.rss_kb" in
    let s_nrate = Series.get "probe.nodes_per_s" in
    let s_prate = Series.get "probe.pivots_per_s" in
    let prev_t = ref t0 in
    let prev_nodes = ref (Counter.value c_nodes) in
    let prev_pivots = ref (Counter.value c_pivots) in
    let prev_dom : (string, int) Hashtbl.t = Hashtbl.create 8 in
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
        let t = now_ -. t0 in
        let dt = Float.max 1e-9 (now_ -. !prev_t) in
        let g = Gc.quick_stat () in
        let nodes = Counter.value c_nodes in
        let pivots = Counter.value c_pivots in
        let nrate = float_of_int (nodes - !prev_nodes) /. dt in
        let prate = float_of_int (pivots - !prev_pivots) /. dt in
        let rss = peak_rss_kb () in
        Series.add s_heap ~x:t ~y:(float_of_int g.Gc.heap_words);
        Series.add s_minor ~x:t ~y:g.Gc.minor_words;
        Series.add s_major ~x:t ~y:g.Gc.major_words;
        (match rss with
        | Some kb -> Series.add s_rss ~x:t ~y:(float_of_int kb)
        | None -> ());
        Series.add s_nrate ~x:t ~y:nrate;
        Series.add s_prate ~x:t ~y:prate;
        let pl = String.length domain_counter_prefix in
        List.iter
          (fun (cname, v) ->
            if
              String.length cname > pl
              && String.sub cname 0 pl = domain_counter_prefix
            then begin
              let prev =
                match Hashtbl.find_opt prev_dom cname with
                | Some p -> p
                | None -> 0
              in
              Hashtbl.replace prev_dom cname v;
              let wid = String.sub cname pl (String.length cname - pl) in
              Series.add
                (Series.get ("probe.nodes_per_s.d" ^ wid))
                ~x:t
                ~y:(float_of_int (v - prev) /. dt)
            end)
          (Counter.snapshot ());
        let gap =
          match Series.last (Series.get "milp.convergence") with
          | Some (_, y) -> y
          | None -> Float.nan
        in
        let inc =
          match Series.last (Series.get "milp.incumbents") with
          | Some (_, y) -> y
          | None -> Float.nan
        in
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
            ("nodes_per_s", Json.Float nrate);
            ("pivots_per_s", Json.Float prate);
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
      | Some v when v >= 1 -> Some v
      | Some _ -> None
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
    let solve_s =
      match Json.member "solve_s" j with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | _ -> None
    in
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
      match Json.member k j with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> Float.nan
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
    let gap_closed_root =
      match Json.member "gap_closed_root" j with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> Float.nan
    in
    (* Absent in schema v1–v6 files. *)
    let int_opt k =
      match Json.member k j with Some (Json.Int i) -> i | _ -> 0
    in
    let checkpoints = int_opt "checkpoints" in
    let recoveries = int_opt "recoveries" in
    let stalls = int_opt "stalls" in
    (* Absent in schema v1–v8 files. *)
    let gc_flt k =
      match Json.member k j with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> 0.0
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
