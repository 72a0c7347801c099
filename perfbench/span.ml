(* In-memory span and counter recorder for the traced benchmark run.

   Spans are opened by the benchmark around its calls into each layer's
   public functions; nothing inside the library is instrumented. Each span
   has a name, a start, an end, a parent (the innermost span open when it
   started) and the id of the job it belongs to. Counters are recorded at
   the same boundaries and attributed to the current job. Everything stays
   in memory until the run ends. When recording is off every entry point is
   a flag test. *)

type t = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** -1 for a span opened outside any other span *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let current_job = ref (-1)

(* job id -> (pass, job name) *)
let jobs : (int, int * string) Hashtbl.t = Hashtbl.create 256

(* (job id, counter name) -> accumulated value *)
let counters : (int * string, float) Hashtbl.t = Hashtbl.create 1024

let now = Obs.Clock.wall

let begin_job ~pass ~name =
  if !enabled then begin
    let id = Hashtbl.length jobs in
    Hashtbl.replace jobs id (pass, name);
    current_job := id
  end

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let job = !current_job in
    open_spans := id :: !open_spans;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        open_spans := List.tl !open_spans;
        recorded := { id; name; job; parent; t0; t1 } :: !recorded)
      f
  end

let count name v =
  if !enabled then begin
    let key = (!current_job, name) in
    let old = Option.value (Hashtbl.find_opt counters key) ~default:0.0 in
    Hashtbl.replace counters key (old +. v)
  end

let pass_of_job job = Option.map fst (Hashtbl.find_opt jobs job)

(* Self time: a span's duration minus the time its direct children cover.
   Children of one span run one after another, so their durations add. *)
let self_times () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value (Hashtbl.find_opt children s.parent) ~default:0.0 in
        Hashtbl.replace children s.parent (c +. (s.t1 -. s.t0)))
    !recorded;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt children s.id) ~default:0.0 in
      (s, s.t1 -. s.t0 -. c))
    !recorded

(* Per-pass sums of span self time, by span name. *)
let self_by_pass () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      match pass_of_job s.job with
      | None -> ()
      | Some pass ->
          let key = (pass, s.name) in
          let old = Option.value (Hashtbl.find_opt tbl key) ~default:0.0 in
          Hashtbl.replace tbl key (old +. self))
    (self_times ());
  tbl

(* Per-pass sums of counters, by counter name. *)
let counts_by_pass () =
  let tbl = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (job, name) v ->
      match pass_of_job job with
      | None -> ()
      | Some pass ->
          let key = (pass, name) in
          let old = Option.value (Hashtbl.find_opt tbl key) ~default:0.0 in
          Hashtbl.replace tbl key (old +. v))
    counters;
  tbl

let spans () = List.rev !recorded
