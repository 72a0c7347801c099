(* The benchmark's workloads: which jobs run, on which inputs, and how the
   seed turns into stimulus vectors and job order. *)

type input = {
  label : string;  (** "AES", "RS taps=6", ... *)
  graph : Ir.Cdfg.t;
  setup : Mams.Flow.setup;
  black_box : (kind:string -> int64 array -> int64) option;
  stimulus : (string, int64 array) Hashtbl.t;
      (** per input port, one value per cycle (cycled past the end) *)
}

type job = {
  name : string;
  input : input;
  method_ : Mams.Flow.method_;
      (** run through [Mams.Flow.run] untraced, rebuilt by {!Compose} traced *)
}

type t = {
  name : string;
  pass_s : float;
      (** nominal wall time of one pass, with the benchmark's own per-job
          work, on a 2-core x86-64 host; sets how many
          passes fill [--seconds] *)
  min_passes : int;  (** enough runs of every job for its median to be steady *)
  setups : int;
      (** set-ups per run (input build + warm-up pass); [setup_s] is their
          median *)
  jobs : seed:int -> job list;  (** builds every input the workload needs *)
}

let stimulus_cycles = 64

(* Every solve proves optimality far inside this budget (GSM MILP-map, the
   slowest in the suite, takes about 2 s on a 2-core x86-64 host). *)
let time_limit = 60.0

(* Registry setup: the entry's clock and resources, cuts and presolve on,
   audit off, one domain, and a budget several times the slowest solve. *)
let registry_setup (e : Benchmarks.Registry.entry) =
  let device = Fpga.Device.make ~t_clk:e.t_clk () in
  {
    (Mams.Flow.default_setup ~device) with
    resources = e.resources;
    time_limit;
    domains = Some 1;
    cuts = Some true;
    presolve = Some true;
  }

(* The scaling study's setup (10 ns clock, unlimited resources). *)
let scaling_setup () =
  let device = Fpga.Device.make ~t_clk:10.0 () in
  {
    (Mams.Flow.default_setup ~device) with
    time_limit;
    domains = Some 1;
    cuts = Some true;
    presolve = Some true;
  }

let mask width v =
  if width >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let stimulus ~seed label g =
  let rng = Random.State.make [| seed; Hashtbl.hash label |] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun id ->
      let width = Ir.Cdfg.width g id in
      Hashtbl.replace tbl (Ir.Cdfg.node_name g id)
        (Array.init stimulus_cycles (fun _ ->
             mask width (Random.State.bits64 rng))))
    (Ir.Cdfg.inputs g);
  tbl

let make_input ~seed label graph setup black_box =
  { label; graph; setup; black_box; stimulus = stimulus ~seed label graph }

let registry ~seed name =
  let e = Benchmarks.Registry.find name in
  make_input ~seed e.name (e.build ()) (registry_setup e) e.black_box

let rs_taps ~seed taps =
  make_input ~seed
    (Printf.sprintf "RS taps=%d" taps)
    (Benchmarks.Rs.full ~width:4 ~taps ())
    (scaling_setup ()) None

let xorr_n ~seed elements =
  make_input ~seed
    (Printf.sprintf "XORR n=%d" elements)
    (Benchmarks.Xorr.build ~elements ~width:8 ~mix_depth:3 ())
    (scaling_setup ()) None

let kernels = [ "CLZ"; "XORR"; "GFMUL"; "CORDIC"; "MT"; "AES"; "RS"; "DR"; "GSM" ]

let flow_job m input =
  { name = Mams.Flow.method_name m ^ "/" ^ input.label; input; method_ = m }

(* Table 1/2 as a user runs it: every solve proves optimality well inside
   its budget, so only time can move between runs. AES MILP-map is left
   out: at about 9 s a solve it would take most of a run's time and still
   get too few runs for its time to be steady. *)
let suite =
  {
    name = "suite";
    pass_s = 3.5;
    min_passes = 5;
    setups = 3;
    jobs =
      (fun ~seed ->
        let inputs = List.map (registry ~seed) kernels in
        let find l = List.find (fun i -> i.label = l) inputs in
        List.map (flow_job Mams.Flow.Milp_base) inputs
        @ List.map
            (fun l -> flow_job Mams.Flow.Milp_map (find l))
            [ "GFMUL"; "CORDIC"; "DR"; "RS"; "GSM" ]);
  }

(* The schedulers, cut enumeration, bit-level dependence tracking and
   techmap, with no MILP at all: the control workload for solver changes. *)
let heuristic =
  {
    name = "heuristic";
    pass_s = 2.0;
    min_passes = 5;
    setups = 3;
    jobs =
      (fun ~seed ->
        let inputs =
          List.map (registry ~seed) kernels
          @ List.map (rs_taps ~seed) [ 2; 4; 6 ]
          @ List.map (xorr_n ~seed) [ 4; 8; 12 ]
        in
        List.concat_map
          (fun m -> List.map (flow_job m) inputs)
          [ Mams.Flow.Hls_tool; Mams.Flow.Sdc_tool; Mams.Flow.Map_heuristic ]);
  }

let all = [ suite; heuristic ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Job order within one pass: a seeded shuffle, different in every pass. *)
let order ~seed ~pass jobs =
  let rng = Random.State.make [| seed; pass; 0x5eed |] in
  let a = Array.of_list jobs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
