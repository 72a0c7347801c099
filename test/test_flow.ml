(* End-to-end tests of the three flows (HLS-Tool / MILP-base / MILP-map) on
   small kernels, including the paper's Figure 1 scenario. *)

let fig1_setup () =
  (* Figure 1: 4-LUT device, 5 ns clock, and — per the caption — "each
     logic operation or LUT incurs a 2ns delay": characterized delays are
     2 ns per op, which splits the kernel into three stages as in
     Fig. 1(a). *)
  let device = Fpga.Device.figure1 in
  let delays =
    Fpga.Delays.make ~logic:2.0 ~arith_base:1.6 ~arith_per_bit:0.2 ()
  in
  { (Mams.Flow.default_setup ~device) with delays; time_limit = 30.0 }

let get = function
  | Ok r -> r
  | Error e -> Alcotest.failf "flow failed: %s" e

let test_fig1_hls_tool () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let r = get (Mams.Flow.run (fig1_setup ()) Mams.Flow.Hls_tool g) in
  (* Additive delays force the prep -> xor -> cmp -> mux chain across at
     least three stages, as in Fig. 1(a). *)
  Alcotest.(check bool) "three stages (suboptimal)" true
    (Sched.Schedule.latency r.schedule >= 2);
  Alcotest.(check bool) "has pipeline registers" true (r.qor.ffs > 2)

let test_fig1_milp_map_optimal () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let r = get (Mams.Flow.run (fig1_setup ()) Mams.Flow.Milp_map g) in
  (* Paper: the optimal schedule is a single combinational stage with only
     a couple of LUT cones (here: the state xor and the output cone). *)
  Alcotest.(check int) "single stage" 0 (Sched.Schedule.latency r.schedule);
  Alcotest.(check bool) "at most 4 LUTs" true (r.qor.luts <= 4);
  (* Only the recurrence register remains: 2 bits. *)
  Alcotest.(check int) "recurrence register only" 2 r.qor.ffs

let test_fig1_map_beats_hls () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let setup = fig1_setup () in
  let hls = get (Mams.Flow.run setup Mams.Flow.Hls_tool g) in
  let map = get (Mams.Flow.run setup Mams.Flow.Milp_map g) in
  Alcotest.(check bool) "map needs fewer FFs" true (map.qor.ffs < hls.qor.ffs);
  Alcotest.(check bool) "map needs no more LUTs" true
    (map.qor.luts <= hls.qor.luts)

let test_all_flows_verified_rs8 () =
  let g = Benchmarks.Rs.kernel ~width:8 () in
  let setup =
    { (Mams.Flow.default_setup ~device:Fpga.Device.default) with
      time_limit = 30.0 }
  in
  List.iter
    (fun (m, r) ->
      match r with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" (Mams.Flow.method_name m) e)
    (Mams.Flow.run_all setup g)

let test_milp_base_no_worse_ffs () =
  (* MILP-base minimizes registers exactly, so it never uses more FFs than
     the heuristic under the same delay model. *)
  let g = Benchmarks.Rs.full ~width:4 ~taps:2 () in
  let setup =
    { (Mams.Flow.default_setup ~device:Fpga.Device.default) with
      time_limit = 60.0 }
  in
  let hls = get (Mams.Flow.run setup Mams.Flow.Hls_tool g) in
  let base = get (Mams.Flow.run setup Mams.Flow.Milp_base g) in
  Alcotest.(check bool) "base FFs <= hls FFs" true
    (base.qor.ffs <= hls.qor.ffs)

let test_milp_map_dominates () =
  let g = Benchmarks.Rs.full ~width:4 ~taps:2 () in
  let setup =
    { (Mams.Flow.default_setup ~device:Fpga.Device.default) with
      time_limit = 60.0 }
  in
  let hls = get (Mams.Flow.run setup Mams.Flow.Hls_tool g) in
  let map = get (Mams.Flow.run setup Mams.Flow.Milp_map g) in
  Alcotest.(check bool) "map FFs <= hls FFs" true (map.qor.ffs <= hls.qor.ffs)

let test_xor_tree_single_stage () =
  (* An 8-input xor tree: additive delays split it, mapping collapses it. *)
  let b = Ir.Builder.create () in
  let leaves =
    List.init 8 (fun i -> Ir.Builder.input b ~width:4 (Printf.sprintf "x%d" i))
  in
  let out = Ir.Builder.reduce b (fun b x y -> Ir.Builder.xor_ b x y) leaves in
  Ir.Builder.output b out;
  let g = Ir.Builder.finish b in
  let device = Fpga.Device.make ~k:4 ~lut_delay:2.0 ~t_clk:5.0 () in
  let delays = Fpga.Delays.make ~logic:2.0 () in
  let setup =
    { (Mams.Flow.default_setup ~device) with delays; time_limit = 30.0 }
  in
  let hls = get (Mams.Flow.run setup Mams.Flow.Hls_tool g) in
  let map = get (Mams.Flow.run setup Mams.Flow.Milp_map g) in
  (* additive: 3 levels x 2ns = 6ns > 5ns -> at least 2 stages *)
  Alcotest.(check bool) "hls pipelines" true
    (Sched.Schedule.latency hls.schedule >= 1);
  Alcotest.(check bool) "hls uses registers" true (hls.qor.ffs > 0);
  (* mapped: 8 inputs x 4 bits via K=4 -> 2 LUT levels = 4ns, one stage *)
  Alcotest.(check int) "map single stage" 0 (Sched.Schedule.latency map.schedule);
  Alcotest.(check int) "map zero FFs" 0 map.qor.ffs

let test_resource_constrained_bb () =
  (* Two bram reads, one port: II=1 impossible to satisfy Eq. 14 in the
     same phase; at II=2 they must land in different phases. *)
  let b = Ir.Builder.create () in
  let a = Ir.Builder.input b ~width:8 "a" in
  let r1 = Ir.Builder.black_box b ~kind:"load" ~resource:"bram_port" ~width:8 [ a ] in
  let r2 = Ir.Builder.black_box b ~kind:"load" ~resource:"bram_port" ~width:8 [ r1 ] in
  let o = Ir.Builder.xor_ b r1 r2 in
  Ir.Builder.output b o;
  let g = Ir.Builder.finish b in
  let setup =
    { (Mams.Flow.default_setup ~device:Fpga.Device.default) with
      resources = Fpga.Resource.of_list [ ("bram_port", 1) ];
      ii = 2;
      time_limit = 30.0 }
  in
  List.iter
    (fun (m, r) ->
      match r with
      | Ok res ->
          let phases =
            List.filter_map
              (fun v ->
                match Ir.Cdfg.op g v with
                | Ir.Op.Black_box _ -> Some (Sched.Schedule.phase res.Mams.Flow.schedule v)
                | _ -> None)
              (List.init (Ir.Cdfg.num_nodes g) Fun.id)
          in
          Alcotest.(check bool)
            (Mams.Flow.method_name m ^ ": distinct phases")
            true
            (List.sort_uniq compare phases = List.sort compare phases)
      | Error e -> Alcotest.failf "%s: %s" (Mams.Flow.method_name m) e)
    (Mams.Flow.run_all setup g)

(* --- the request codec: what a checkpoint stores to rebuild a run ----- *)

let request =
  Alcotest.testable
    (fun ppf r ->
      Fmt.string ppf (Obs.Json.to_string (Mams.Flow.Request.to_json r)))
    ( = )

let decoded = Alcotest.(result request string)

let test_request_round_trip () =
  let r =
    {
      Mams.Flow.Request.benchmark = "XORR";
      method_ = Milp_base;
      optimize = true;
      time_limit = 12.5;
      ii = 3;
      k = 6;
      alpha = 0.25;
      beta = 0.75;
      audit = true;
      stall_window = Some 0.125;
    }
  in
  Alcotest.check decoded "of_json (to_json r)" (Ok r)
    (Mams.Flow.Request.of_json (Mams.Flow.Request.to_json r));
  (* a checkpoint holds the metadata as text *)
  (match
     Obs.Json.of_string (Obs.Json.to_string (Mams.Flow.Request.to_json r))
   with
  | Ok j -> Alcotest.check decoded "through the text form" (Ok r) (Mams.Flow.Request.of_json j)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (key, method_) ->
      Alcotest.check decoded ("method " ^ key) (Ok { r with method_ })
        (Mams.Flow.Request.of_json
           (Mams.Flow.Request.to_json { r with method_ })))
    Mams.Flow.methods;
  Alcotest.check decoded "stall window off" (Ok { r with stall_window = None })
    (Mams.Flow.Request.of_json
       (Mams.Flow.Request.to_json { r with stall_window = None }))

(* The nine-field metadata `pipesyn run --checkpoint' wrote before the
   codec existed must keep resuming, with the setup resume built from
   it: absent stall_window means the watchdog stays off. *)
let test_request_nine_field_meta () =
  let legacy =
    {|{"benchmark": "CLZ", "method": "map", "time_limit": 2.0, "ii": 1, "k": 4, "alpha": 0.5, "beta": 0.5, "optimize": false, "audit": true}|}
  in
  let j =
    match Obs.Json.of_string legacy with Ok j -> j | Error e -> Alcotest.fail e
  in
  Alcotest.check decoded "nine-field meta"
    (Ok
       {
         Mams.Flow.Request.benchmark = "CLZ";
         method_ = Milp_map;
         optimize = false;
         time_limit = 2.0;
         ii = 1;
         k = 4;
         alpha = 0.5;
         beta = 0.5;
         audit = true;
         stall_window = None;
       })
    (Mams.Flow.Request.of_json j);
  let without key j =
    match j with
    | Obs.Json.Obj fields -> Obs.Json.Obj (List.remove_assoc key fields)
    | _ -> assert false
  in
  (match Mams.Flow.Request.of_json (without "ii" j) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded a request with no ii");
  match Mams.Flow.Request.of_json (without "optimize" (without "audit" j)) with
  | Ok r ->
      Alcotest.(check bool) "absent optimize is off" false r.optimize;
      Alcotest.(check bool) "absent audit is off" false r.audit
  | Error e -> Alcotest.fail e

(* A DR HLS run allocates well under a minor heap. Started on an empty
   one, it would read 0 minor and 0 major words under counts that stop at
   the last minor collection ([Gc.quick_stat]'s). *)
let test_row_gc_words () =
  let e = Benchmarks.Registry.find "DR" in
  let setup =
    { (Mams.Flow.default_setup ~device:(Fpga.Device.make ~t_clk:e.t_clk ()))
      with resources = e.resources }
  in
  let g = e.build () in
  Gc.minor ();
  let r = get (Mams.Flow.run setup Mams.Flow.Hls_tool g) in
  List.iter
    (fun key ->
      match Option.bind (Obs.Json.member key r.metrics) Obs.Json.number with
      | Some w ->
          Alcotest.(check bool) (Fmt.str "%s %.0f > 0" key w) true (w > 0.0)
      | None -> Alcotest.failf "row has no %s" key)
    [ "gc_minor_words"; "gc_major_words" ]

(* The perfbench `suite' jobs (MILP-base on the nine kernels, MILP-map on
   five) under perfbench's registry setup, once each through
   [Mams.Flow.run]: status, objective bits, nodes, pivots, LUT and FF of
   every solve, digested. A refactor of the solver that must not change
   the search path leaves the digest alone; a new pivot rule, tie-break
   or tolerance moves it. *)
let suite_setup (e : Benchmarks.Registry.entry) =
  let device = Fpga.Device.make ~t_clk:e.t_clk () in
  {
    (Mams.Flow.default_setup ~device) with
    resources = e.resources;
    time_limit = 60.0;
    domains = Some 1;
    cuts = Some true;
    presolve = Some true;
  }

let suite_line m name =
  let e = Benchmarks.Registry.find name in
  let r = get (Mams.Flow.run (suite_setup e) m (e.build ())) in
  let s = r.solve in
  let stat f = match s.milp_stats with Some st -> string_of_int (f st) | None -> "-" in
  Printf.sprintf "%s/%s %s obj=%h nodes=%s pivots=%s lut=%d ff=%d"
    (Mams.Flow.method_name m) name
    (match s.milp_status with
    | Some st -> Fmt.str "%a" Lp.Milp.pp_status st
    | None -> "none")
    (Option.value s.milp_objective ~default:Float.nan)
    (stat (fun st -> st.Lp.Milp.nodes))
    (stat (fun st -> st.Lp.Milp.lp_iterations))
    r.qor.luts r.qor.ffs

let suite_jobs =
  List.map
    (fun k -> (Mams.Flow.Milp_base, k))
    [ "CLZ"; "XORR"; "GFMUL"; "CORDIC"; "MT"; "AES"; "RS"; "DR"; "GSM" ]
  @ List.map
      (fun k -> (Mams.Flow.Milp_map, k))
      [ "GFMUL"; "CORDIC"; "DR"; "RS"; "GSM" ]

let suite_lines () = List.map (fun (m, k) -> suite_line m k) suite_jobs

let test_suite_path () =
  let lines = suite_lines () in
  let digest = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  if digest <> "3d98abdcf056245c004a63e9a23379a2" then
    Alcotest.failf "suite path digest %s moved:\n%s" digest (String.concat "\n" lines)

(* MT and AES MILP-map under the same setup, which the suite leaves
   out. Their trees only prove, so they show how branching sizes a
   proof: both must end optimal at one domain on these exact lines. *)
let test_mt_aes_path () =
  List.iter
    (fun (name, expect) ->
      Alcotest.(check string) name expect (suite_line Mams.Flow.Milp_map name))
    [
      ("MT",
       "MILP-map/MT optimal obj=0x1.5p+5 nodes=514 pivots=7149 lut=68 ff=16");
      ("AES",
       "MILP-map/AES optimal obj=0x1.8p+5 nodes=129 pivots=3159 lut=96 ff=0");
    ]

let suite_problem m name =
  let e = Benchmarks.Registry.find name in
  get (Mams.Flow.problem (suite_setup e) m (e.build ()))

(* [Mams.Flow.problem] is the MILP [Mams.Flow.run] solves: on every suite
   job, a one-domain solve of its model from its warm start, under the
   formulation's branch priorities, takes the flow's own search to the
   bit. *)
let test_problem_is_solved () =
  let line status objective (st : Lp.Milp.stats) =
    Fmt.str "%a obj=%h nodes=%d pivots=%d" Lp.Milp.pp_status status objective
      st.nodes st.lp_iterations
  in
  List.iter
    (fun (m, name) ->
      let e = Benchmarks.Registry.find name in
      let s = suite_setup e in
      let flow = (get (Mams.Flow.run s m (e.build ()))).solve in
      let p = suite_problem m name in
      let r =
        Lp.Milp.solve ~time_limit:s.time_limit ?domains:s.domains ?cuts:s.cuts
          ?presolve:s.presolve ?incumbent:p.incumbent
          ~branch_priority:(Mams.Formulation.branch_priorities p.formulation)
          (Mams.Formulation.model p.formulation)
      in
      match (flow.milp_status, flow.milp_objective, flow.milp_stats) with
      | Some status, Some objective, Some stats ->
          Alcotest.(check string)
            (Mams.Flow.method_name m ^ "/" ^ name)
            (line status objective stats)
            (line r.Lp.Milp.status r.Lp.Milp.objective r.Lp.Milp.stats)
      | _ -> Alcotest.failf "%s: the flow reports no MILP solve" name)
    suite_jobs

(* MILP-map's one warm start is the map-first design: on the suite's
   MILP-map kernels [Mams.Flow.problem]'s incumbent is, to the bit, the
   Map-first flow's schedule and cover in the formulation's variables.
   MILP-base starts cold. *)
let test_warm_start_is_map_first () =
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun (m, name) ->
      let p = suite_problem m name in
      match m with
      | Mams.Flow.Milp_map -> (
          let e = Benchmarks.Registry.find name in
          let r =
            get (Mams.Flow.run (suite_setup e) Mams.Flow.Map_heuristic (e.build ()))
          in
          let design =
            Mams.Formulation.incumbent_of_schedule p.formulation r.schedule
              r.cover
          in
          match p.incumbent with
          | Some x ->
              Alcotest.(check bool) (name ^ " map-first design") true
                (bits x = bits design)
          | None -> Alcotest.failf "MILP-map/%s: no warm start" name)
      | _ ->
          Alcotest.(check bool) ("MILP-base/" ^ name ^ " starts cold") true
            (p.incumbent = None))
    suite_jobs

(* What the root produced on one suite model, read from the certificate
   of a solve cut to its root node: the presolve events and the applied
   cuts with their CG multipliers, each digested with every float as
   [%h]. *)
let root_line m name =
  let r =
    Lp.Milp.solve ~time_limit:60.0 ~node_limit:1 ~domains:1 ~certificates:true
      (Mams.Formulation.model (suite_problem m name).formulation)
  in
  match r.Lp.Milp.cert with
  | None -> Alcotest.failf "%s: no certificate" name
  | Some c ->
      let digest f l = Digest.to_hex (Digest.string (String.concat "\n" (List.map f l))) in
      let floats f a = String.concat ";" (Array.to_list (Array.map f a)) in
      let event (e : Lp.Cert.tighten) =
        Printf.sprintf "%d %b %h %d" e.t_var e.t_hi e.t_new e.t_row
      in
      let cut (c : Lp.Cert.cut) =
        let (Lp.Cert.Cg lam) = c.cut_deriv in
        Printf.sprintf "%s <= %h by %s"
          (floats (fun (j, v) -> Printf.sprintf "%d:%h" j v) c.cut_terms)
          c.cut_rhs
          (floats (fun (i, l) -> Printf.sprintf "%d:%h" i l) lam)
      in
      Printf.sprintf "%s/%s presolve=%d:%s cuts=%d:%s" (Mams.Flow.method_name m)
        name (List.length c.presolve) (digest event c.presolve)
        (List.length c.cuts) (digest cut c.cuts)

(* The bounds and cuts the root derives on the suite jobs plus MT and AES
   MILP-map. The suite path digest covers the search they lead to, not
   the root's own output; a refactor of presolve or separation that must
   not change either leaves these lines alone. *)
let test_root_work () =
  let jobs = suite_jobs @ [ (Mams.Flow.Milp_map, "MT"); (Mams.Flow.Milp_map, "AES") ] in
  Alcotest.(check (list string)) "root work"
    [
      "MILP-base/CLZ presolve=126:e468737662b66544079de9daa38a8db4 cuts=38:e31642d205bb5c017bbd510f93cad374";
      "MILP-base/XORR presolve=180:48677464273f0ce534ff5a03fcb8302c cuts=17:6c475d7e6ec6516cbd5a5aeb33d1ff72";
      "MILP-base/GFMUL presolve=73:08183f202cfcf0a071509bd0b17b107a cuts=11:802eef24d5eb176d0a044875b81e4a95";
      "MILP-base/CORDIC presolve=136:a8098910166d26f53849d9ae4115cd9d cuts=16:9a732125514c22da46ef45ce832d3bd4";
      "MILP-base/MT presolve=51:69483c5d60faf0f95771076fbc3125fc cuts=6:f8603d7d576ebc2d3c4b9ff7d588e5e7";
      "MILP-base/AES presolve=124:2f690a64aed8163d453cf7e152c3a320 cuts=32:d8bdef9629c72b4c9b42b6014fb2c463";
      "MILP-base/RS presolve=75:0d35f3446c2981d9085713126f4a8168 cuts=2:b3e168030b84640ac076da98411c7e83";
      "MILP-base/DR presolve=88:2cd7fe0661794b3af3801e4b54426eee cuts=23:54937818ee5dc7b0d9e5f513f0420804";
      "MILP-base/GSM presolve=67:34178603a9d8d018655e2ea36d714a95 cuts=31:b5c498f26518751e8168236049157ce7";
      "MILP-map/GFMUL presolve=9:97c958db942d1ec336545516c8d2e9d7 cuts=22:91dbbaeafd6e32b8eca99764d013d6ad";
      "MILP-map/CORDIC presolve=7:36df7cf1dfce29e9dedffe943be63215 cuts=0:d41d8cd98f00b204e9800998ecf8427e";
      "MILP-map/DR presolve=11:82f5f653b0f3abc569612c23cee113b8 cuts=10:bd09edee4ea39f48c5ca03ead9a95653";
      "MILP-map/RS presolve=9:d2bdd6a8e1e52005cb61d07befb7b906 cuts=3:3b2c6292cb4129a13370ad6699a36d31";
      "MILP-map/GSM presolve=12:4db56974bff858dcab69c7d556f71afa cuts=0:d41d8cd98f00b204e9800998ecf8427e";
      "MILP-map/MT presolve=7:e9ac2f99f6c1bebcd648e90238971f94 cuts=109:6d2f4390e2a6d6c9baa0a734c742b0ba";
      "MILP-map/AES presolve=24:60bf3dbf5d781c72cf2d2727532d2cf9 cuts=60:8908e409463f407d52ab202618ee2467";
    ]
    (List.map (fun (m, k) -> root_line m k) jobs)

(* The tableau cells one pass of the 14 suite jobs builds
   ([simplex.build_cells]: rows × stored slots per build). Columns the
   tree's system fixes take no slot, which is most of the drop from
   6,382,693 cells when every column was stored; no node LP moves one
   off its fixed value, so no resolve rebuilds for that. *)
let test_build_cells () =
  let value name = Obs.Counter.value (Obs.Counter.get name) in
  let cells = value "simplex.build_cells"
  and unfixed = value "simplex.resolve_cold.unfixed" in
  ignore (suite_lines ());
  Alcotest.(check int) "build cells" 4_817_796 (value "simplex.build_cells" - cells);
  Alcotest.(check int) "unfixed rebuilds" 0
    (value "simplex.resolve_cold.unfixed" - unfixed)

(* GSM MILP-map at one domain, the job `pipesyn run -b GSM -m map
   --domains 1` runs: every cold rebuild of a node LP is counted under
   exactly one reason, and a wrong-sign reduced cost is the commonest. *)
let test_cold_reasons () =
  let value name = Obs.Counter.value (Obs.Counter.get name) in
  let reasons =
    [ "dual_infeasible"; "periodic"; "stale_basis"; "repair_limit"; "no_state" ]
  in
  let read () =
    value "simplex.resolve_cold"
    :: List.map (fun r -> value ("simplex.resolve_cold." ^ r)) reasons
  in
  let before = read () in
  let e = Benchmarks.Registry.find "GSM" in
  ignore (get (Mams.Flow.run (suite_setup e) Mams.Flow.Milp_map (e.build ())));
  match List.map2 ( - ) (read ()) before with
  | cold :: (dual :: _ as by_reason) ->
      Alcotest.(check bool) "some rebuilds" true (cold > 0);
      Alcotest.(check int) "the reasons sum to the rebuilds" cold
        (List.fold_left ( + ) 0 by_reason);
      Alcotest.(check bool) "dual_infeasible the largest" true
        (List.for_all (fun c -> c <= dual) by_reason)
  | _ -> assert false

let () =
  Alcotest.run "flow"
    [
      ( "figure1",
        [
          Alcotest.test_case "hls tool pipelines" `Quick test_fig1_hls_tool;
          Alcotest.test_case "milp-map optimal" `Quick test_fig1_milp_map_optimal;
          Alcotest.test_case "map beats hls" `Quick test_fig1_map_beats_hls;
        ] );
      ( "flows",
        [
          Alcotest.test_case "all verified (rs8)" `Quick test_all_flows_verified_rs8;
          Alcotest.test_case "base no worse FFs" `Slow test_milp_base_no_worse_ffs;
          Alcotest.test_case "map dominates" `Slow test_milp_map_dominates;
          Alcotest.test_case "xor tree collapses" `Quick test_xor_tree_single_stage;
          Alcotest.test_case "bb resources" `Slow test_resource_constrained_bb;
          Alcotest.test_case "row counts GC words" `Quick test_row_gc_words;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "suite path" `Quick test_suite_path;
          Alcotest.test_case "MT and AES map path" `Quick test_mt_aes_path;
          Alcotest.test_case "root work" `Quick test_root_work;
          Alcotest.test_case "warm start is the map-first design" `Quick
            test_warm_start_is_map_first;
          Alcotest.test_case "problem is what run solves" `Quick
            test_problem_is_solved;
          Alcotest.test_case "cold rebuild reasons" `Quick test_cold_reasons;
          Alcotest.test_case "build cells" `Quick test_build_cells;
        ] );
      ( "request codec",
        [
          Alcotest.test_case "round trip" `Quick test_request_round_trip;
          Alcotest.test_case "nine-field meta" `Quick
            test_request_nine_field_meta;
        ] );
    ]
