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
        ] );
      ( "request codec",
        [
          Alcotest.test_case "round trip" `Quick test_request_round_trip;
          Alcotest.test_case "nine-field meta" `Quick
            test_request_nine_field_meta;
        ] );
    ]
