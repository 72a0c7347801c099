(* Tests for the Verilog backend: structural shape, and agreement between
   the emitted register bits and the QoR liveness model. *)

let device = Fpga.Device.make ~t_clk:10.0 ()
let delays = Fpga.Delays.default

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let count_occurrences s sub =
  let m = String.length sub in
  let rec go i acc =
    if i + m > String.length s then acc
    else if String.sub s i m = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if m = 0 then 0 else go 0 0

let flow_result ?(m = Mams.Flow.Hls_tool) e =
  let entry = Benchmarks.Registry.find e in
  let g = entry.build () in
  let device = Fpga.Device.make ~t_clk:entry.t_clk () in
  let setup =
    { (Mams.Flow.default_setup ~device) with
      resources = entry.resources;
      time_limit = 5.0 }
  in
  match Mams.Flow.run setup m g with
  | Ok r -> (g, r)
  | Error err -> Alcotest.failf "%s flow: %s" e err

let test_module_shape () =
  let g, r = flow_result "CLZ" in
  let rtl = Rtl.emit ~module_name:"clz16" g r.cover r.schedule in
  Alcotest.(check bool) "module header" true (contains rtl.source "module clz16");
  Alcotest.(check bool) "clocked" true (contains rtl.source "posedge clk");
  Alcotest.(check bool) "has an output port" true (contains rtl.source "output wire");
  Alcotest.(check bool) "ends properly" true (contains rtl.source "endmodule")

let test_register_bits_match_qor () =
  List.iter
    (fun name ->
      let g, r = flow_result name in
      let rtl = Rtl.emit g r.cover r.schedule in
      Alcotest.(check int)
        (name ^ ": RTL registers = QoR FF model")
        r.qor.Sched.Qor.ffs rtl.register_bits)
    [ "CLZ"; "XORR"; "GFMUL"; "CORDIC"; "MT"; "RS"; "DR" ]

let test_black_box_instance () =
  let g, r = flow_result "AES" in
  let rtl = Rtl.emit g r.cover r.schedule in
  Alcotest.(check int) "four sbox instances" 4
    (count_occurrences rtl.source "sbox #(");
  Alcotest.(check bool) "reads clk" true (contains rtl.source ".clk(clk)")

(* The Verilog text of the nine kernels under HLS-Tool, SDC and Map-first,
   hashed into one digest: a change to the emitter that should not move
   its output must leave the digest as it is. *)
let test_emit_digest () =
  let buf = Buffer.create (1 lsl 18) in
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      List.iter
        (fun m ->
          let g, r = flow_result ~m e.name in
          Buffer.add_string buf (Rtl.emit g r.cover r.schedule).source)
        [ Mams.Flow.Hls_tool; Mams.Flow.Sdc_tool; Mams.Flow.Map_heuristic ])
    Benchmarks.Registry.all;
  Alcotest.(check string) "Verilog digest" "ec9c279ca40102d94e940a495ccf7c4a"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_single_stage_has_no_always () =
  (* A purely combinational schedule emits no register block. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let y = Ir.Builder.input b ~width:4 "y" in
  Ir.Builder.output b (Ir.Builder.xor_ b x y);
  let g = Ir.Builder.finish b in
  let cuts = Cuts.enumerate ~k:4 g in
  let cover = Techmap.map_global ~device ~delays ~cuts g in
  match
    Sched.Mapsched.schedule ~device ~delays
      ~resources:Fpga.Resource.unlimited ~ii:1 g cover
  with
  | Error e -> Alcotest.failf "mapsched: %a" Sched.Heuristic.pp_error e
  | Ok s ->
      let rtl = Rtl.emit g cover s in
      Alcotest.(check int) "no registers" 0 rtl.register_bits;
      Alcotest.(check bool) "no always block" false
        (contains rtl.source "always")

let test_invalid_cover_rejected () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  Ir.Builder.output b (Ir.Builder.not_ b x);
  let g = Ir.Builder.finish b in
  let s =
    Sched.Schedule.make ~ii:1 ~cycle:(Array.make 2 0)
      ~start:(Array.make 2 0.0)
  in
  let empty = Sched.Cover.make g [] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Rtl.emit g empty s);
       false
     with Invalid_argument _ -> true)

let test_write_file () =
  let g, r = flow_result "GFMUL" in
  let rtl = Rtl.emit g r.cover r.schedule in
  let path = Filename.temp_file "pipesyn" ".v" in
  Rtl.write_file ~path rtl;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "round trip" (String.length rtl.source) len

let test_register_init_values () =
  (* the MT state register initializes to the seed, and the Verilog carries
     the initializer *)
  let g = Benchmarks.Mt.build ~width:16 () in
  let setup =
    { (Mams.Flow.default_setup ~device) with time_limit = 5.0 }
  in
  match Mams.Flow.run setup Mams.Flow.Hls_tool g with
  | Error e -> Alcotest.failf "flow: %s" e
  | Ok r ->
      let nl = Rtl.Netlist.of_design g r.cover r.schedule in
      Alcotest.(check bool) "a register carries the twister seed" true
        (List.exists
           (fun (reg : Rtl.Netlist.reg) -> Int64.equal reg.init 0x1234L)
           nl.Rtl.Netlist.regs);
      let rtl = Rtl.emit g r.cover r.schedule in
      Alcotest.(check bool) "verilog initializer emitted" true
        (contains rtl.source "16'h1234")

let test_netlist_masking () =
  (* widths are respected through adds that would otherwise overflow *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let y = Ir.Builder.input b ~width:4 "y" in
  Ir.Builder.output b (Ir.Builder.add b x y);
  let g = Ir.Builder.finish b in
  let cuts = Cuts.enumerate ~k:4 g in
  let cover = Techmap.map_global ~device ~delays ~cuts g in
  match
    Sched.Mapsched.schedule ~device ~delays
      ~resources:Fpga.Resource.unlimited ~ii:1 g cover
  with
  | Error e -> Alcotest.failf "mapsched: %a" Sched.Heuristic.pp_error e
  | Ok s ->
      let nl = Rtl.Netlist.of_design g cover s in
      let sim =
        Rtl.Netlist.simulate nl ~cycles:1 ~inputs:(fun ~cycle:_ ~name ->
            if name = "x" then 15L else 3L)
      in
      let _, arr = List.hd sim.Rtl.Netlist.outputs in
      (* 15 + 3 = 18 masked to 4 bits = 2 *)
      Alcotest.(check int64) "wraps at the width" 2L arr.(0)

(* --- cycle-accurate pipeline simulation vs the dataflow semantics ----- *)

(* Feed a stream of iterations into the emitted pipeline netlist and check
   that each primary output produces, at cycle k*II + S_po, exactly the
   value the bit-accurate dataflow simulator computes for iteration k.
   This validates schedule, cover, register placement and the netlist
   construction end to end. *)
let check_equivalence ~name ?black_box ~setup g method_ =
  match Mams.Flow.run setup method_ g with
  | Error err -> Alcotest.failf "%s flow: %s" name err
  | Ok r ->
      let iterations = 12 in
      let seed = Hashtbl.hash name in
      let stim ~iter ~name:iname =
        Int64.of_int ((seed + (31 * iter) + (7 * Hashtbl.hash iname)) land 0xfff)
      in
      let black_box =
        match black_box with
        | Some h -> h
        | None -> fun ~kind _ -> Alcotest.failf "unexpected black box %s" kind
      in
      let trace = Ir.Eval.run ~black_box g ~iterations ~inputs:stim in
      let nl = Rtl.Netlist.of_design g r.cover r.schedule in
      let latency = Sched.Schedule.latency r.schedule in
      let cycles = iterations + latency in
      let sim =
        Rtl.Netlist.simulate ~black_box nl ~cycles ~inputs:(fun ~cycle ~name ->
            stim ~iter:cycle ~name)
      in
      List.iteri
        (fun i po ->
          let port = List.nth sim.Rtl.Netlist.outputs i in
          let arr = snd port in
          let s_po = r.schedule.Sched.Schedule.cycle.(po) in
          for k = 0 to iterations - 1 do
            let cycle = k + s_po in
            if cycle < cycles then
              let got = arr.(cycle) in
              let expect = trace.(k).(po) in
              if not (Int64.equal got expect) then
                Alcotest.failf
                  "%s/%s output %s: iteration %d (cycle %d): rtl 0x%Lx <> \
                   dataflow 0x%Lx"
                  name
                  (Mams.Flow.method_name method_)
                  (Ir.Cdfg.node_name g po) k cycle got expect
          done)
        (Ir.Cdfg.outputs g)

let check_pipeline_equivalence name method_ =
  let entry = Benchmarks.Registry.find name in
  let device = Fpga.Device.make ~t_clk:entry.t_clk () in
  let setup =
    { (Mams.Flow.default_setup ~device) with
      resources = entry.resources;
      time_limit = 5.0 }
  in
  check_equivalence ~name ?black_box:entry.black_box ~setup (entry.build ())
    method_

(* One node drives two recurrences with different init values: its delay
   registers can reset to only one of them, so each loop-carried read
   must see its own init while the pipeline fills. *)
let test_two_inits_one_driver () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let c5 = Ir.Builder.feedback b ~width:4 ~init:5L ~dist:1 in
  let c9 = Ir.Builder.feedback b ~width:4 ~init:9L ~dist:2 in
  let p = Ir.Builder.xor_ b x c5 in
  let q = Ir.Builder.add b x c9 in
  let d = Ir.Builder.add b p q in
  Ir.Builder.drive b ~cell:c5 d;
  Ir.Builder.drive b ~cell:c9 d;
  Ir.Builder.output b p;
  Ir.Builder.output b q;
  let g = Ir.Builder.finish b in
  let setup = { (Mams.Flow.default_setup ~device) with time_limit = 5.0 } in
  List.iter
    (check_equivalence ~name:"two-inits" ~setup g)
    [ Mams.Flow.Hls_tool; Mams.Flow.Sdc_tool; Mams.Flow.Map_heuristic ]

let test_pipeline_equiv_hls () =
  List.iter
    (fun n -> check_pipeline_equivalence n Mams.Flow.Hls_tool)
    [ "CLZ"; "XORR"; "GFMUL"; "CORDIC"; "MT"; "AES"; "RS"; "DR"; "GSM" ]

let test_pipeline_equiv_mapfirst () =
  List.iter
    (fun n -> check_pipeline_equivalence n Mams.Flow.Map_heuristic)
    [ "CLZ"; "XORR"; "GFMUL"; "CORDIC"; "MT"; "AES"; "RS"; "DR"; "GSM" ]

let test_pipeline_equiv_milp_map_small () =
  check_pipeline_equivalence "GFMUL" Mams.Flow.Milp_map;
  check_pipeline_equivalence "MT" Mams.Flow.Milp_map

let () =
  Alcotest.run "rtl"
    [
      ( "simulation",
        [
          Alcotest.test_case "pipeline = dataflow (hls)" `Quick
            test_pipeline_equiv_hls;
          Alcotest.test_case "pipeline = dataflow (map-first)" `Quick
            test_pipeline_equiv_mapfirst;
          Alcotest.test_case "pipeline = dataflow (milp-map)" `Slow
            test_pipeline_equiv_milp_map_small;
          Alcotest.test_case "two inits, one driver" `Quick
            test_two_inits_one_driver;
          Alcotest.test_case "register inits" `Quick test_register_init_values;
          Alcotest.test_case "width masking" `Quick test_netlist_masking;
        ] );
      ( "emit",
        [
          Alcotest.test_case "module shape" `Quick test_module_shape;
          Alcotest.test_case "register bits = qor" `Quick
            test_register_bits_match_qor;
          Alcotest.test_case "black boxes" `Quick test_black_box_instance;
          Alcotest.test_case "combinational" `Quick
            test_single_stage_has_no_always;
          Alcotest.test_case "invalid cover" `Quick test_invalid_cover_rejected;
          Alcotest.test_case "write file" `Quick test_write_file;
          Alcotest.test_case "Verilog digest" `Quick test_emit_digest;
        ] );
    ]
