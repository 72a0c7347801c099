(* Tests for the scheduling layer: the heuristic baseline, schedule
   verification, liveness-based FF counting, timing recomputation, and the
   map-first scheduler. *)

let device = Fpga.Device.make ~t_clk:10.0 ()
let delays = Fpga.Delays.default
let resources = Fpga.Resource.unlimited

let ctx : Sched.Verify.context = { device; delays; resources }

let heuristic ?(ii = 1) g =
  match Sched.Heuristic.schedule ~device ~delays ~resources ~ii g with
  | Ok s -> s
  | Error e -> Alcotest.failf "heuristic: %a" Sched.Heuristic.pp_error e

let trivial_cover g = Sched.Cover.all_trivial g (Cuts.trivial_only g)

let xor_chain n =
  let b = Ir.Builder.create () in
  let x0 = Ir.Builder.input b ~width:8 "x0" in
  let rec go i acc =
    if i > n then acc
    else
      let xi = Ir.Builder.input b ~width:8 (Printf.sprintf "x%d" i) in
      go (i + 1) (Ir.Builder.xor_ b acc xi)
  in
  Ir.Builder.output b (go 1 x0);
  Ir.Builder.finish b

let test_heuristic_chains_within_cycle () =
  (* 4 chained xors at 1.37ns = 5.5ns fit a 10ns cycle. *)
  let g = xor_chain 4 in
  let s = heuristic g in
  Alcotest.(check int) "single cycle" 0 (Sched.Schedule.latency s)

let test_heuristic_splits_long_chain () =
  (* 8 chained xors = 11ns > 10ns: must pipeline. *)
  let g = xor_chain 8 in
  let s = heuristic g in
  Alcotest.(check bool) "pipelined" true (Sched.Schedule.latency s >= 1);
  (* and the result is legal *)
  Sched.Verify.check_exn ctx g (trivial_cover g) s

let test_heuristic_verifies_on_benchmarks () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let g = e.build () in
      let device = Fpga.Device.make ~t_clk:e.t_clk () in
      let ctx : Sched.Verify.context =
        { device; delays; resources = e.resources }
      in
      match
        Sched.Heuristic.schedule ~device ~delays ~resources:e.resources ~ii:1 g
      with
      | Error err ->
          Alcotest.failf "%s: %a" e.name Sched.Heuristic.pp_error err
      | Ok s -> (
          let cover = trivial_cover g in
          match Sched.Verify.check ctx g cover s with
          | Ok () -> ()
          | Error msgs ->
              Alcotest.failf "%s: %s" e.name (String.concat "; " msgs)))
    Benchmarks.Registry.all

let test_min_ii_recurrence () =
  (* A recurrence whose body takes ~2 cycles forces II >= 2 when the
     distance is 1. 8 chained xors = 11ns -> latency 2 cycles. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let cell = Ir.Builder.feedback b ~width:8 ~init:0L ~dist:1 in
  let rec chain i acc =
    if i = 0 then acc else chain (i - 1) (Ir.Builder.xor_ b acc x)
  in
  let deep = chain 8 cell in
  Ir.Builder.drive b ~cell deep;
  Ir.Builder.output b deep;
  let g = Ir.Builder.finish b in
  let mii = Sched.Heuristic.min_ii ~delays ~device ~resources g in
  Alcotest.(check bool) "MII > 1" true (mii > 1);
  (match Sched.Heuristic.schedule ~device ~delays ~resources ~ii:1 g with
  | Error (Sched.Heuristic.Recurrence_too_tight _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Sched.Heuristic.pp_error e
  | Ok _ -> Alcotest.fail "II=1 should be infeasible");
  match Sched.Heuristic.schedule ~device ~delays ~resources ~ii:mii g with
  | Ok s -> Sched.Verify.check_exn { ctx with device } g (trivial_cover g) s
  | Error e -> Alcotest.failf "at MII: %a" Sched.Heuristic.pp_error e

let test_resource_res_mii () =
  (* 4 loads on 2 ports: ResMII = 2. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let loads =
    List.init 4 (fun _ ->
        Ir.Builder.black_box b ~kind:"load" ~resource:"bram_port" ~width:8 [ x ])
  in
  Ir.Builder.output b (Benchmarks.Bench_util.xor_reduce b loads);
  let g = Ir.Builder.finish b in
  let resources = Fpga.Resource.of_list [ ("bram_port", 2) ] in
  Alcotest.(check int) "ResMII" 2
    (Sched.Heuristic.min_ii ~delays ~device ~resources g);
  match Sched.Heuristic.schedule ~device ~delays ~resources ~ii:2 g with
  | Ok s ->
      Sched.Verify.check_exn { ctx with resources } g (trivial_cover g) s
  | Error e -> Alcotest.failf "at ResMII: %a" Sched.Heuristic.pp_error e

(* --- verification catches bad schedules ------------------------------- *)

let test_verify_catches_dependence_violation () =
  let g = xor_chain 2 in
  let s = heuristic g in
  (* corrupt: move the final xor one cycle before its operand *)
  let last = Ir.Cdfg.num_nodes g - 1 in
  let bad_cycle = Array.copy s.Sched.Schedule.cycle in
  bad_cycle.(last) <- 0;
  let pred = (Ir.Cdfg.preds g last).(0).Ir.Cdfg.src in
  bad_cycle.(pred) <- 1;
  let bad =
    Sched.Schedule.make ~ii:1 ~cycle:bad_cycle ~start:s.Sched.Schedule.start
  in
  match Sched.Verify.check ctx g (trivial_cover g) bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verification accepted a broken schedule"

let test_verify_catches_overfull_cycle () =
  let g = xor_chain 8 in
  (* force everything into cycle 0 with zero starts: chaining violated *)
  let n = Ir.Cdfg.num_nodes g in
  let s =
    Sched.Schedule.make ~ii:1 ~cycle:(Array.make n 0)
      ~start:(Array.make n 0.0)
  in
  match Sched.Verify.check ctx g (trivial_cover g) s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verification accepted an overfull cycle"

let test_verify_catches_same_cycle_register_read () =
  (* A separate reader of the recurrence register scheduled before the
     producer has finished writing it. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let cell = Ir.Builder.feedback b ~width:4 ~init:0L ~dist:1 in
  let nxt = Ir.Builder.xor_ b x cell in
  Ir.Builder.drive b ~cell nxt;
  let reader = Ir.Builder.not_ b cell in
  Ir.Builder.output b nxt;
  Ir.Builder.output b reader;
  let g = Ir.Builder.finish b in
  (* ids: x=0 nxt=1 reader=2. Producer nxt at cycle 2, reader at cycle 0:
     2 + 1 > 0 + II*1 — the register is read before it was ever written. *)
  let n = Ir.Cdfg.num_nodes g in
  let cycle = Array.make n 0 in
  cycle.(1) <- 2;
  let s = Sched.Schedule.make ~ii:1 ~cycle ~start:(Array.make n 0.0) in
  match Sched.Verify.check ctx g (trivial_cover g) s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verification accepted a late recurrence write"

(* --- FF counting ------------------------------------------------------ *)

let test_ff_counts_lifetimes () =
  (* x0 used in cycle 0 and again (via the chain) across the boundary. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let y = Ir.Builder.input b ~width:8 "y" in
  let n = Ir.Builder.xor_ b x y in
  (* artificially deep chain so n crosses a cycle *)
  let rec chain i acc =
    if i = 0 then acc else chain (i - 1) (Ir.Builder.xor_ b acc y)
  in
  let out = chain 8 n in
  Ir.Builder.output b out;
  let g = Ir.Builder.finish b in
  let s = heuristic g in
  Alcotest.(check bool) "pipelined" true (Sched.Schedule.latency s >= 1);
  let cover = trivial_cover g in
  let q = Sched.Qor.evaluate ~device ~delays g cover s in
  (* y is live into the second cycle: at least its 8 bits are registered *)
  Alcotest.(check bool) "ff > 0" true (q.Sched.Qor.ffs >= 8)

let test_ff_zero_single_cycle () =
  let g = xor_chain 3 in
  let s = heuristic g in
  let q = Sched.Qor.evaluate ~device ~delays g (trivial_cover g) s in
  Alcotest.(check int) "no registers in a single stage" 0 q.Sched.Qor.ffs

let test_ff_recurrence_register () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let cell = Ir.Builder.feedback b ~width:8 ~init:0L ~dist:1 in
  let nxt = Ir.Builder.xor_ b x cell in
  Ir.Builder.drive b ~cell nxt;
  Ir.Builder.output b nxt;
  let g = Ir.Builder.finish b in
  let s = heuristic g in
  let q = Sched.Qor.evaluate ~device ~delays g (trivial_cover g) s in
  Alcotest.(check int) "one 8-bit state register" 8 q.Sched.Qor.ffs

let test_const_never_registered () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let c = Ir.Builder.const b ~width:8 0x55L in
  let rec chain i acc =
    if i = 0 then acc else chain (i - 1) (Ir.Builder.xor_ b acc c)
  in
  Ir.Builder.output b (chain 9 x);
  let g = Ir.Builder.finish b in
  let s = heuristic g in
  Alcotest.(check bool) "pipelined" true (Sched.Schedule.latency s >= 1);
  let q = Sched.Qor.evaluate ~device ~delays g (trivial_cover g) s in
  (* only x and intermediates, never the constant *)
  let n = Ir.Cdfg.num_nodes g in
  Alcotest.(check bool) "bounded by non-const values" true
    (q.Sched.Qor.ffs <= 8 * n)

let test_regs_per_phase_sums_to_ff () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let g = e.build () in
      let device = Fpga.Device.make ~t_clk:e.t_clk () in
      match
        Sched.Heuristic.schedule ~device ~delays ~resources:e.resources ~ii:1 g
      with
      | Error _ -> ()
      | Ok s ->
          let cover = trivial_cover g in
          let per = Sched.Qor.regs_per_phase g cover s ~device ~delays in
          Alcotest.(check int)
            (e.name ^ ": Eq.13 sums to FF count")
            (Sched.Qor.ff_bits g cover s ~device ~delays)
            (Array.fold_left ( + ) 0 per))
    Benchmarks.Registry.all

let test_regs_per_phase_ii2 () =
  (* One value alive for 2 cycles at II=2 occupies both phases once. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let y = Ir.Builder.input b ~width:8 "y" in
  let t = Ir.Builder.xor_ b x y in
  let rec chain i acc =
    if i = 0 then acc else chain (i - 1) (Ir.Builder.xor_ b acc y)
  in
  let far = chain 14 t in
  Ir.Builder.output b (Ir.Builder.xor_ b far t);
  let g = Ir.Builder.finish b in
  match
    Sched.Heuristic.schedule ~device ~delays ~resources ~ii:2 g
  with
  | Error e -> Alcotest.failf "heuristic: %a" Sched.Heuristic.pp_error e
  | Ok s ->
      let cover = trivial_cover g in
      let per = Sched.Qor.regs_per_phase g cover s ~device ~delays in
      Alcotest.(check int) "two phases" 2 (Array.length per);
      Alcotest.(check int) "sums to ff"
        (Sched.Qor.ff_bits g cover s ~device ~delays)
        (Array.fold_left ( + ) 0 per);
      (* t is alive across the long chain, so both phases hold some bits *)
      Alcotest.(check bool) "both phases populated" true
        (per.(0) > 0 && per.(1) > 0)

(* --- timing ----------------------------------------------------------- *)

let test_recompute_starts_asap () =
  let g = xor_chain 3 in
  let s = heuristic g in
  let cover = trivial_cover g in
  let s' = Sched.Timing.recompute_starts ~device ~delays g cover s in
  (* first xor starts at 0, later xors start no earlier than their preds *)
  Ir.Cdfg.iter
    (fun nd ->
      Array.iter
        (fun (e : Ir.Cdfg.edge) ->
          if
            e.dist = 0
            && s'.Sched.Schedule.cycle.(e.src) = s'.Sched.Schedule.cycle.(nd.id)
          then
            Alcotest.(check bool) "monotone starts" true
              (s'.Sched.Schedule.start.(e.src)
              <= s'.Sched.Schedule.start.(nd.id) +. 1e-9))
        nd.preds)
    g;
  let cp = Sched.Timing.achieved_cp ~device ~delays g cover s' in
  Alcotest.(check bool) "cp within period" true
    (cp <= Fpga.Device.usable_period device +. 1e-9)

(* --- map-first scheduler ---------------------------------------------- *)

let test_mapsched_beats_hls_on_tree () =
  let g = xor_chain 8 in
  let cuts = Cuts.enumerate ~k:4 g in
  let cover = Techmap.map_global ~device ~delays ~cuts g in
  match Sched.Mapsched.schedule ~device ~delays ~resources ~ii:1 g cover with
  | Error e -> Alcotest.failf "mapsched: %a" Sched.Heuristic.pp_error e
  | Ok s ->
      Sched.Verify.check_exn ctx g cover s;
      let hls = heuristic g in
      Alcotest.(check bool) "no deeper than additive" true
        (Sched.Schedule.latency s <= Sched.Schedule.latency hls)

let test_mapsched_verifies_on_benchmarks () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let g = e.build () in
      let device = Fpga.Device.make ~t_clk:e.t_clk () in
      let cuts = Cuts.enumerate ~k:4 g in
      let cover = Techmap.map_global ~device ~delays ~cuts g in
      match
        Sched.Mapsched.schedule ~device ~delays ~resources:e.resources ~ii:1 g
          cover
      with
      | Error err -> Alcotest.failf "%s: %a" e.name Sched.Heuristic.pp_error err
      | Ok s -> (
          let ctx : Sched.Verify.context =
            { device; delays; resources = e.resources }
          in
          match Sched.Verify.check ctx g cover s with
          | Ok () -> ()
          | Error msgs ->
              Alcotest.failf "%s: %s" e.name (String.concat "; " msgs)))
    Benchmarks.Registry.all

let test_multicycle_black_box () =
  (* A black box slower than the clock period (23 ns at 10 ns) pipelines
     over 2 extra cycles; its consumer must wait for the result. *)
  let slow_delays = Fpga.Delays.make ~black_box:[ ("slowrom", 23.0) ] () in
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let r =
    Ir.Builder.black_box b ~kind:"lookup" ~resource:"slowrom" ~width:8 [ x ]
  in
  let out = Ir.Builder.not_ b r in
  Ir.Builder.output b out;
  let g = Ir.Builder.finish b in
  Alcotest.(check int) "bb latency" 2
    (Sched.Heuristic.op_latency ~device ~delays:slow_delays g 1);
  match
    Sched.Heuristic.schedule ~device ~delays:slow_delays ~resources ~ii:1 g
  with
  | Error e -> Alcotest.failf "heuristic: %a" Sched.Heuristic.pp_error e
  | Ok s ->
      Alcotest.(check bool) "consumer waits for the result" true
        (s.Sched.Schedule.cycle.(2) >= s.Sched.Schedule.cycle.(1) + 2);
      let cover = trivial_cover g in
      let ctx : Sched.Verify.context =
        { device; delays = slow_delays; resources }
      in
      Sched.Verify.check_exn ctx g cover s;
      (* x feeds the black box only at cycle 0: no input registers; the
         result is consumed the cycle it appears: no output registers *)
      let q = Sched.Qor.evaluate ~device ~delays:slow_delays g cover s in
      Alcotest.(check int) "no spurious registers" 0 q.Sched.Qor.ffs

let test_multicycle_bb_through_milp () =
  let slow_delays = Fpga.Delays.make ~black_box:[ ("slowrom", 23.0) ] () in
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let r =
    Ir.Builder.black_box b ~kind:"lookup" ~resource:"slowrom" ~width:8 [ x ]
  in
  let out = Ir.Builder.xor_ b r x in
  Ir.Builder.output b out;
  let g = Ir.Builder.finish b in
  let setup =
    { (Mams.Flow.default_setup ~device) with
      delays = slow_delays;
      time_limit = 15.0 }
  in
  List.iter
    (fun m ->
      match Mams.Flow.run setup m g with
      | Ok r ->
          (* x is alive until the xor fires, >= 2 cycles after arrival *)
          Alcotest.(check bool)
            (Mams.Flow.method_name m ^ ": input registered across bb latency")
            true
            (r.Mams.Flow.qor.Sched.Qor.ffs >= 16)
      | Error e -> Alcotest.failf "%s: %s" (Mams.Flow.method_name m) e)
    [ Mams.Flow.Hls_tool; Mams.Flow.Milp_base; Mams.Flow.Milp_map ]

(* --- SDC scheduler ----------------------------------------------------- *)

let test_sdc_verifies_on_benchmarks () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let g = e.build () in
      let device = Fpga.Device.make ~t_clk:e.t_clk () in
      match
        Sched.Sdc.schedule ~device ~delays ~resources:e.resources ~ii:1 g
      with
      | Error err -> Alcotest.failf "%s: %a" e.name Sched.Heuristic.pp_error err
      | Ok s -> (
          let ctx : Sched.Verify.context =
            { device; delays; resources = e.resources }
          in
          match Sched.Verify.check ctx g (trivial_cover g) s with
          | Ok () -> ()
          | Error msgs ->
              Alcotest.failf "%s: %s" e.name (String.concat "; " msgs)))
    Benchmarks.Registry.all

let test_sdc_minimizes_registers () =
  (* SDC optimizes lifetimes exactly under the additive model, so it never
     needs more FFs than the list-scheduling heuristic. *)
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let g = e.build () in
      let device = Fpga.Device.make ~t_clk:e.t_clk () in
      match
        ( Sched.Sdc.schedule ~device ~delays ~resources:e.resources ~ii:1 g,
          Sched.Heuristic.schedule ~device ~delays ~resources:e.resources
            ~ii:1 g )
      with
      | Ok sdc, Ok hls ->
          let cover = trivial_cover g in
          let ff s = Sched.Qor.ff_bits g cover s ~device ~delays in
          Alcotest.(check bool)
            (e.name ^ ": SDC FFs <= heuristic FFs")
            true
            (ff sdc <= ff hls)
      | _ -> Alcotest.failf "%s: scheduling failed" e.name)
    Benchmarks.Registry.all

let test_sdc_resource_conflicts () =
  (* Two loads on one port at II=2: the iterative conflict resolution must
     separate their phases. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let r1 = Ir.Builder.black_box b ~kind:"load" ~resource:"bram_port" ~width:8 [ x ] in
  let r2 = Ir.Builder.black_box b ~kind:"load" ~resource:"bram_port" ~width:8 [ x ] in
  Ir.Builder.output b (Ir.Builder.xor_ b r1 r2);
  let g = Ir.Builder.finish b in
  let resources = Fpga.Resource.of_list [ ("bram_port", 1) ] in
  (match Sched.Sdc.schedule ~device ~delays ~resources ~ii:1 g with
  | Error (Sched.Heuristic.Resource_infeasible _) -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Sched.Heuristic.pp_error e
  | Ok _ -> Alcotest.fail "II=1 with one port must be rejected");
  match Sched.Sdc.schedule ~device ~delays ~resources ~ii:2 g with
  | Error e -> Alcotest.failf "II=2: %a" Sched.Heuristic.pp_error e
  | Ok s ->
      Alcotest.(check bool) "phases differ" true
        (Sched.Schedule.phase s 1 <> Sched.Schedule.phase s 2);
      Sched.Verify.check_exn { ctx with resources } g (trivial_cover g) s

let test_sdc_recurrence_infeasible () =
  (* the same too-tight recurrence the heuristic rejects *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let cell = Ir.Builder.feedback b ~width:8 ~init:0L ~dist:1 in
  let rec chain i acc =
    if i = 0 then acc else chain (i - 1) (Ir.Builder.xor_ b acc x)
  in
  let deep = chain 8 cell in
  Ir.Builder.drive b ~cell deep;
  Ir.Builder.output b deep;
  let g = Ir.Builder.finish b in
  match Sched.Sdc.schedule ~device ~delays ~resources ~ii:1 g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "II=1 should be infeasible for the deep recurrence"

(* --- golden placements ------------------------------------------------ *)

(* Every scheduler on every kernel at its clock, half and a quarter of it,
   at II 1, MII and MII+1: the MD5 of the cycles and the start-time bits,
   or the error text. Placements under tight clocks and the recurrence and
   convergence error paths are pinned nowhere else. *)
let golden_actual () =
  let outcome = function
    | Ok (s : Sched.Schedule.t) ->
        let b = Buffer.create 1024 in
        Array.iter (fun c -> Printf.bprintf b "%d " c) s.cycle;
        Array.iter (fun l -> Printf.bprintf b "%h " l) s.start;
        Digest.to_hex (Digest.string (Buffer.contents b))
    | Error e -> Fmt.str "%a" Sched.Heuristic.pp_error e
  in
  List.concat_map
    (fun (e : Benchmarks.Registry.entry) ->
      let g = e.build () in
      let resources = e.resources in
      let cuts = Cuts.enumerate ~k:4 g in
      let trivial = trivial_cover g in
      List.concat_map
        (fun div ->
          let device = Fpga.Device.make ~t_clk:(e.t_clk /. float div) () in
          let mapped = Techmap.map_global ~device ~delays ~cuts g in
          let mii = Sched.Heuristic.min_ii ~delays ~device ~resources g in
          List.concat_map
            (fun ii ->
              let case name r =
                let label = Printf.sprintf "%s t/%d II=%d %s" e.name div ii name in
                (label, outcome r)
              in
              [
                case "hls"
                  (Sched.Heuristic.schedule ~device ~delays ~resources ~ii g);
                case "map"
                  (Sched.Mapsched.schedule ~device ~delays ~resources ~ii g
                     mapped);
                case "map-trivial"
                  (Sched.Mapsched.schedule ~device ~delays ~resources ~ii g
                     trivial);
                case "sdc"
                  (Sched.Sdc.schedule ~device ~delays ~resources ~ii g);
              ])
            (List.sort_uniq compare [ 1; mii; mii + 1 ]))
        [ 1; 2; 4 ])
    Benchmarks.Registry.all

let golden_expected =
  [
    ("CLZ t/1 II=1 hls", "27d4151a135c7db3e21cf046ab1dc7b6");
    ("CLZ t/1 II=1 map", "3dc61b3ba80ed138270aa460d47ba573");
    ("CLZ t/1 II=1 map-trivial", "61ec5cd652a466368150d8897b4a8a9d");
    ("CLZ t/1 II=1 sdc", "21adc8e5eaf0af4154d7c8c3ac3716ef");
    ("CLZ t/1 II=2 hls", "27d4151a135c7db3e21cf046ab1dc7b6");
    ("CLZ t/1 II=2 map", "3dc61b3ba80ed138270aa460d47ba573");
    ("CLZ t/1 II=2 map-trivial", "61ec5cd652a466368150d8897b4a8a9d");
    ("CLZ t/1 II=2 sdc", "21adc8e5eaf0af4154d7c8c3ac3716ef");
    ("CLZ t/2 II=1 hls", "e3bb05cbe8095419a86bc6cba859a388");
    ("CLZ t/2 II=1 map", "d6f6e1acf0bec2c05ede84fdf07ba4ff");
    ("CLZ t/2 II=1 map-trivial", "b2661b200c96edcd066d30b5499ed8f0");
    ("CLZ t/2 II=1 sdc", "88aa2e10fcd2d84683aa08917015637d");
    ("CLZ t/2 II=2 hls", "e3bb05cbe8095419a86bc6cba859a388");
    ("CLZ t/2 II=2 map", "d6f6e1acf0bec2c05ede84fdf07ba4ff");
    ("CLZ t/2 II=2 map-trivial", "b2661b200c96edcd066d30b5499ed8f0");
    ("CLZ t/2 II=2 sdc", "88aa2e10fcd2d84683aa08917015637d");
    ("CLZ t/4 II=1 hls", "71aad3e48c1148ca2848f4359b3fca21");
    ("CLZ t/4 II=1 map", "304c0fbe8b3d612f81443271cbd136cf");
    ("CLZ t/4 II=1 map-trivial", "94c2e673bd5d7ee4c713a82422669cb0");
    ("CLZ t/4 II=1 sdc", "a373aa94966522466d194be8e293f3a4");
    ("CLZ t/4 II=2 hls", "71aad3e48c1148ca2848f4359b3fca21");
    ("CLZ t/4 II=2 map", "304c0fbe8b3d612f81443271cbd136cf");
    ("CLZ t/4 II=2 map-trivial", "94c2e673bd5d7ee4c713a82422669cb0");
    ("CLZ t/4 II=2 sdc", "a373aa94966522466d194be8e293f3a4");
    ("XORR t/1 II=1 hls", "e6db8ff57a42a7c5bb7bbbf5fe8a4ba8");
    ("XORR t/1 II=1 map", "30372214fa79bc82e9df94995aecea69");
    ("XORR t/1 II=1 map-trivial", "068b13bee3fb580eea2574d2aebc1ce1");
    ("XORR t/1 II=1 sdc", "e6db8ff57a42a7c5bb7bbbf5fe8a4ba8");
    ("XORR t/1 II=2 hls", "e6db8ff57a42a7c5bb7bbbf5fe8a4ba8");
    ("XORR t/1 II=2 map", "30372214fa79bc82e9df94995aecea69");
    ("XORR t/1 II=2 map-trivial", "068b13bee3fb580eea2574d2aebc1ce1");
    ("XORR t/1 II=2 sdc", "e6db8ff57a42a7c5bb7bbbf5fe8a4ba8");
    ("XORR t/2 II=1 hls", "e6d0dbdf0e0310cd9eab7c1692591ec2");
    ("XORR t/2 II=1 map", "a2cc646fa87f82c9498bcd499e5e9a87");
    ("XORR t/2 II=1 map-trivial", "8957aa0ac960bb4ef84acde2783889f9");
    ("XORR t/2 II=1 sdc", "b5435a68aec9888ebc999cf0616260e6");
    ("XORR t/2 II=2 hls", "e6d0dbdf0e0310cd9eab7c1692591ec2");
    ("XORR t/2 II=2 map", "a2cc646fa87f82c9498bcd499e5e9a87");
    ("XORR t/2 II=2 map-trivial", "8957aa0ac960bb4ef84acde2783889f9");
    ("XORR t/2 II=2 sdc", "b5435a68aec9888ebc999cf0616260e6");
    ("XORR t/4 II=1 hls", "e5782aed21192965b4aebda48f955355");
    ("XORR t/4 II=1 map", "03f52a79bd98200821b3859e0c76d684");
    ("XORR t/4 II=1 map-trivial", "15a83c4d686b63822f2f1bb8d249f87f");
    ("XORR t/4 II=1 sdc", "d0e413db3ee477afe8a61dd78869853e");
    ("XORR t/4 II=2 hls", "e5782aed21192965b4aebda48f955355");
    ("XORR t/4 II=2 map", "03f52a79bd98200821b3859e0c76d684");
    ("XORR t/4 II=2 map-trivial", "15a83c4d686b63822f2f1bb8d249f87f");
    ("XORR t/4 II=2 sdc", "d0e413db3ee477afe8a61dd78869853e");
    ("GFMUL t/1 II=1 hls", "00c52dc6f43d703d72fcee24d8927052");
    ("GFMUL t/1 II=1 map", "8dd420b9d1898d4770badfca91c9ad2a");
    ("GFMUL t/1 II=1 map-trivial", "9991c4adb922b5bd8200fa7bb6cf01db");
    ("GFMUL t/1 II=1 sdc", "00c52dc6f43d703d72fcee24d8927052");
    ("GFMUL t/1 II=2 hls", "00c52dc6f43d703d72fcee24d8927052");
    ("GFMUL t/1 II=2 map", "8dd420b9d1898d4770badfca91c9ad2a");
    ("GFMUL t/1 II=2 map-trivial", "9991c4adb922b5bd8200fa7bb6cf01db");
    ("GFMUL t/1 II=2 sdc", "00c52dc6f43d703d72fcee24d8927052");
    ("GFMUL t/2 II=1 hls", "4cae2ddf098931a9782d5b46f607f687");
    ("GFMUL t/2 II=1 map", "0f5bb53e8d523a8534ff4a82630f9363");
    ("GFMUL t/2 II=1 map-trivial", "cc7bbe9609b51d6e325cb90cb9cd0813");
    ("GFMUL t/2 II=1 sdc", "70c4b2f2e78fbabb2d6024699cbd7b4a");
    ("GFMUL t/2 II=2 hls", "4cae2ddf098931a9782d5b46f607f687");
    ("GFMUL t/2 II=2 map", "0f5bb53e8d523a8534ff4a82630f9363");
    ("GFMUL t/2 II=2 map-trivial", "cc7bbe9609b51d6e325cb90cb9cd0813");
    ("GFMUL t/2 II=2 sdc", "70c4b2f2e78fbabb2d6024699cbd7b4a");
    ("GFMUL t/4 II=1 hls", "0bf11829221bf2b953391768205b22c5");
    ("GFMUL t/4 II=1 map", "caede33a74c7d8e3addd8072937e3990");
    ("GFMUL t/4 II=1 map-trivial", "0c0263c808f73ca5dc21d05bebbd0564");
    ("GFMUL t/4 II=1 sdc", "70605c778cd22a78fef14f6f7e6b122e");
    ("GFMUL t/4 II=2 hls", "0bf11829221bf2b953391768205b22c5");
    ("GFMUL t/4 II=2 map", "caede33a74c7d8e3addd8072937e3990");
    ("GFMUL t/4 II=2 map-trivial", "0c0263c808f73ca5dc21d05bebbd0564");
    ("GFMUL t/4 II=2 sdc", "70605c778cd22a78fef14f6f7e6b122e");
    ("CORDIC t/1 II=1 hls", "16b5c865778883920960881ace57a83c");
    ("CORDIC t/1 II=1 map", "349be92292e90111de17f209e85e4b3d");
    ("CORDIC t/1 II=1 map-trivial", "69781031c71dee8124a01f4ee42868e7");
    ("CORDIC t/1 II=1 sdc", "9c644c347745e274136b9a994bde6bc6");
    ("CORDIC t/1 II=2 hls", "16b5c865778883920960881ace57a83c");
    ("CORDIC t/1 II=2 map", "349be92292e90111de17f209e85e4b3d");
    ("CORDIC t/1 II=2 map-trivial", "69781031c71dee8124a01f4ee42868e7");
    ("CORDIC t/1 II=2 sdc", "9c644c347745e274136b9a994bde6bc6");
    ("CORDIC t/2 II=1 hls", "848997ae09db97914222a317408f4e59");
    ("CORDIC t/2 II=1 map", "e663fbeb7e61d08362f26df54acc2d07");
    ("CORDIC t/2 II=1 map-trivial", "8a11136cf9f5adb2512d8ec84a24b4b0");
    ("CORDIC t/2 II=1 sdc", "131953e0278db99289227927595e0160");
    ("CORDIC t/2 II=2 hls", "848997ae09db97914222a317408f4e59");
    ("CORDIC t/2 II=2 map", "e663fbeb7e61d08362f26df54acc2d07");
    ("CORDIC t/2 II=2 map-trivial", "8a11136cf9f5adb2512d8ec84a24b4b0");
    ("CORDIC t/2 II=2 sdc", "131953e0278db99289227927595e0160");
    ("CORDIC t/4 II=1 hls", "902b5630c848fb1a734e31447b6b2d74");
    ("CORDIC t/4 II=1 map", "b651f3eed5f2cdcf94b851dd44427c41");
    ("CORDIC t/4 II=1 map-trivial", "04e5815ac58955097fc15a02977c2396");
    ("CORDIC t/4 II=1 sdc", "7093d235e417d23313a1151c93b39045");
    ("CORDIC t/4 II=2 hls", "902b5630c848fb1a734e31447b6b2d74");
    ("CORDIC t/4 II=2 map", "b651f3eed5f2cdcf94b851dd44427c41");
    ("CORDIC t/4 II=2 map-trivial", "04e5815ac58955097fc15a02977c2396");
    ("CORDIC t/4 II=2 sdc", "7093d235e417d23313a1151c93b39045");
    ("MT t/1 II=1 hls", "0d5a657bb8c25d8b99403f9a67a48717");
    ("MT t/1 II=1 map", "fd30c56c7ed27191c287f22384e021e4");
    ("MT t/1 II=1 map-trivial", "d6a621ac8e57009df3b62ba071051f20");
    ("MT t/1 II=1 sdc", "21968fe13eb80d9a5530ca5ca92a4e04");
    ("MT t/1 II=2 hls", "0d5a657bb8c25d8b99403f9a67a48717");
    ("MT t/1 II=2 map", "fd30c56c7ed27191c287f22384e021e4");
    ("MT t/1 II=2 map-trivial", "d6a621ac8e57009df3b62ba071051f20");
    ("MT t/1 II=2 sdc", "21968fe13eb80d9a5530ca5ca92a4e04");
    ("MT t/2 II=1 hls", "recurrence too tight: edge snew->n3 (dist 1) at II=1");
    ("MT t/2 II=1 map", "a7daddf3d409ab7b8cb8ab85e99ead1d");
    ("MT t/2 II=1 map-trivial", "5011d960dd2349717d9c60216ef8e672");
    ("MT t/2 II=1 sdc", "recurrence too tight: SDC LP unsolvable at II=1");
    ("MT t/2 II=2 hls", "cc51ef952e322d56f0c9c0d481a4511d");
    ("MT t/2 II=2 map", "a7daddf3d409ab7b8cb8ab85e99ead1d");
    ("MT t/2 II=2 map-trivial", "5011d960dd2349717d9c60216ef8e672");
    ("MT t/2 II=2 sdc", "2f5aaefee88ff111eacb6ec3806ae61c");
    ("MT t/2 II=3 hls", "cc51ef952e322d56f0c9c0d481a4511d");
    ("MT t/2 II=3 map", "a7daddf3d409ab7b8cb8ab85e99ead1d");
    ("MT t/2 II=3 map-trivial", "5011d960dd2349717d9c60216ef8e672");
    ("MT t/2 II=3 sdc", "2f5aaefee88ff111eacb6ec3806ae61c");
    ("MT t/4 II=1 hls", "recurrence too tight: schedule ran past the 160-cycle horizon at II=1");
    ("MT t/4 II=1 map", "recurrence too tight: edge snew->n3 (dist 1) at II=1");
    ("MT t/4 II=1 map-trivial", "recurrence too tight: edge snew->n3 (dist 1) at II=1");
    ("MT t/4 II=1 sdc", "recurrence too tight: SDC LP unsolvable at II=1");
    ("MT t/4 II=3 hls", "recurrence too tight: edge snew->n3 (dist 1) at II=3");
    ("MT t/4 II=3 map", "cccaa7441dc23a80783b48a2b980fbc0");
    ("MT t/4 II=3 map-trivial", "de839f90cb64a69f8a1890d08dddbb65");
    ("MT t/4 II=3 sdc", "recurrence too tight: SDC LP unsolvable at II=3");
    ("MT t/4 II=4 hls", "ac0f6f5c0ebdf1f2247fc95f74309bb1");
    ("MT t/4 II=4 map", "cccaa7441dc23a80783b48a2b980fbc0");
    ("MT t/4 II=4 map-trivial", "de839f90cb64a69f8a1890d08dddbb65");
    ("MT t/4 II=4 sdc", "6ae164b0245e1e8974610dfba077db0b");
    ("AES t/1 II=1 hls", "d59a556f87c2109e0abfa0b920529dc0");
    ("AES t/1 II=1 map", "eeac0abf7f30f265fa6b621e28b43622");
    ("AES t/1 II=1 map-trivial", "31bc2f7990f416fa53f42e3a9725ad58");
    ("AES t/1 II=1 sdc", "d59a556f87c2109e0abfa0b920529dc0");
    ("AES t/1 II=2 hls", "d59a556f87c2109e0abfa0b920529dc0");
    ("AES t/1 II=2 map", "eeac0abf7f30f265fa6b621e28b43622");
    ("AES t/1 II=2 map-trivial", "31bc2f7990f416fa53f42e3a9725ad58");
    ("AES t/1 II=2 sdc", "d59a556f87c2109e0abfa0b920529dc0");
    ("AES t/2 II=1 hls", "5dc3d5f076bc300f15a4744af458f65a");
    ("AES t/2 II=1 map", "737bd96078feba1367d993033df5807a");
    ("AES t/2 II=1 map-trivial", "455a3511eeff0b868538f89cf6af99d0");
    ("AES t/2 II=1 sdc", "13bd09630437b6c9d2b4bfee7b4d6779");
    ("AES t/2 II=2 hls", "5dc3d5f076bc300f15a4744af458f65a");
    ("AES t/2 II=2 map", "737bd96078feba1367d993033df5807a");
    ("AES t/2 II=2 map-trivial", "455a3511eeff0b868538f89cf6af99d0");
    ("AES t/2 II=2 sdc", "13bd09630437b6c9d2b4bfee7b4d6779");
    ("AES t/4 II=1 hls", "52fd65da999603c8f96c18ca7ddb8cf3");
    ("AES t/4 II=1 map", "448f2c6623b2939d6fa6d84a622bd8bb");
    ("AES t/4 II=1 map-trivial", "b20f12e89bf13fb355426b86ef98a559");
    ("AES t/4 II=1 sdc", "a77f5364e11b1c261ffb467269708851");
    ("AES t/4 II=2 hls", "52fd65da999603c8f96c18ca7ddb8cf3");
    ("AES t/4 II=2 map", "448f2c6623b2939d6fa6d84a622bd8bb");
    ("AES t/4 II=2 map-trivial", "b20f12e89bf13fb355426b86ef98a559");
    ("AES t/4 II=2 sdc", "a77f5364e11b1c261ffb467269708851");
    ("RS t/1 II=1 hls", "55e9e22f58db6cf9b0181037f3db7025");
    ("RS t/1 II=1 map", "cf7bb3d7e5c6bf838f54a9334d96d05c");
    ("RS t/1 II=1 map-trivial", "2903939c8085b8e524bbb9b8ab06bc89");
    ("RS t/1 II=1 sdc", "55e9e22f58db6cf9b0181037f3db7025");
    ("RS t/1 II=2 hls", "0e5e02c73939bef7dea69c395b3a5057");
    ("RS t/1 II=2 map", "cf7bb3d7e5c6bf838f54a9334d96d05c");
    ("RS t/1 II=2 map-trivial", "2903939c8085b8e524bbb9b8ab06bc89");
    ("RS t/1 II=2 sdc", "72cee6ea90743e7c1c7de5389640062c");
    ("RS t/2 II=1 hls", "recurrence too tight: edge n32->fb (dist 1) at II=1");
    ("RS t/2 II=1 map", "cf7bb3d7e5c6bf838f54a9334d96d05c");
    ("RS t/2 II=1 map-trivial", "4a914bca4bc874c1062c9dc68b362d1e");
    ("RS t/2 II=1 sdc", "recurrence too tight: SDC LP unsolvable at II=1");
    ("RS t/2 II=2 hls", "6f3e98319ecdc31b42d3abf74b388e08");
    ("RS t/2 II=2 map", "cf7bb3d7e5c6bf838f54a9334d96d05c");
    ("RS t/2 II=2 map-trivial", "7b0f41e68960c539bf36fabfd89f451d");
    ("RS t/2 II=2 sdc", "eb962e0c7b5072276122821412f7e7c9");
    ("RS t/2 II=3 hls", "6f3e98319ecdc31b42d3abf74b388e08");
    ("RS t/2 II=3 map", "cf7bb3d7e5c6bf838f54a9334d96d05c");
    ("RS t/2 II=3 map-trivial", "7b0f41e68960c539bf36fabfd89f451d");
    ("RS t/2 II=3 sdc", "eb962e0c7b5072276122821412f7e7c9");
    ("RS t/4 II=1 hls", "recurrence too tight: schedule ran past the 196-cycle horizon at II=1");
    ("RS t/4 II=1 map", "aef8ecfac5e788bf92bbc4e838a37ef8");
    ("RS t/4 II=1 map-trivial", "recurrence too tight: schedule ran past the 196-cycle horizon at II=1");
    ("RS t/4 II=1 sdc", "recurrence too tight: SDC LP unsolvable at II=1");
    ("RS t/4 II=3 hls", "recurrence too tight: schedule ran past the 196-cycle horizon at II=3");
    ("RS t/4 II=3 map", "c5379547dfb9083e57ccf9c34b6d8839");
    ("RS t/4 II=3 map-trivial", "7f61642835988f59ae311dd159c84c4e");
    ("RS t/4 II=3 sdc", "recurrence too tight: SDC LP unsolvable at II=3");
    ("RS t/4 II=4 hls", "recurrence too tight: edge n32->fb (dist 1) at II=4");
    ("RS t/4 II=4 map", "c5379547dfb9083e57ccf9c34b6d8839");
    ("RS t/4 II=4 map-trivial", "7f61642835988f59ae311dd159c84c4e");
    ("RS t/4 II=4 sdc", "recurrence too tight: SDC LP unsolvable at II=4");
    ("DR t/1 II=1 hls", "3f565b017b2b1b7a0df6305458bdd714");
    ("DR t/1 II=1 map", "c6616ba7042c6444bdacae988aa60f32");
    ("DR t/1 II=1 map-trivial", "d0faf940f50a1faf4259d6fee0955017");
    ("DR t/1 II=1 sdc", "c18f520e4d54128a8f888d6d1898b1f6");
    ("DR t/1 II=2 hls", "3f565b017b2b1b7a0df6305458bdd714");
    ("DR t/1 II=2 map", "c6616ba7042c6444bdacae988aa60f32");
    ("DR t/1 II=2 map-trivial", "d0faf940f50a1faf4259d6fee0955017");
    ("DR t/1 II=2 sdc", "c18f520e4d54128a8f888d6d1898b1f6");
    ("DR t/2 II=1 hls", "d77fff084e891eba92af41049e3c1dd4");
    ("DR t/2 II=1 map", "5137520599cc1321138ae37237c95a9a");
    ("DR t/2 II=1 map-trivial", "d2083bfa1dd813f8d80dd0e604580e64");
    ("DR t/2 II=1 sdc", "1058a2ef9ddf15ef1763b6772b1ffeef");
    ("DR t/2 II=2 hls", "d77fff084e891eba92af41049e3c1dd4");
    ("DR t/2 II=2 map", "5137520599cc1321138ae37237c95a9a");
    ("DR t/2 II=2 map-trivial", "d2083bfa1dd813f8d80dd0e604580e64");
    ("DR t/2 II=2 sdc", "1058a2ef9ddf15ef1763b6772b1ffeef");
    ("DR t/4 II=1 hls", "cbb099c27296d19d152692efaf45e2c0");
    ("DR t/4 II=1 map", "41a50cf9f07a02c6a24971a93134413a");
    ("DR t/4 II=1 map-trivial", "025fc15a1a5e2f0a3eb9064d5da56b30");
    ("DR t/4 II=1 sdc", "9a93ef23acb85f63df8da2302209efc5");
    ("DR t/4 II=2 hls", "cbb099c27296d19d152692efaf45e2c0");
    ("DR t/4 II=2 map", "41a50cf9f07a02c6a24971a93134413a");
    ("DR t/4 II=2 map-trivial", "025fc15a1a5e2f0a3eb9064d5da56b30");
    ("DR t/4 II=2 sdc", "9a93ef23acb85f63df8da2302209efc5");
    ("GSM t/1 II=1 hls", "74cb531dac218edc193a1315bcf4c42f");
    ("GSM t/1 II=1 map", "db1e6030111920dcbe078c01b9d53cfe");
    ("GSM t/1 II=1 map-trivial", "df275ae3fe80d0b4189293fa2263c9f9");
    ("GSM t/1 II=1 sdc", "4df836a51e0ab37e29c556e2c1afc188");
    ("GSM t/1 II=2 hls", "74cb531dac218edc193a1315bcf4c42f");
    ("GSM t/1 II=2 map", "db1e6030111920dcbe078c01b9d53cfe");
    ("GSM t/1 II=2 map-trivial", "df275ae3fe80d0b4189293fa2263c9f9");
    ("GSM t/1 II=2 sdc", "4df836a51e0ab37e29c556e2c1afc188");
    ("GSM t/2 II=1 hls", "60d763e3c0953dd4fc728f54544497df");
    ("GSM t/2 II=1 map", "6328c3f041d790fc78fde5c7a11fee4f");
    ("GSM t/2 II=1 map-trivial", "7dd2295c4a2539c7568871861bcaae82");
    ("GSM t/2 II=1 sdc", "a2ff6ff8d9fa51ce50de130ec5d784e7");
    ("GSM t/2 II=2 hls", "60d763e3c0953dd4fc728f54544497df");
    ("GSM t/2 II=2 map", "6328c3f041d790fc78fde5c7a11fee4f");
    ("GSM t/2 II=2 map-trivial", "7dd2295c4a2539c7568871861bcaae82");
    ("GSM t/2 II=2 sdc", "a2ff6ff8d9fa51ce50de130ec5d784e7");
    ("GSM t/4 II=1 hls", "90bee47dcb4c0a03cf247ddb041c07b2");
    ("GSM t/4 II=1 map", "898d186d7e29922362aaa475f00ae777");
    ("GSM t/4 II=1 map-trivial", "06ea8147e283a9a24cc7d38074ee7890");
    ("GSM t/4 II=1 sdc", "40e310922d9eff2b1c5bdd6cd5c2d91a");
    ("GSM t/4 II=2 hls", "90bee47dcb4c0a03cf247ddb041c07b2");
    ("GSM t/4 II=2 map", "898d186d7e29922362aaa475f00ae777");
    ("GSM t/4 II=2 map-trivial", "06ea8147e283a9a24cc7d38074ee7890");
    ("GSM t/4 II=2 sdc", "40e310922d9eff2b1c5bdd6cd5c2d91a");
  ]

let test_golden_placements () =
  let actual = golden_actual () in
  Alcotest.(check (list string)) "cases" (List.map fst golden_expected)
    (List.map fst actual);
  let diffs =
    List.filter_map
      (fun ((k, want), (_, got)) ->
        if want = got then None
        else Some (Printf.sprintf "%s: want %s, got %s" k want got))
      (List.combine golden_expected actual)
  in
  if diffs <> [] then Alcotest.fail (String.concat "\n" diffs)

(* --- cover validation ------------------------------------------------- *)

let test_cover_validate_catches_uncovered_output () =
  let g = xor_chain 2 in
  let cover = Sched.Cover.make g [] in
  match Sched.Cover.validate g cover with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty cover accepted"

let test_cover_validate_catches_nonroot_leaf () =
  let g = xor_chain 2 in
  let cuts = Cuts.trivial_only g in
  let last = Ir.Cdfg.num_nodes g - 1 in
  (* only the output picks a cut; its leaves are not roots *)
  let cover = Sched.Cover.make g [ (last, cuts.(last).(0)) ] in
  match Sched.Cover.validate g cover with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "leafless cover accepted"

let () =
  Alcotest.run "sched"
    [
      ( "heuristic",
        [
          Alcotest.test_case "chains in cycle" `Quick
            test_heuristic_chains_within_cycle;
          Alcotest.test_case "splits long chain" `Quick
            test_heuristic_splits_long_chain;
          Alcotest.test_case "legal on all benchmarks" `Quick
            test_heuristic_verifies_on_benchmarks;
          Alcotest.test_case "recurrence MII" `Quick test_min_ii_recurrence;
          Alcotest.test_case "resource MII" `Quick test_resource_res_mii;
        ] );
      ( "verify",
        [
          Alcotest.test_case "dependence violation" `Quick
            test_verify_catches_dependence_violation;
          Alcotest.test_case "overfull cycle" `Quick
            test_verify_catches_overfull_cycle;
          Alcotest.test_case "late recurrence" `Quick
            test_verify_catches_same_cycle_register_read;
        ] );
      ( "qor",
        [
          Alcotest.test_case "lifetimes" `Quick test_ff_counts_lifetimes;
          Alcotest.test_case "zero in one stage" `Quick test_ff_zero_single_cycle;
          Alcotest.test_case "recurrence register" `Quick
            test_ff_recurrence_register;
          Alcotest.test_case "consts hardwired" `Quick test_const_never_registered;
          Alcotest.test_case "Eq.13 per phase" `Quick test_regs_per_phase_sums_to_ff;
          Alcotest.test_case "Eq.13 at II=2" `Quick test_regs_per_phase_ii2;
          Alcotest.test_case "recompute starts" `Quick test_recompute_starts_asap;
        ] );
      ( "mapsched",
        [
          Alcotest.test_case "xor tree" `Quick test_mapsched_beats_hls_on_tree;
          Alcotest.test_case "legal on all benchmarks" `Quick
            test_mapsched_verifies_on_benchmarks;
        ] );
      ( "multi-cycle",
        [
          Alcotest.test_case "black box latency" `Quick
            test_multicycle_black_box;
          Alcotest.test_case "through the MILP flows" `Quick
            test_multicycle_bb_through_milp;
        ] );
      ( "sdc",
        [
          Alcotest.test_case "legal on all benchmarks" `Quick
            test_sdc_verifies_on_benchmarks;
          Alcotest.test_case "register-minimal" `Quick
            test_sdc_minimizes_registers;
          Alcotest.test_case "resource conflicts" `Quick
            test_sdc_resource_conflicts;
          Alcotest.test_case "recurrence infeasible" `Quick
            test_sdc_recurrence_infeasible;
        ] );
      ( "golden",
        [ Alcotest.test_case "placements" `Quick test_golden_placements ] );
      ( "cover",
        [
          Alcotest.test_case "uncovered output" `Quick
            test_cover_validate_catches_uncovered_output;
          Alcotest.test_case "non-root leaf" `Quick
            test_cover_validate_catches_nonroot_leaf;
        ] );
    ]
