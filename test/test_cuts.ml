(* Tests for word-level cut enumeration (paper Algorithm 1, Fig. 2). *)

let enumerate ?params g = Cuts.enumerate ?params ~k:4 g

let test_trivial_first () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let y = Ir.Builder.input b ~width:4 "y" in
  let o = Ir.Builder.xor_ b x y in
  Ir.Builder.output b o;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  Array.iteri
    (fun v cs ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d has cuts" v)
        true
        (Array.length cs >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "node %d first cut trivial" v)
        true
        (Cuts.is_trivial cs.(0)))
    cuts

let xor_chain n =
  let b = Ir.Builder.create () in
  let x0 = Ir.Builder.input b ~width:2 "x0" in
  let rec go i acc =
    if i > n then acc
    else
      let xi = Ir.Builder.input b ~width:2 (Printf.sprintf "x%d" i) in
      go (i + 1) (Ir.Builder.xor_ b acc xi)
  in
  let o = go 1 x0 in
  Ir.Builder.output b o;
  Ir.Builder.finish b

let test_chain_merging () =
  (* chain of 3 xors, K=4: the last node can absorb both earlier xors
     (support = 4 input bits per output bit). *)
  let g = xor_chain 3 in
  let cuts = enumerate g in
  let last = Ir.Cdfg.num_nodes g - 1 in
  let deepest =
    Array.fold_left
      (fun acc (c : Cuts.cut) -> max acc (Bitdep.Int_set.cardinal c.cone))
      0 cuts.(last)
  in
  Alcotest.(check int) "cone of 3 xors" 3 deepest

let test_k_feasibility_respected () =
  let g = xor_chain 5 in
  let cuts = enumerate g in
  Array.iter
    (fun cs ->
      Array.iter
        (fun (c : Cuts.cut) ->
          if not (Cuts.is_trivial c) then
            Alcotest.(check bool) "support <= K" true (c.support <= 4))
        cs)
    cuts

let test_inputs_never_absorbed () =
  let g = xor_chain 4 in
  let cuts = enumerate g in
  Array.iter
    (fun cs ->
      Array.iter
        (fun (c : Cuts.cut) ->
          Bitdep.Int_set.iter
            (fun w ->
              if w <> c.root then
                match Ir.Cdfg.op g w with
                | Ir.Op.Input _ -> Alcotest.fail "input inside a cone"
                | _ -> ())
            c.cone)
        cs)
    cuts

let test_black_box_trivial_only () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let r = Ir.Builder.black_box b ~kind:"rom" ~resource:"bram_port" ~width:4 [ x ] in
  let o = Ir.Builder.xor_ b r x in
  Ir.Builder.output b o;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  Alcotest.(check int) "bb has only the trivial cut" 1 (Array.length cuts.(1));
  (* the consumer cannot absorb the black box *)
  Array.iter
    (fun (c : Cuts.cut) ->
      Alcotest.(check bool) "bb not in cone" false
        (c.root <> 1 && Bitdep.Int_set.mem 1 c.cone))
    cuts.(2)

let test_registered_edges_are_boundaries () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let cell = Ir.Builder.feedback b ~width:4 ~init:0L ~dist:1 in
  let nxt = Ir.Builder.xor_ b x cell in
  Ir.Builder.drive b ~cell nxt;
  let o = Ir.Builder.not_ b nxt in
  Ir.Builder.output b o;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  (* No cone may contain the xor's recurrence "source" side: every cut of
     the not-node that absorbs the xor must list the xor as a leaf (the
     registered operand). *)
  Array.iter
    (fun (c : Cuts.cut) ->
      if Bitdep.Int_set.mem 1 c.cone (* xor absorbed *) then
        Alcotest.(check bool) "xor also a leaf (registered)" true
          (List.mem 1 c.leaves))
    cuts.(2)

let test_figure2_msb_cut () =
  (* Figure 2's key cut: the comparison "B >= 0" only reads B's MSB, so a
     cone over {C, B} has per-bit support {t[msb], A-side msb} and stays
     4-feasible even though B is 2 bits of xor. *)
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let cuts = enumerate g in
  (* find node C (the cmp) *)
  let c_id = ref (-1) in
  Ir.Cdfg.iter
    (fun nd ->
      match nd.op with Ir.Op.Cmp _ -> c_id := nd.id | _ -> ())
    g;
  Alcotest.(check bool) "cmp found" true (!c_id >= 0);
  let has_deep_cut =
    Array.exists
      (fun (c : Cuts.cut) -> Bitdep.Int_set.cardinal c.cone >= 2)
      cuts.(!c_id)
  in
  Alcotest.(check bool) "C absorbs the xor through MSB narrowing" true
    has_deep_cut

let test_area_wire_zero () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let s = Ir.Builder.shr b x 2 in
  Ir.Builder.output b s;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  Alcotest.(check int) "shift costs nothing" 0 cuts.(1).(0).Cuts.area

let test_area_arith_carry_chain () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let y = Ir.Builder.input b ~width:8 "y" in
  let s = Ir.Builder.add b x y in
  Ir.Builder.output b s;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  Alcotest.(check int) "adder is one LUT per bit" 8 cuts.(2).(0).Cuts.area

let test_delay_classes () =
  let device = Fpga.Device.make ~t_clk:10.0 () in
  let delays = Fpga.Delays.default in
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let y = Ir.Builder.input b ~width:8 "y" in
  let l = Ir.Builder.xor_ b x y in
  let a = Ir.Builder.add b x y in
  let w = Ir.Builder.shr b x 1 in
  Ir.Builder.output b l;
  Ir.Builder.output b a;
  Ir.Builder.output b w;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  let d v = Cuts.delay ~device ~delays g cuts.(v).(0) in
  Alcotest.(check (float 1e-9)) "logic = one LUT" 0.9 (d 2);
  Alcotest.(check bool) "arith keeps carry-chain delay" true (d 3 > 1.0);
  Alcotest.(check (float 1e-9)) "wire free" 0.0 (d 4)

let test_pruning_cap () =
  let g = Benchmarks.Xorr.build ~elements:8 ~width:8 ~mix_depth:3 () in
  let params = { (Cuts.default_params ~k:4) with max_cuts = 3 } in
  let cuts = enumerate ~params g in
  Array.iter
    (fun cs ->
      Alcotest.(check bool) "per-node cap" true (Array.length cs <= 4))
    cuts

let test_trivial_only () =
  let g = xor_chain 3 in
  let cuts = Cuts.trivial_only g in
  Array.iter
    (fun cs ->
      Alcotest.(check int) "single cut" 1 (Array.length cs);
      Alcotest.(check bool) "trivial" true (Cuts.is_trivial cs.(0)))
    cuts

(* [trivial_only ~k] prices a comparison's trivial cut for K-LUTs, so at
   K = 6 its cut 0 is the one [enumerate ~k:6] starts every cut set with. *)
let test_trivial_only_k () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let g = e.build () in
      let triv = Cuts.trivial_only ~k:6 g and full = Cuts.enumerate ~k:6 g in
      Array.iteri
        (fun v cs ->
          if cs.(0) <> full.(v).(0) then
            Alcotest.failf "%s node %d: trivial_only's cut 0 differs" e.name v)
        triv)
    Benchmarks.Registry.all

(* A reconvergent graph whose candidates reuse and rebuild operand
   sub-cones. [v = u | w] with [u = x ^ b], [w = x & c] and [x = ~a], all
   2 bits wide. Choosing [u]'s cut over [{a, b}] (cone [{u, x}]) and [w]'s
   trivial cut over [{x, c}] gives the candidate [{a, b, c, x}]: [w] brings
   in [x] as a leaf, which lies inside [u]'s chosen cone, so [u]'s
   sub-cone under the candidate is [{u}] alone and its supports are built,
   not reused. Per bit the cone over [{u, w}] reads [{x, b, c}], 3 bits;
   reusing [u]'s cone would read [{a, b, x, c}], 4. The cut sets equal the
   oracle's. *)
let test_reconvergent_fallback () =
  let b = Ir.Builder.create () in
  let a = Ir.Builder.input b ~width:2 "a" in
  let bb = Ir.Builder.input b ~width:2 "b" in
  let c = Ir.Builder.input b ~width:2 "c" in
  let x = Ir.Builder.not_ b a in
  let u = Ir.Builder.xor_ b x bb in
  let w = Ir.Builder.and_ b x c in
  let v = Ir.Builder.or_ b u w in
  Ir.Builder.output b v;
  let g = Ir.Builder.finish b in
  let params = Cuts.default_params ~k:4 in
  let cuts = Cuts.enumerate ~params ~k:4 g in
  let want, _ = Cuts_oracle.enumerate ~params g in
  let text cuts =
    let ints l = String.concat "," (List.map string_of_int l) in
    Array.to_list cuts
    |> List.concat_map (fun cs ->
           Array.to_list cs
           |> List.map (fun (c : Cuts.cut) ->
                  Printf.sprintf "%d|%s|%s|%d|%d" c.root (ints c.leaves)
                    (ints (Bitdep.Int_set.elements c.cone))
                    c.support c.area))
  in
  Alcotest.(check (list string)) "cut sets = oracle's" (text want) (text cuts);
  let root = Ir.Cdfg.num_nodes g - 1 in
  let over_u_w =
    Array.to_list cuts.(root)
    |> List.find (fun (c : Cuts.cut) ->
           Bitdep.Int_set.elements c.cone = [ root - 2; root - 1; root ])
  in
  Alcotest.(check (list int)) "cone over {u, w} stops at x, b, c" [ 1; 2; 3 ]
    over_u_w.leaves;
  Alcotest.(check int) "cone over {u, w} reads 3 bits per bit" 3
    over_u_w.support

(* Structural invariants on random-ish benchmark graphs. *)
let cut_invariants =
  QCheck.Test.make ~name:"cut invariants on benchmark graphs" ~count:9
    QCheck.(make Gen.(int_range 0 8))
    (fun i ->
      let e = List.nth Benchmarks.Registry.all i in
      let g = e.Benchmarks.Registry.build () in
      let cuts = enumerate g in
      Array.for_all
        (fun cs ->
          Array.length cs >= 1
          && Cuts.is_trivial cs.(0)
          && Array.for_all
               (fun (c : Cuts.cut) ->
                 (* root in cone, leaves disjoint from cone *)
                 Bitdep.Int_set.mem c.root c.cone
                 && List.for_all
                      (fun l -> not (Bitdep.Int_set.mem l c.cone))
                      c.leaves
                 && List.sort_uniq Int.compare c.leaves = c.leaves
                 && c.area >= 0
                 && (Cuts.is_trivial c || c.support <= 4))
               cs)
        cuts)

(* Cut-set golden: every cut of [Cuts.enumerate] (root, leaves, cone,
   support, area) over the nine kernels plus the scaling graphs, at K = 4
   and K = 6, hashed into one digest; and the per-graph enumeration
   counters hashed into another. Both digests were computed with the
   enumerator as it was before [Bitdep.closure] replaced its two
   unbounded closures per cut (one for support, one for area), so they
   pin that the rewrite returns the same cut sets after the same number
   of candidates. *)
let golden_graphs () =
  List.map
    (fun (e : Benchmarks.Registry.entry) -> (e.name, e.build ()))
    Benchmarks.Registry.all
  @ List.map
      (fun taps ->
        ( Printf.sprintf "RS taps=%d" taps,
          Benchmarks.Rs.full ~width:4 ~taps () ))
      [ 2; 4; 6 ]
  @ List.map
      (fun elements ->
        ( Printf.sprintf "XORR n=%d" elements,
          Benchmarks.Xorr.build ~elements ~width:8 ~mix_depth:3 () ))
      [ 4; 8; 12 ]

let cut_counters =
  List.map Obs.Counter.get
    [ "cuts.candidates"; "cuts.enumerated"; "cuts.infeasible"; "cuts.pruned";
      "cuts.node_merges" ]

(* The cut-set and counter digests of one sweep over [golden_graphs] at
   K = 4 and 6, with the parameters [params ~k] at each K. *)
let golden_digests ?(params = fun ~k -> Cuts.default_params ~k) () =
  let cuts_buf = Buffer.create 65536 and counts_buf = Buffer.create 1024 in
  List.iter
    (fun k ->
      List.iter
        (fun (label, g) ->
          let before = List.map Obs.Counter.value cut_counters in
          let cuts = Cuts.enumerate ~params:(params ~k) ~k g in
          let after = List.map Obs.Counter.value cut_counters in
          Printf.bprintf counts_buf "%s k=%d:%s\n" label k
            (String.concat ","
               (List.map2 (fun a b -> string_of_int (b - a)) before after));
          Printf.bprintf cuts_buf "%s k=%d\n" label k;
          Array.iter
            (Array.iter (fun (c : Cuts.cut) ->
                 let ints l = String.concat "," (List.map string_of_int l) in
                 Printf.bprintf cuts_buf "%d|%s|%s|%d|%d\n" c.root
                   (ints c.leaves)
                   (ints (Bitdep.Int_set.elements c.cone))
                   c.support c.area))
            cuts)
        (golden_graphs ()))
    [ 4; 6 ];
  let hex b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  (hex cuts_buf, hex counts_buf)

let test_golden () =
  let cuts, counts = golden_digests () in
  Alcotest.(check string) "cut-set digest" "20aef610ff0b9ab564db142d2ef0d5c0"
    cuts;
  Alcotest.(check string) "counter digest" "a937ea1cf56ba636911426264c2b4ef6"
    counts

(* The same sweep under the non-default parameters the program uses:
   Flow's coarse retry, a candidate cap small enough to truncate the
   cartesian product (so the combination order decides which candidates
   are seen), and [bench/main.ml]'s [max_cuts] sweep ends. Each pair of
   digests was recorded with the list/[Int_set] enumerator. *)
let params_cases =
  [
    ( "coarse retry",
      (fun ~k ->
        { (Cuts.default_params ~k) with max_cuts = 5; max_candidates = 128 }),
      ( "70041e00184686c59ec9bb1f9c25158f",
        "83cacc3eebaede18ac1eab0adf185528" ) );
    ( "max_candidates 8",
      (fun ~k -> { (Cuts.default_params ~k) with max_candidates = 8 }),
      ( "d91d5c913a53476fde29ec571f7027f6",
        "f01b489248fa36bd7c792d504d935704" ) );
    ( "max_cuts 2",
      (fun ~k -> { (Cuts.default_params ~k) with max_cuts = 2 }),
      ( "d25ac97070628156f6fbc9739b57e607",
        "b11f936a7b0340b13f80d3d2d8ccae08" ) );
    ( "max_cuts 20",
      (fun ~k -> { (Cuts.default_params ~k) with max_cuts = 20 }),
      ( "657924203513d6e910e6a830616c3295",
        "09c024c8b3c5119b150c41064741e9e4" ) );
  ]

let test_golden_params () =
  List.iter
    (fun (label, params, (want_cuts, want_counts)) ->
      let cuts, counts = golden_digests ~params () in
      Alcotest.(check string) (label ^ ": cut-set digest") want_cuts cuts;
      Alcotest.(check string) (label ^ ": counter digest") want_counts counts)
    params_cases

(* [cuts.closures] counts the closures actually run: one per distinct
   canonical cone of a merge, so fewer than the candidates that reach a
   closure verdict ([cuts.enumerated] + [cuts.infeasible]), which it
   equalled when every candidate ran its own closure. Pinned over the
   golden graphs at K = 4 and 6. *)
let test_closures_counter () =
  let value name = Obs.Counter.value (Obs.Counter.get name) in
  List.iter
    (fun (k, want) ->
      let c0 = value "cuts.closures"
      and v0 = value "cuts.enumerated" + value "cuts.infeasible" in
      List.iter (fun (_, g) -> ignore (Cuts.enumerate ~k g)) (golden_graphs ());
      let closures = value "cuts.closures" - c0
      and verdicts = value "cuts.enumerated" + value "cuts.infeasible" - v0 in
      Alcotest.(check int) (Printf.sprintf "closures at K = %d" k) want closures;
      Alcotest.(check bool)
        (Printf.sprintf "%d closures < %d verdicts at K = %d" closures verdicts
           k)
        true (closures < verdicts))
    [ (4, 10350); (6, 11607) ]

(* The minor-heap words of one K = 4 sweep of [Cuts.enumerate] over the
   nine kernels plus XORR n=12, measured after a warm-up sweep has grown
   the domain's [Bitdep] arrays. Enumeration allocates the cuts it keeps
   and little per candidate or per cone: the ceiling is the sweep's
   488 K words with about 25% headroom. The enumerator that gave every
   cone its own supports array, members array and hashed leaf list
   allocated 1.49 M. *)
let test_allocation_ceiling () =
  let graphs =
    List.map
      (fun (e : Benchmarks.Registry.entry) -> e.build ())
      Benchmarks.Registry.all
    @ [ Benchmarks.Xorr.build ~elements:12 ~width:8 ~mix_depth:3 () ]
  in
  let sweep () =
    List.iter (fun g -> ignore (Sys.opaque_identity (Cuts.enumerate ~k:4 g))) graphs
  in
  sweep ();
  let w0 = Gc.minor_words () in
  sweep ();
  let words = Gc.minor_words () -. w0 and ceiling = 610_000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= %.0f" words ceiling)
    true (words <= ceiling)

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "cuts"
    [
      ( "enumeration",
        [
          Alcotest.test_case "trivial first" `Quick test_trivial_first;
          Alcotest.test_case "chain merging" `Quick test_chain_merging;
          Alcotest.test_case "K-feasibility" `Quick test_k_feasibility_respected;
          Alcotest.test_case "inputs stay leaves" `Quick test_inputs_never_absorbed;
          Alcotest.test_case "black box trivial" `Quick test_black_box_trivial_only;
          Alcotest.test_case "registered boundaries" `Quick
            test_registered_edges_are_boundaries;
          Alcotest.test_case "figure 2 msb cut" `Quick test_figure2_msb_cut;
          Alcotest.test_case "pruning cap" `Quick test_pruning_cap;
          Alcotest.test_case "trivial only" `Quick test_trivial_only;
          Alcotest.test_case "trivial only at K = 6" `Quick test_trivial_only_k;
          Alcotest.test_case "reconvergent operand cones" `Quick
            test_reconvergent_fallback;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "wire area" `Quick test_area_wire_zero;
          Alcotest.test_case "carry chain area" `Quick test_area_arith_carry_chain;
          Alcotest.test_case "delay classes" `Quick test_delay_classes;
        ] );
      ("invariants", qsuite [ cut_invariants ]);
      ( "golden",
        [
          Alcotest.test_case "cut sets and counters" `Quick test_golden;
          Alcotest.test_case "under non-default parameters" `Quick
            test_golden_params;
          Alcotest.test_case "one closure per distinct cone" `Quick
            test_closures_counter;
          Alcotest.test_case "allocation ceiling" `Quick
            test_allocation_ceiling;
        ] );
    ]
