(* Tests for bit-level dependence tracking (paper Sec. 3.1): the DEP
   classes, the constant-aware refinements, and cone support closure. *)

module Bp = Bitdep.Bitpos

let bp ?(dist = 0) node bit = Bp.{ node; bit; dist }

let reads g ~node ~bit =
  let step = Bitdep.dep g ~node ~bit in
  List.sort Bp.compare step.Bitdep.reads

let check_reads msg expected actual =
  let expected = List.sort Bp.compare expected in
  if expected <> actual then
    Alcotest.failf "%s: got [%s], expected [%s]" msg
      (String.concat "; " (List.map (Fmt.str "%a" Bp.pp) actual))
      (String.concat "; " (List.map (Fmt.str "%a" Bp.pp) expected))

(* builder helpers *)
let two_inputs width =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width "x" in
  let y = Ir.Builder.input b ~width "y" in
  (b, x, y)

let finish1 b v =
  Ir.Builder.output b v;
  Ir.Builder.finish b

let test_bitwise_dep () =
  let b, x, y = two_inputs 4 in
  let g = finish1 b (Ir.Builder.xor_ b x y) in
  (* node ids: x=0 y=1 xor=2 *)
  check_reads "xor bit 2" [ bp 0 2; bp 1 2 ] (reads g ~node:2 ~bit:2)

let test_shift_dep () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let s = Ir.Builder.shr b x 3 in
  let g = finish1 b s in
  check_reads "shr bit 0 reads bit 3" [ bp 0 3 ] (reads g ~node:1 ~bit:0);
  (* bits shifted in from beyond the msb are constant zero *)
  check_reads "shr bit 6 reads nothing" [] (reads g ~node:1 ~bit:6)

let test_shl_dep () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let s = Ir.Builder.shl b x 2 in
  let g = finish1 b s in
  check_reads "shl bit 5 reads bit 3" [ bp 0 3 ] (reads g ~node:1 ~bit:5);
  check_reads "shl bit 1 is zero" [] (reads g ~node:1 ~bit:1)

let test_arith_dep () =
  let b, x, y = two_inputs 4 in
  let g = finish1 b (Ir.Builder.add b x y) in
  (* paper: out[j] depends on bits 0..j of both operands *)
  check_reads "add bit 2"
    [ bp 0 0; bp 0 1; bp 0 2; bp 1 0; bp 1 1; bp 1 2 ]
    (reads g ~node:2 ~bit:2)

let test_add_const_refinement () =
  (* x + 0b0100: bits below bit 2 pass through; bit 3 reads bits 2..3 *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let c = Ir.Builder.const b ~width:4 4L in
  let g = finish1 b (Ir.Builder.add b x c) in
  check_reads "low bit passes through" [ bp 0 1 ] (reads g ~node:2 ~bit:1);
  let step = Bitdep.dep g ~node:2 ~bit:1 in
  Alcotest.(check bool) "passthrough flag" true step.Bitdep.passthrough;
  check_reads "bit 3 reads from tz up" [ bp 0 2; bp 0 3 ] (reads g ~node:2 ~bit:3)

let test_cmp_msb_refinement () =
  (* The paper's Fig. 2 observation: B >= 2^(w-1) probes only the MSB. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let c = Ir.Builder.const b ~width:8 0x80L in
  let g = finish1 b (Ir.Builder.cmp b Ir.Op.Ge x c) in
  check_reads "ge-msb reads only bit 7" [ bp 0 7 ] (reads g ~node:2 ~bit:0)

let test_cmp_trailing_zero_refinement () =
  (* x >= 0b0110_0000 depends on bits 5..7 only. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let c = Ir.Builder.const b ~width:8 0x60L in
  let g = finish1 b (Ir.Builder.cmp b Ir.Op.Ge x c) in
  check_reads "ge reads bits >= tz" [ bp 0 5; bp 0 6; bp 0 7 ]
    (reads g ~node:2 ~bit:0)

let test_cmp_const_true () =
  (* x >= 0 is constant: no dependence at all. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let c = Ir.Builder.const b ~width:8 0L in
  let g = finish1 b (Ir.Builder.cmp b Ir.Op.Ge x c) in
  check_reads "x >= 0 constant" [] (reads g ~node:2 ~bit:0)

let test_cmp_flipped_operands () =
  (* 0x80 <= x flips to x >= 0x80: MSB probe again. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let c = Ir.Builder.const b ~width:8 0x80L in
  let g = finish1 b (Ir.Builder.cmp b Ir.Op.Le c x) in
  check_reads "flipped le" [ bp 0 7 ] (reads g ~node:2 ~bit:0)

let test_and_mask_refinement () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let m = Ir.Builder.const b ~width:8 0x0fL in
  let g = finish1 b (Ir.Builder.and_ b x m) in
  (* masked-off bit: constant zero *)
  check_reads "bit 6 masked off" [] (reads g ~node:2 ~bit:6);
  (* kept bit: passthrough *)
  let step = Bitdep.dep g ~node:2 ~bit:2 in
  check_reads "bit 2 kept" [ bp 0 2 ] (List.sort Bp.compare step.Bitdep.reads);
  Alcotest.(check bool) "kept bit is a wire" true step.Bitdep.passthrough

let test_mux_dep () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let y = Ir.Builder.input b ~width:4 "y" in
  let c = Ir.Builder.input b ~width:1 "c" in
  let g = finish1 b (Ir.Builder.mux b ~cond:c x y) in
  check_reads "mux bit 2" [ bp 2 0; bp 0 2; bp 1 2 ] (reads g ~node:3 ~bit:2)

let test_concat_dep () =
  let b = Ir.Builder.create () in
  let hi = Ir.Builder.input b ~width:3 "hi" in
  let lo = Ir.Builder.input b ~width:5 "lo" in
  let g = finish1 b (Ir.Builder.concat b hi lo) in
  check_reads "low region" [ bp 1 4 ] (reads g ~node:2 ~bit:4);
  check_reads "high region" [ bp 0 0 ] (reads g ~node:2 ~bit:5)

let test_registered_read () =
  (* A loop-carried operand reads through a register: dist recorded. *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let cell = Ir.Builder.feedback b ~width:4 ~init:0L ~dist:2 in
  let nxt = Ir.Builder.xor_ b x cell in
  Ir.Builder.drive b ~cell nxt;
  let g = finish1 b nxt in
  check_reads "feedback read" [ bp 0 1; bp ~dist:2 1 1 ] (reads g ~node:1 ~bit:1)

(* --- support closure -------------------------------------------------- *)

let mk_cone l = Bitdep.Int_set.of_list l

let test_support_through_cone () =
  (* cone {xor2; and3}: and(x ^ y, z) bit j supports {x[j], y[j], z[j]} *)
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let y = Ir.Builder.input b ~width:4 "y" in
  let z = Ir.Builder.input b ~width:4 "z" in
  let t = Ir.Builder.xor_ b x y in
  let o = Ir.Builder.and_ b t z in
  let g = finish1 b o in
  let s = Closure_oracle.support g ~root:4 ~cone:(mk_cone [ 3; 4 ]) ~bit:1 in
  Alcotest.(check int) "support width" 3 (Bp.Set.cardinal s.Closure_oracle.bits);
  Alcotest.(check bool) "not a wire" false s.Closure_oracle.pure_wire

let test_support_stops_at_boundary () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let y = Ir.Builder.input b ~width:4 "y" in
  let t = Ir.Builder.xor_ b x y in
  let o = Ir.Builder.not_ b t in
  let g = finish1 b o in
  (* cone {not} only: support is the xor node's bit, not the inputs *)
  let s = Closure_oracle.support g ~root:3 ~cone:(mk_cone [ 3 ]) ~bit:2 in
  check_reads "boundary bit" [ bp 2 2 ] (Bp.Set.elements s.Closure_oracle.bits)

let test_max_support_and_lut_bits () =
  (* u = t ^ (t >> 1): bit j needs t[j], t[j+1]; top bit passes through. *)
  let b = Ir.Builder.create () in
  let t = Ir.Builder.input b ~width:4 "t" in
  let sh = Ir.Builder.shr b t 1 in
  let u = Ir.Builder.xor_ b t sh in
  let g = finish1 b u in
  let cone = mk_cone [ 1; 2 ] in
  Alcotest.(check int) "max support" 2 (Closure_oracle.max_support_width g ~root:2 ~cone);
  (* bits 0..2 need LUTs; bit 3 = t[3] xor 0 passes through *)
  Alcotest.(check int) "lut bits" 3 (Closure_oracle.lut_bits g ~root:2 ~cone)

let test_wire_cone_is_free () =
  let b = Ir.Builder.create () in
  let t = Ir.Builder.input b ~width:8 "t" in
  let s = Ir.Builder.slice b t ~lo:2 ~hi:5 in
  let sh = Ir.Builder.shl b s 1 in
  let g = finish1 b sh in
  let cone = mk_cone [ 1; 2 ] in
  Alcotest.(check int) "pure wiring costs nothing" 0
    (Closure_oracle.lut_bits g ~root:2 ~cone)

(* Random graphs: support of the trivial cone equals the one-step reads
   (modulo constants), and support is monotone in the cone. *)
let support_monotone_in_cone =
  QCheck.Test.make ~name:"support grows no wider than cone union" ~count:100
    QCheck.(make Gen.(int_range 0 1000))
    (fun seed ->
      (* a small fixed-shape graph parameterized by the seed *)
      let b = Ir.Builder.create () in
      let x = Ir.Builder.input b ~width:6 "x" in
      let y = Ir.Builder.input b ~width:6 "y" in
      let t1 =
        if seed mod 2 = 0 then Ir.Builder.xor_ b x y else Ir.Builder.and_ b x y
      in
      let t2 = Ir.Builder.shr b t1 (seed mod 3) in
      let t3 = Ir.Builder.or_ b t2 y in
      Ir.Builder.output b t3;
      let g = Ir.Builder.finish b in
      let small = mk_cone [ 4 ] in
      let big = mk_cone [ 2; 3; 4 ] in
      let bit = seed mod 6 in
      let s_small = Closure_oracle.support g ~root:4 ~cone:small ~bit in
      let s_big = Closure_oracle.support g ~root:4 ~cone:big ~bit in
      (* the big cone's support never mentions interior nodes *)
      Bp.Set.for_all
        (fun r -> r.Bp.node = 0 || r.Bp.node = 1)
        s_big.Closure_oracle.bits
      && Bp.Set.cardinal s_small.Closure_oracle.bits <= 2)

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "bitdep"
    [
      ( "dep",
        [
          Alcotest.test_case "bitwise" `Quick test_bitwise_dep;
          Alcotest.test_case "shr" `Quick test_shift_dep;
          Alcotest.test_case "shl" `Quick test_shl_dep;
          Alcotest.test_case "arith" `Quick test_arith_dep;
          Alcotest.test_case "add const" `Quick test_add_const_refinement;
          Alcotest.test_case "cmp msb" `Quick test_cmp_msb_refinement;
          Alcotest.test_case "cmp trailing zeros" `Quick
            test_cmp_trailing_zero_refinement;
          Alcotest.test_case "cmp const-true" `Quick test_cmp_const_true;
          Alcotest.test_case "cmp flipped" `Quick test_cmp_flipped_operands;
          Alcotest.test_case "and mask" `Quick test_and_mask_refinement;
          Alcotest.test_case "mux" `Quick test_mux_dep;
          Alcotest.test_case "concat" `Quick test_concat_dep;
          Alcotest.test_case "registered" `Quick test_registered_read;
        ] );
      ( "support",
        [
          Alcotest.test_case "through cone" `Quick test_support_through_cone;
          Alcotest.test_case "stops at boundary" `Quick
            test_support_stops_at_boundary;
          Alcotest.test_case "max support / lut bits" `Quick
            test_max_support_and_lut_bits;
          Alcotest.test_case "wire cone free" `Quick test_wire_cone_is_free;
        ] );
      ("random", qsuite [ support_monotone_in_cone ]);
    ]
