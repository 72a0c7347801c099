(* Tests for the static-analysis layer: one malformed input per diagnostic
   code (asserting the exact code and its witness), the JSON encoding, and a
   clean-run check over every registry benchmark. *)

let has_code code diags =
  List.exists (fun (d : Analyze.Diag.t) -> d.code = code) diags

let find_code code diags =
  match List.find_opt (fun (d : Analyze.Diag.t) -> d.code = code) diags with
  | Some d -> d
  | None ->
      Alcotest.failf "expected a %s diagnostic, got: %a" code
        Analyze.Diag.pp_report diags

let check_severity what expect (d : Analyze.Diag.t) =
  Alcotest.(check string)
    what
    (Analyze.Diag.severity_name expect)
    (Analyze.Diag.severity_name d.severity)

(* ------------------------------------------------------------------ *)
(* CDFG lints                                                          *)
(* ------------------------------------------------------------------ *)

let input_node id name width =
  {
    Ir.Cdfg.id;
    op = Ir.Op.Input name;
    width;
    preds = [||];
    name = Some name;
  }

let dist0 src = { Ir.Cdfg.src; dist = 0; init = 0L }

(* Two adds feeding each other with dist-0 edges: a combinational cycle
   that Ir.Cdfg.create would refuse to build. *)
let test_cdfg001_comb_cycle () =
  let nodes =
    [
      input_node 0 "a" 8;
      {
        Ir.Cdfg.id = 1;
        op = Ir.Op.Add;
        width = 8;
        preds = [| dist0 2; dist0 0 |];
        name = Some "u";
      };
      {
        Ir.Cdfg.id = 2;
        op = Ir.Op.Add;
        width = 8;
        preds = [| dist0 1; dist0 0 |];
        name = Some "v";
      };
    ]
  in
  let diags = Analyze.Cdfg_lint.check_raw ~nodes ~outputs:[ 2 ] in
  let d = find_code "CDFG001" diags in
  check_severity "CDFG001 severity" Analyze.Diag.Error d;
  (* Witness: the cycle in dataflow order, head repeated to close it. The
     starting node is a DFS artifact, so accept either rotation. *)
  Alcotest.(check bool) "cycle witness is closed" true
    (List.hd d.witness = List.nth d.witness (List.length d.witness - 1));
  Alcotest.(check (list string))
    "cycle members"
    [ "u"; "v" ]
    (List.sort_uniq compare d.witness)

let test_cdfg002_black_box_feedback () =
  let nodes =
    [
      input_node 0 "a" 8;
      {
        Ir.Cdfg.id = 1;
        op = Ir.Op.Black_box { kind = "mac"; resource = "dsp" };
        width = 8;
        preds = [| dist0 2 |];
        name = Some "m";
      };
      {
        Ir.Cdfg.id = 2;
        op = Ir.Op.Add;
        width = 8;
        preds = [| dist0 1; dist0 0 |];
        name = Some "s";
      };
    ]
  in
  let diags = Analyze.Cdfg_lint.check_raw ~nodes ~outputs:[ 2 ] in
  Alcotest.(check bool) "also reports the cycle" true (has_code "CDFG001" diags);
  let d = find_code "CDFG002" diags in
  check_severity "CDFG002 severity" Analyze.Diag.Error d;
  Alcotest.(check string) "locates the black box" "node:1"
    (Analyze.Diag.loc_to_string d.loc)

let test_cdfg003_width_violation () =
  let nodes =
    [
      input_node 0 "a" 8;
      input_node 1 "b" 4;
      {
        Ir.Cdfg.id = 2;
        op = Ir.Op.Add;
        width = 8;
        preds = [| dist0 0; dist0 1 |];
        name = Some "sum";
      };
    ]
  in
  let diags = Analyze.Cdfg_lint.check_raw ~nodes ~outputs:[ 2 ] in
  let d = find_code "CDFG003" diags in
  check_severity "CDFG003 severity" Analyze.Diag.Error d;
  Alcotest.(check string) "locates the add" "node:2"
    (Analyze.Diag.loc_to_string d.loc)

let test_cdfg004_dead_node () =
  let b = Ir.Builder.create () in
  let a = Ir.Builder.input b ~width:8 "a" in
  let dead = Ir.Builder.add b a a in
  ignore dead;
  let out = Ir.Builder.not_ b a in
  Ir.Builder.output b out;
  let g = Ir.Builder.finish b in
  let d = find_code "CDFG004" (Analyze.Cdfg_lint.check g) in
  check_severity "CDFG004 severity" Analyze.Diag.Warning d

let test_cdfg005_const_cone () =
  let b = Ir.Builder.create () in
  let a = Ir.Builder.input b ~width:8 "a" in
  let c1 = Ir.Builder.const b ~width:8 3L in
  let c2 = Ir.Builder.const b ~width:8 4L in
  let s = Ir.Builder.add b c1 c2 in
  let s2 = Ir.Builder.not_ b s in
  let out = Ir.Builder.add b a s2 in
  Ir.Builder.output b out;
  let g = Ir.Builder.finish b in
  let diags = Analyze.Cdfg_lint.check g in
  let d = find_code "CDFG005" diags in
  check_severity "CDFG005 severity" Analyze.Diag.Info d;
  (* One finding for the maximal cone (root s2), not one per folded node. *)
  Alcotest.(check int) "one cone"
    1
    (List.length
       (List.filter (fun (x : Analyze.Diag.t) -> x.code = "CDFG005") diags))

let test_cdfg006_malformed () =
  let nodes =
    [
      input_node 0 "a" 8;
      {
        Ir.Cdfg.id = 1;
        op = Ir.Op.Not;
        width = 8;
        preds = [| dist0 99 |];
        name = None;
      };
    ]
  in
  let diags = Analyze.Cdfg_lint.check_raw ~nodes ~outputs:[] in
  let d = find_code "CDFG006" diags in
  check_severity "CDFG006 severity" Analyze.Diag.Error d;
  (* Structural failures must suppress the downstream passes. *)
  Alcotest.(check bool) "only CDFG006" true
    (List.for_all (fun (x : Analyze.Diag.t) -> x.code = "CDFG006") diags);
  Alcotest.(check bool) "missing outputs reported" true
    (List.exists
       (fun (x : Analyze.Diag.t) -> x.message = "no primary outputs")
       diags)

(* ------------------------------------------------------------------ *)
(* pre-flight                                                          *)
(* ------------------------------------------------------------------ *)

(* acc <- acc + x three times per iteration, dist 1: the chained delay of
   three adds cannot close in one short cycle. *)
let recurrence_graph () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:16 "x" in
  let acc = Ir.Builder.feedback b ~width:16 ~init:0L ~dist:1 in
  let s1 = Ir.Builder.add b x acc in
  let s2 = Ir.Builder.add b x s1 in
  let s3 = Ir.Builder.add b x s2 in
  Ir.Builder.drive b ~cell:acc s3;
  Ir.Builder.output b s3;
  Ir.Builder.finish b

let tight_cfg ~ii =
  {
    Analyze.Preflight.device = Fpga.Device.make ~t_clk:2.0 ();
    delays = Fpga.Delays.default;
    resources = Fpga.Resource.unlimited;
    ii;
  }

let test_pre001_rec_mii () =
  let g = recurrence_graph () in
  let cfg = tight_cfg ~ii:1 in
  let rec_mii =
    Sched.Heuristic.rec_mii ~device:cfg.Analyze.Preflight.device
      ~delays:cfg.delays g
  in
  Alcotest.(check bool) "setup: RecMII binds" true (rec_mii > 1);
  let d = find_code "PRE001" (Analyze.Preflight.check cfg g) in
  check_severity "PRE001 severity" Analyze.Diag.Error d;
  (* The witness is a closed dependence cycle through the feedback adds. *)
  Alcotest.(check bool) "witness is a closed cycle" true
    (List.length d.witness >= 2
    && List.hd d.witness = List.nth d.witness (List.length d.witness - 1));
  (* The lint verdict agrees with the scheduler itself. *)
  Alcotest.(check bool) "heuristic agrees" true
    (Result.is_error
       (Sched.Heuristic.schedule ~device:cfg.device ~delays:cfg.delays
          ~resources:cfg.resources ~ii:1 g));
  Alcotest.(check bool) "feasible at RecMII" false
    (has_code "PRE001" (Analyze.Preflight.check { cfg with ii = rec_mii } g))

let dsp_pair_graph () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let m1 = Ir.Builder.black_box b ~kind:"mul" ~resource:"dsp" ~width:8 [ x ] in
  let m2 = Ir.Builder.black_box b ~kind:"mul" ~resource:"dsp" ~width:8 [ m1 ] in
  Ir.Builder.output b m2;
  Ir.Builder.finish b

let test_pre002_res_mii () =
  let g = dsp_pair_graph () in
  let cfg =
    {
      Analyze.Preflight.device = Fpga.Device.make ~t_clk:10.0 ();
      delays = Fpga.Delays.default;
      resources = Fpga.Resource.of_list [ ("dsp", 1) ];
      ii = 1;
    }
  in
  let d = find_code "PRE002" (Analyze.Preflight.check cfg g) in
  check_severity "PRE002 severity" Analyze.Diag.Error d;
  Alcotest.(check (list string))
    "binding class witness"
    [ "dsp: 2 uses / 1 units -> ResMII 2" ]
    d.witness;
  Alcotest.(check bool) "feasible at ResMII" false
    (has_code "PRE002" (Analyze.Preflight.check { cfg with ii = 2 } g))

let test_pre003_period () =
  let g = recurrence_graph () in
  (* High II so the recurrence is feasible and only the period finding
     remains. *)
  let cfg = tight_cfg ~ii:8 in
  let diags = Analyze.Preflight.check cfg g in
  let d = find_code "PRE003" diags in
  check_severity "default: warning" Analyze.Diag.Warning d;
  let strict = Analyze.Preflight.check ~strict_period:true cfg g in
  let d = find_code "PRE003" strict in
  check_severity "strict: error" Analyze.Diag.Error d;
  Alcotest.(check int) "witness names the op" 1 (List.length d.witness)

let test_pre004_zero_budget () =
  let g = dsp_pair_graph () in
  let cfg =
    {
      Analyze.Preflight.device = Fpga.Device.make ~t_clk:10.0 ();
      delays = Fpga.Delays.default;
      resources = Fpga.Resource.of_list [ ("dsp", 0) ];
      ii = 4;
    }
  in
  let d = find_code "PRE004" (Analyze.Preflight.check cfg g) in
  check_severity "PRE004 severity" Analyze.Diag.Error d;
  Alcotest.(check (list string))
    "witness" [ "dsp: 2 uses, 0 units" ] d.witness

(* ------------------------------------------------------------------ *)
(* LP model lints                                                      *)
(* ------------------------------------------------------------------ *)

let test_lp001_infeasible_empty_row () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  (* Terms cancel to nothing; 0 >= 1 is false. *)
  Lp.Model.add_ge m ~name:(lazy "cancelled") [ (1.0, x); (-1.0, x) ] 1.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let d = find_code "LP001" (Analyze.Lp_lint.check m) in
  check_severity "LP001 severity" Analyze.Diag.Error d;
  Alcotest.(check string) "row location" "row:0"
    (Analyze.Diag.loc_to_string d.loc)

let test_lp002_vacuous_empty_row () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  Lp.Model.add_le m [ (1.0, x); (-1.0, x) ] 1.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let d = find_code "LP002" (Analyze.Lp_lint.check m) in
  check_severity "LP002 severity" Analyze.Diag.Warning d

let test_lp003_duplicate_rows () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  let y = Lp.Model.add_var m (lazy "y") in
  Lp.Model.add_le m ~name:(lazy "first") [ (1.0, x); (2.0, y) ] 3.0;
  (* Same normalized terms in a different order: still a duplicate. *)
  Lp.Model.add_le m ~name:(lazy "second") [ (2.0, y); (1.0, x) ] 3.0;
  Lp.Model.set_objective m [ (1.0, x); (1.0, y) ];
  let d = find_code "LP003" (Analyze.Lp_lint.check m) in
  check_severity "LP003 severity" Analyze.Diag.Warning d;
  Alcotest.(check (list string)) "witness pairs rows" [ "first"; "second" ]
    d.witness

let test_lp003_near_rows_differ () =
  (* Rows equal to 6 significant digits but not in their bits are not
     duplicates, whether they differ in a coefficient or in the rhs. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  let y = Lp.Model.add_var m (lazy "y") in
  Lp.Model.add_le m [ (1.0000001, x); (2.0, y) ] 3.0;
  Lp.Model.add_le m [ (1.0000002, x); (2.0, y) ] 3.0;
  Lp.Model.add_ge m [ (1.0, x); (2.0, y) ] 1.0000001;
  Lp.Model.add_ge m [ (1.0, x); (2.0, y) ] 1.0000002;
  Lp.Model.set_objective m [ (1.0, x); (1.0, y) ];
  Alcotest.(check (list string)) "no LP003" []
    (List.filter_map
       (fun (d : Analyze.Diag.t) -> if d.code = "LP003" then Some d.message else None)
       (Analyze.Lp_lint.check m))

(* The lint formats a row or variable name only for a finding: a clean
   model whose every name raises when forced lints clean. *)
let test_lp_clean_names_unforced () =
  let m = Lp.Model.create () in
  let unforced what = lazy (failwith ("forced the name of " ^ what)) in
  let x = Lp.Model.add_var m (unforced "x") in
  let y = Lp.Model.add_var m ~integer:true ~ub:3.0 (unforced "y") in
  Lp.Model.add_le m ~name:(unforced "r0") [ (1.0, x); (2.0, y) ] 3.0;
  Lp.Model.add_ge m ~name:(unforced "r1") [ (1.0, x); (-1.0, y) ] 0.0;
  Lp.Model.add_eq m ~name:(unforced "r2") [ (1.0, y) ] 1.0;
  Lp.Model.set_objective m [ (1.0, x); (1.0, y) ];
  Alcotest.(check (list string)) "no findings" []
    (List.map
       (fun (d : Analyze.Diag.t) -> d.message)
       (Analyze.Lp_lint.check m))

let test_lp004_free_column () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  let free = Lp.Model.add_var m ~lb:0.0 ~ub:10.0 (lazy "loose") in
  ignore free;
  Lp.Model.add_le m [ (1.0, x) ] 1.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  let d = find_code "LP004" (Analyze.Lp_lint.check m) in
  check_severity "LP004 severity" Analyze.Diag.Warning d;
  Alcotest.(check string) "column location" "col:1"
    (Analyze.Diag.loc_to_string d.loc)

let test_lp005_integer_infeasible_bounds () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~integer:true ~lb:0.4 ~ub:0.6 (lazy "frac") in
  Lp.Model.add_ge m [ (1.0, x) ] 0.0;
  let d = find_code "LP005" (Analyze.Lp_lint.check m) in
  check_severity "LP005 severity" Analyze.Diag.Error d

let test_lp_report_cap () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m (lazy "x") in
  for _ = 1 to 40 do
    Lp.Model.add_ge m [ (1.0, x); (-1.0, x) ] 1.0
  done;
  Lp.Model.set_objective m [ (1.0, x) ];
  let lp001 =
    List.filter
      (fun (d : Analyze.Diag.t) -> d.code = "LP001")
      (Analyze.Lp_lint.check m)
  in
  (* 25 kept + 1 summarizing overflow diagnostic. *)
  Alcotest.(check int) "capped" 26 (List.length lp001)

(* ------------------------------------------------------------------ *)
(* netlist lints                                                       *)
(* ------------------------------------------------------------------ *)

let sig_ name width = { Rtl.Netlist.name; width }

let netlist ?(inputs = []) ?(wires = []) ?(regs = []) ~outputs () =
  { Rtl.Netlist.module_name = "t"; inputs; wires; regs; fill = None; outputs }

let test_net001_undriven () =
  let ghost = sig_ "ghost" 4 in
  let w = sig_ "w" 4 in
  let nl =
    netlist
      ~wires:[ (w, `Expr (Rtl.Netlist.Ref ghost)) ]
      ~outputs:[ (sig_ "o" 4, Rtl.Netlist.Ref w) ]
      ()
  in
  let d = find_code "NET001" (Analyze.Net_lint.check nl) in
  check_severity "NET001 severity" Analyze.Diag.Error d;
  Alcotest.(check string) "names the signal" "wire:ghost"
    (Analyze.Diag.loc_to_string d.loc)

let test_net002_multiple_drivers () =
  let a = sig_ "a" 4 in
  let w = sig_ "w" 4 in
  let nl =
    netlist ~inputs:[ a ]
      ~wires:
        [
          (w, `Expr (Rtl.Netlist.Ref a)); (w, `Expr (Rtl.Netlist.Ref a));
        ]
      ~outputs:[ (sig_ "o" 4, Rtl.Netlist.Ref w) ]
      ()
  in
  let d = find_code "NET002" (Analyze.Net_lint.check nl) in
  check_severity "NET002 severity" Analyze.Diag.Error d

let test_net003_unconnected_pin () =
  let a = sig_ "a" 4 in
  let w = sig_ "w" 4 in
  let nl =
    netlist ~inputs:[ a ]
      ~wires:
        [ (w, `Expr (Rtl.Netlist.App (Ir.Op.Add, [ Rtl.Netlist.Ref a ], 4))) ]
      ~outputs:[ (sig_ "o" 4, Rtl.Netlist.Ref w) ]
      ()
  in
  let d = find_code "NET003" (Analyze.Net_lint.check nl) in
  check_severity "NET003 severity" Analyze.Diag.Error d

let test_net004_order_violation () =
  let a = sig_ "a" 4 in
  let w1 = sig_ "w1" 4 in
  let w2 = sig_ "w2" 4 in
  let nl =
    netlist ~inputs:[ a ]
      ~wires:
        [
          (* w1 reads w2, which is defined after it: simulate would read
             a stale value. *)
          (w1, `Expr (Rtl.Netlist.Ref w2));
          (w2, `Expr (Rtl.Netlist.Ref a));
        ]
      ~outputs:[ (sig_ "o" 4, Rtl.Netlist.Ref w1) ]
      ()
  in
  let d = find_code "NET004" (Analyze.Net_lint.check nl) in
  check_severity "NET004 severity" Analyze.Diag.Error d;
  Alcotest.(check (list string))
    "witness has both positions"
    [ "w1 at position 0"; "w2 at position 1" ]
    d.witness

let test_net005_dangling_wire () =
  let a = sig_ "a" 4 in
  let w = sig_ "w" 4 in
  let nl =
    netlist ~inputs:[ a ]
      ~wires:[ (w, `Expr (Rtl.Netlist.Ref a)) ]
      ~outputs:[ (sig_ "o" 4, Rtl.Netlist.Ref a) ]
      ()
  in
  let d = find_code "NET005" (Analyze.Net_lint.check nl) in
  check_severity "NET005 severity" Analyze.Diag.Warning d

let test_net006_width_mismatch () =
  let a = sig_ "a" 8 in
  let b = sig_ "b" 4 in
  let w = sig_ "w" 8 in
  let nl =
    netlist ~inputs:[ a; b ]
      ~wires:
        [
          ( w,
            `Expr
              (Rtl.Netlist.App
                 (Ir.Op.Add, [ Rtl.Netlist.Ref a; Rtl.Netlist.Ref b ], 8)) );
        ]
      ~outputs:[ (sig_ "o" 8, Rtl.Netlist.Ref w) ]
      ()
  in
  let d = find_code "NET006" (Analyze.Net_lint.check nl) in
  check_severity "NET006 severity" Analyze.Diag.Error d

(* A real emitted netlist is clean. *)
let test_net_clean_on_emitted () =
  let e = Benchmarks.Registry.find "GFMUL" in
  let g = e.build () in
  let device = Fpga.Device.make ~t_clk:e.t_clk () in
  let setup =
    { (Mams.Flow.default_setup ~device) with resources = e.resources }
  in
  match Mams.Flow.run setup Mams.Flow.Hls_tool g with
  | Error err -> Alcotest.failf "flow failed: %s" err
  | Ok r ->
      let nl = Rtl.Netlist.of_design g r.Mams.Flow.cover r.Mams.Flow.schedule in
      let diags = Analyze.Net_lint.check nl in
      Alcotest.(check (list string)) "no errors" []
        (List.map
           (fun (d : Analyze.Diag.t) -> d.message)
           (Analyze.Diag.errors diags))

(* ------------------------------------------------------------------ *)
(* certificate checker                                                 *)
(* ------------------------------------------------------------------ *)

let test_cert_classification () =
  let diags =
    Analyze.Cert.of_messages
      [
        "[Eq. 2-4] cover: bad";
        "[Eq. 7] n1->n2: produced after use";
        "[Eq. 8] n1: finish exceeds period";
        "[Eq. 9] n1->n2: chained arrival late";
        "[Eq. 14] resource dsp: over limit";
        "schedule size mismatch";
      ]
  in
  Alcotest.(check (list string))
    "codes"
    [ "CERT001"; "CERT002"; "CERT003"; "CERT004"; "CERT005"; "CERT000" ]
    (List.map (fun (d : Analyze.Diag.t) -> d.code) diags);
  List.iter (check_severity "all errors" Analyze.Diag.Error) diags

let test_cert_catches_corruption () =
  let e = Benchmarks.Registry.find "GFMUL" in
  let g = e.build () in
  let device = Fpga.Device.make ~t_clk:e.t_clk () in
  let setup =
    { (Mams.Flow.default_setup ~device) with resources = e.resources }
  in
  match Mams.Flow.run setup Mams.Flow.Hls_tool g with
  | Error err -> Alcotest.failf "flow failed: %s" err
  | Ok r ->
      let ctx =
        {
          Sched.Verify.device;
          delays = setup.Mams.Flow.delays;
          resources = setup.Mams.Flow.resources;
        }
      in
      let sched = r.Mams.Flow.schedule in
      Alcotest.(check (list string))
        "pristine result is clean" []
        (List.map
           (fun (d : Analyze.Diag.t) -> d.code)
           (Analyze.Cert.check ctx g r.Mams.Flow.cover sched));
      (* Push one root past the clock period: an Eq. 8 violation. *)
      let victim = List.hd (Ir.Cdfg.outputs g) in
      sched.Sched.Schedule.start.(victim) <- e.t_clk +. 5.0;
      let diags = Analyze.Cert.check ctx g r.Mams.Flow.cover sched in
      Alcotest.(check bool) "CERT003 raised" true (has_code "CERT003" diags)

(* ------------------------------------------------------------------ *)
(* engine: gate, registry, JSON                                        *)
(* ------------------------------------------------------------------ *)

let test_gate_blocks_errors () =
  let g = recurrence_graph () in
  let cfg = tight_cfg ~ii:1 in
  (match Analyze.Engine.static_gate cfg g with
  | Ok _ -> Alcotest.fail "gate let an infeasible II through"
  | Error diags ->
      Alcotest.(check bool) "has PRE001" true (has_code "PRE001" diags));
  match Analyze.Engine.static_gate { cfg with ii = 8 } g with
  | Error diags ->
      Alcotest.failf "gate blocked a feasible setup: %a" Analyze.Diag.pp_report
        diags
  | Ok diags ->
      (* The multi-cycle period warning is recorded, not gating. *)
      Alcotest.(check bool) "PRE003 recorded" true (has_code "PRE003" diags)

let test_flow_gate_integration () =
  let g = recurrence_graph () in
  let device = Fpga.Device.make ~t_clk:2.0 () in
  let setup = { (Mams.Flow.default_setup ~device) with ii = 1 } in
  match Mams.Flow.run setup Mams.Flow.Hls_tool g with
  | Ok _ -> Alcotest.fail "flow ran despite an infeasible II"
  | Error msg ->
      let contains sub =
        let n = String.length msg and m = String.length sub in
        let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "message names the gate" true
        (contains "lint gate" && contains "PRE001")

let test_registry_covers_codes () =
  let codes =
    List.concat_map
      (fun (p : Analyze.Engine.pass) -> List.map (fun (c, _, _) -> c) p.codes)
      Analyze.Engine.passes
  in
  Alcotest.(check bool) "at least 10 documented codes" true
    (List.length codes >= 10);
  let uniq = List.sort_uniq String.compare codes in
  Alcotest.(check int) "codes unique across passes" (List.length codes)
    (List.length uniq);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "audit pass documents %s" c)
        true (List.mem c codes))
    [ "CERT101"; "CERT102"; "CERT103"; "CERT104"; "CERT105"; "CERT106";
      "CERT107"; "CERT108" ];
  List.iter
    (fun (p : Analyze.Engine.pass) ->
      List.iter
        (fun (c, sev, d) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s descriptions non-empty" p.name)
            true
            (String.length d > 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s has a severity" c)
            true
            (List.exists
               (fun s -> String.starts_with ~prefix:(Analyze.Diag.severity_name s) sev)
               Analyze.Diag.[ Error; Warning; Info ]))
        p.codes)
    Analyze.Engine.passes

let test_diag_json_shape () =
  let d =
    Analyze.Diag.errorf ~code:"CDFG001" ~pass:"cdfg-lint"
      ~loc:(Analyze.Diag.Edge (3, 7))
      ~witness:[ "a"; "b"; "a" ] "cycle of %d nodes" 2
  in
  Alcotest.(check string) "one object, every field"
    {|{"severity": "error", "code": "CDFG001", "pass": "cdfg-lint", "loc": "edge:3->7", "message": "cycle of 2 nodes", "witness": ["a", "b", "a"]}|}
    (Obs.Json.to_string (Analyze.Diag.to_json d))

let test_report_file_shape () =
  let path = Filename.temp_file "lint" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let g = recurrence_graph () in
      let diags = Analyze.Cdfg_lint.check g in
      Analyze.Engine.write_file ~path ~entries:[ ("toy", diags) ];
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Obs.Json.of_string text with
      | Error e -> Alcotest.failf "unparseable report: %s" e
      | Ok json ->
          Alcotest.(check bool) "schema_version present" true
            (Obs.Json.member "schema_version" json
            = Some (Obs.Json.Int Obs.Metrics.schema_version));
          Alcotest.(check bool) "benchmarks present" true
            (match Obs.Json.member "benchmarks" json with
            | Some (Obs.Json.List (_ :: _)) -> true
            | _ -> false))

(* Every registry benchmark must be free of error-severity diagnostics
   under the default lint configuration — the CI gate's invariant. *)
let test_registry_benchmarks_clean () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let g = e.build () in
      let device = Fpga.Device.make ~t_clk:e.t_clk () in
      let cfg =
        {
          Analyze.Preflight.device;
          delays = Fpga.Delays.default;
          resources = e.resources;
          ii = 1;
        }
      in
      let diags =
        Analyze.Engine.check_cdfg g @ Analyze.Engine.preflight cfg g
      in
      Alcotest.(check (list string))
        (e.name ^ " has no error diagnostics")
        []
        (List.map
           (fun (d : Analyze.Diag.t) -> d.code ^ " " ^ d.message)
           (Analyze.Diag.errors diags)))
    Benchmarks.Registry.all

let () =
  Alcotest.run "analyze"
    [
      ( "cdfg-lint",
        [
          Alcotest.test_case "CDFG001 comb cycle" `Quick test_cdfg001_comb_cycle;
          Alcotest.test_case "CDFG002 black-box feedback" `Quick
            test_cdfg002_black_box_feedback;
          Alcotest.test_case "CDFG003 width violation" `Quick
            test_cdfg003_width_violation;
          Alcotest.test_case "CDFG004 dead node" `Quick test_cdfg004_dead_node;
          Alcotest.test_case "CDFG005 const cone" `Quick test_cdfg005_const_cone;
          Alcotest.test_case "CDFG006 malformed" `Quick test_cdfg006_malformed;
        ] );
      ( "preflight",
        [
          Alcotest.test_case "PRE001 RecMII" `Quick test_pre001_rec_mii;
          Alcotest.test_case "PRE002 ResMII" `Quick test_pre002_res_mii;
          Alcotest.test_case "PRE003 period" `Quick test_pre003_period;
          Alcotest.test_case "PRE004 zero budget" `Quick test_pre004_zero_budget;
        ] );
      ( "lp-lint",
        [
          Alcotest.test_case "LP001 infeasible empty row" `Quick
            test_lp001_infeasible_empty_row;
          Alcotest.test_case "LP002 vacuous empty row" `Quick
            test_lp002_vacuous_empty_row;
          Alcotest.test_case "LP003 duplicate rows" `Quick
            test_lp003_duplicate_rows;
          Alcotest.test_case "LP003 near rows differ" `Quick
            test_lp003_near_rows_differ;
          Alcotest.test_case "clean model forces no name" `Quick
            test_lp_clean_names_unforced;
          Alcotest.test_case "LP004 free column" `Quick test_lp004_free_column;
          Alcotest.test_case "LP005 integer bounds" `Quick
            test_lp005_integer_infeasible_bounds;
          Alcotest.test_case "report capping" `Quick test_lp_report_cap;
        ] );
      ( "net-lint",
        [
          Alcotest.test_case "NET001 undriven" `Quick test_net001_undriven;
          Alcotest.test_case "NET002 multiple drivers" `Quick
            test_net002_multiple_drivers;
          Alcotest.test_case "NET003 unconnected pin" `Quick
            test_net003_unconnected_pin;
          Alcotest.test_case "NET004 order violation" `Quick
            test_net004_order_violation;
          Alcotest.test_case "NET005 dangling wire" `Quick
            test_net005_dangling_wire;
          Alcotest.test_case "NET006 width mismatch" `Quick
            test_net006_width_mismatch;
          Alcotest.test_case "emitted netlist clean" `Quick
            test_net_clean_on_emitted;
        ] );
      ( "cert",
        [
          Alcotest.test_case "equation classification" `Quick
            test_cert_classification;
          Alcotest.test_case "catches corruption" `Quick
            test_cert_catches_corruption;
        ] );
      ( "engine",
        [
          Alcotest.test_case "gate blocks errors" `Quick test_gate_blocks_errors;
          Alcotest.test_case "flow gate integration" `Quick
            test_flow_gate_integration;
          Alcotest.test_case "registry covers codes" `Quick
            test_registry_covers_codes;
          Alcotest.test_case "diag JSON shape" `Quick test_diag_json_shape;
          Alcotest.test_case "report file shape" `Quick test_report_file_shape;
          Alcotest.test_case "registry benchmarks clean" `Quick
            test_registry_benchmarks_clean;
        ] );
    ]
