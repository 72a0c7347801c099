(* Cross-validation of the two MILP formulations: the default compact
   lifetime form and the paper-exact Eq. 2-15 form must agree on optimal
   register counts, and both must produce schedules that pass the
   independent verifier. *)

let device = Fpga.Device.make ~t_clk:10.0 ()
let delays = Fpga.Delays.default

let base_cfg ?(ii = 1) ?(max_latency = 6) ?(mapped = false) () :
    Mams.Formulation.config =
  {
    device;
    delays;
    resources = Fpga.Resource.unlimited;
    ii;
    max_latency;
    alpha = 0.5;
    beta = 0.5;
    cut_delay =
      (if mapped then Mams.Formulation.mapped_delay ~device ~delays
       else Mams.Formulation.additive_delay ~delays);
  }

let small_recurrence () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let cell = Ir.Builder.feedback b ~width:4 ~init:0L ~dist:1 in
  let t1 = Ir.Builder.xor_ b x cell in
  let t2 = Ir.Builder.not_ b t1 in
  Ir.Builder.drive b ~cell t1;
  Ir.Builder.output b t2;
  Ir.Builder.finish b

let deep_chain () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let y = Ir.Builder.input b ~width:4 "y" in
  let rec chain i acc =
    if i = 0 then acc else chain (i - 1) (Ir.Builder.xor_ b acc y)
  in
  Ir.Builder.output b (chain 9 x);
  Ir.Builder.finish b

let solve_compact cfg g cuts =
  let f = Mams.Formulation.build cfg g cuts in
  let r = Lp.Milp.solve ~time_limit:60.0 (Mams.Formulation.model f) in
  Alcotest.(check bool) "compact optimal" true (r.Lp.Milp.status = Lp.Milp.Optimal);
  (Mams.Formulation.extract f r, r)

let solve_exact cfg g cuts =
  let f = Mams.Formulation_exact.build cfg g cuts in
  let r = Lp.Milp.solve ~time_limit:120.0 (Mams.Formulation_exact.model f) in
  Alcotest.(check bool) "exact optimal" true (r.Lp.Milp.status = Lp.Milp.Optimal);
  (Mams.Formulation_exact.extract f r, r, f)

let ffs g (sched, cover) =
  Sched.Qor.ff_bits g cover sched ~device ~delays

let verify g (sched, cover) =
  let ctx : Sched.Verify.context =
    { device; delays; resources = Fpga.Resource.unlimited }
  in
  match Sched.Verify.check ctx g cover sched with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "illegal: %s" (String.concat "; " msgs)

let check_equal_ffs name g =
  let cuts = Cuts.trivial_only g in
  let cfg = base_cfg () in
  let compact, _ = solve_compact cfg g cuts in
  let exact, _, _ = solve_exact cfg g cuts in
  verify g compact;
  verify g exact;
  Alcotest.(check int) (name ^ ": same optimal FF count") (ffs g exact)
    (ffs g compact)

let test_equiv_recurrence () = check_equal_ffs "recurrence" (small_recurrence ())
let test_equiv_chain () = check_equal_ffs "chain" (deep_chain ())

let test_equiv_rs_kernel () =
  check_equal_ffs "rs kernel" (Benchmarks.Rs.kernel ~width:2 ())

let test_exact_map_legal () =
  (* The paper-exact mapping-aware MILP on the Figure 1 kernel. Its LP
     relaxation is weak (the A1 ablation), so accept the best feasible
     solution within the budget — the paper's own protocol. *)
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let cuts = Cuts.enumerate ~k:4 g in
  let cfg = base_cfg ~mapped:true () in
  let f0 = Mams.Formulation_exact.build cfg g cuts in
  let r0 =
    Lp.Milp.solve ~time_limit:30.0 (Mams.Formulation_exact.model f0)
  in
  Alcotest.(check bool) "found a solution" true
    (match r0.Lp.Milp.status with
    | Lp.Milp.Optimal | Lp.Milp.Feasible -> true
    | Lp.Milp.Infeasible | Lp.Milp.Unbounded | Lp.Milp.Unknown -> false);
  let exact, r, f = (Mams.Formulation_exact.extract f0 r0, r0, f0) in
  verify g exact;
  let lut_bits = ref 0 and reg_bits = ref 0 in
  Mams.Formulation_exact.objective_breakdown f r ~lut_bits ~reg_bits;
  Alcotest.(check bool) "some LUT bits" true (!lut_bits > 0);
  (* the recurrence register survives: at least 2 live bit-cycles *)
  Alcotest.(check bool) "register bits counted" true (!reg_bits >= 2)

let test_exact_is_larger () =
  (* Ablation A1 sanity: the exact formulation is strictly bigger. *)
  let g = Benchmarks.Rs.kernel ~width:4 () in
  let cuts = Cuts.enumerate ~k:4 g in
  let cfg = base_cfg ~mapped:true () in
  let fc = Mams.Formulation.build cfg g cuts in
  let fe = Mams.Formulation_exact.build cfg g cuts in
  let vars m = Lp.Model.num_vars m and rows m = Lp.Model.num_constraints m in
  Alcotest.(check bool) "more variables" true
    (vars (Mams.Formulation_exact.model fe) > vars (Mams.Formulation.model fc));
  Alcotest.(check bool) "more constraints" true
    (rows (Mams.Formulation_exact.model fe) > rows (Mams.Formulation.model fc))

let test_incumbents_feasible_everywhere () =
  (* The warm-start construction must be accepted by Model.check for every
     benchmark: this guards the whole constraint system against drift. *)
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let g = e.build () in
      let device = Fpga.Device.make ~t_clk:e.t_clk () in
      match
        Sched.Heuristic.schedule ~device ~delays ~resources:e.resources ~ii:1 g
      with
      | Error err -> Alcotest.failf "%s: %a" e.name Sched.Heuristic.pp_error err
      | Ok sched ->
          let cuts = Cuts.trivial_only g in
          let cover = Sched.Cover.all_trivial g cuts in
          let cfg =
            {
              (base_cfg ~max_latency:(Sched.Schedule.latency sched) ()) with
              device;
              resources = e.resources;
            }
          in
          let f = Mams.Formulation.build cfg g cuts in
          let x = Mams.Formulation.incumbent_of_schedule f sched cover in
          (match
             Lp.Model.check (Mams.Formulation.model f)
               ~values:(fun v -> x.(Lp.Model.var_index v))
               ()
           with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: incumbent rejected: %s" e.name msg))
    Benchmarks.Registry.all

let test_branch_priorities_shape () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let cuts = Cuts.enumerate ~k:4 g in
  let f = Mams.Formulation.build (base_cfg ~mapped:true ()) g cuts in
  let p = Mams.Formulation.branch_priorities f in
  Alcotest.(check int) "covers all variables"
    (Lp.Model.num_vars (Mams.Formulation.model f))
    (Array.length p);
  Alcotest.(check bool) "has prioritized classes" true
    (Array.exists (fun x -> x = 3) p && Array.exists (fun x -> x = 1) p)

(* The perfbench `suite' jobs: MILP-base on the nine kernels, MILP-map
   on five, under the registry setup. *)
let suite_kernels = [ "CLZ"; "XORR"; "GFMUL"; "CORDIC"; "MT"; "AES"; "RS"; "DR"; "GSM" ]

let suite_problem m name =
  let e = Benchmarks.Registry.find name in
  let s =
    { (Mams.Flow.default_setup ~device:(Fpga.Device.make ~t_clk:e.t_clk ()))
      with resources = e.resources }
  in
  let g = e.build () in
  match Mams.Flow.problem s m g with
  | Ok p -> (p, g)
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* Every bit of a model: bounds, integrality, objective, each row's
   sense, rhs and terms (floats as [%h]), and every variable and row
   name. *)
let model_text m =
  let b = Buffer.create 65536 in
  let raw = Lp.Model.to_raw m in
  for v = 0 to raw.n - 1 do
    Printf.bprintf b "v %s %h %h %b %h\n"
      (Lp.Model.var_name m (Lp.Model.var_of_index m v))
      raw.lb.(v) raw.ub.(v) raw.integer.(v) raw.obj.(v)
  done;
  let names = Lp.Model.rows m in
  Array.iteri
    (fun i terms ->
      let name, _, _, _ = names.(i) in
      Printf.bprintf b "r %s %s %h"
        (match name with Some n -> Lazy.force n | None -> "-")
        (match raw.senses.(i) with Lp.Model.Le -> "<=" | Ge -> ">=" | Eq -> "=")
        raw.rhs.(i);
      Array.iter (fun (v, c) -> Printf.bprintf b " %d:%h" v c) terms;
      Buffer.add_char b '\n')
    raw.rows;
  Buffer.contents b

let test_model_identity () =
  let compact m name =
    Mams.Formulation.model (fst (suite_problem m name)).formulation
  in
  let exact name =
    let p, g = suite_problem Mams.Flow.Milp_base name in
    Mams.Formulation_exact.model (Mams.Formulation_exact.build p.config g p.cuts)
  in
  let models =
    List.map (fun k -> ("base/" ^ k, compact Mams.Flow.Milp_base k)) suite_kernels
    @ List.map
        (fun k -> ("map/" ^ k, compact Mams.Flow.Milp_map k))
        [ "GFMUL"; "CORDIC"; "DR"; "RS"; "GSM" ]
    @ List.map (fun k -> ("exact/" ^ k, exact k)) suite_kernels
  in
  let text =
    String.concat ""
      (List.map (fun (label, m) -> label ^ "\n" ^ model_text m) models)
  in
  Alcotest.(check string) "model digest" "afe67922f61da3f4a4853b87e907a4dc"
    (Digest.to_hex (Digest.string text))

(* A leaf that enters two cuts of one node at different distances, so the
   node's distance-merged rows ([regdep], [life]) come in groups of two
   keys: none of the suite models has such a pair. *)
let two_distances () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let c1 = Ir.Builder.feedback b ~width:4 ~init:0L ~dist:1 in
  let c2 = Ir.Builder.feedback b ~width:4 ~init:0L ~dist:2 in
  let v = Ir.Builder.xor_ b (Ir.Builder.not_ b c1) (Ir.Builder.not_ b c2) in
  let t = Ir.Builder.xor_ b x v in
  Ir.Builder.drive b ~cell:c1 t;
  Ir.Builder.drive b ~cell:c2 t;
  Ir.Builder.output b v;
  Ir.Builder.finish b

let test_two_distances_identity () =
  let g = two_distances () in
  let f = Mams.Formulation.build (base_cfg ~mapped:true ()) g (Cuts.enumerate ~k:4 g) in
  Alcotest.(check string) "model digest" "a166c353bea90fc379c0d017eb658b64"
    (Digest.to_hex (Digest.string (model_text (Mams.Formulation.model f))))

let () =
  Alcotest.run "formulation"
    [
      ( "equivalence",
        [
          Alcotest.test_case "recurrence" `Quick test_equiv_recurrence;
          Alcotest.test_case "deep chain" `Slow test_equiv_chain;
          Alcotest.test_case "rs kernel" `Slow test_equiv_rs_kernel;
        ] );
      ( "exact",
        [
          Alcotest.test_case "map legal" `Slow test_exact_map_legal;
          Alcotest.test_case "exact larger" `Quick test_exact_is_larger;
        ] );
      ( "compact",
        [
          Alcotest.test_case "incumbents feasible" `Quick
            test_incumbents_feasible_everywhere;
          Alcotest.test_case "branch priorities" `Quick
            test_branch_priorities_shape;
        ] );
      ( "model identity",
        [
          Alcotest.test_case "suite and exact models" `Quick test_model_identity;
          Alcotest.test_case "two-distance leaves" `Quick
            test_two_distances_identity;
        ] );
    ]
