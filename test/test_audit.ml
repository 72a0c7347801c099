(* Exact-rational certificate audit (DESIGN.md Sec. 3h).

   Three layers: unit tests for the dyadic-rational core [Lp.Qd];
   positive end-to-end checks that proof-carrying solves of hand-built
   MILPs, kernel formulations and all nine registry benchmarks pass
   [Analyze.Audit] at 1, 2 and 4 worker domains; and negative checks
   that hand-corrupted certificates (wrong duals, truncated pruning
   log, stale incumbent, broken Farkas ray, broken branch arithmetic,
   fractional incumbent) each trip their designated CERT code. *)

let qd = Alcotest.testable Lp.Qd.pp Lp.Qd.equal

(* --- Qd: exact dyadic rationals ------------------------------------- *)

let test_qd_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "of_float/to_float roundtrip %h" f)
        f
        (Lp.Qd.to_float (Lp.Qd.of_float f)))
    [ 0.0; 1.0; -1.0; 0.1; -0.3; 1e-300; 1e300; Float.ldexp 1.0 1000;
      Float.ldexp 1.0 (-1000); 4503599627370497.0 (* 2^52 + 1 *) ]

let test_qd_nonfinite () =
  List.iter
    (fun f ->
      let raised =
        try
          ignore (Lp.Qd.of_float f);
          false
        with Invalid_argument _ -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "of_float %h raises" f)
        true raised)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_qd_ring () =
  let q = Lp.Qd.of_float in
  let i = Lp.Qd.of_int in
  Alcotest.check qd "0.5 + 0.25 = 0.75" (q 0.75) (Lp.Qd.add (q 0.5) (q 0.25));
  Alcotest.check qd "0.5 * 2 = 1" (i 1) (Lp.Qd.mul (q 0.5) (i 2));
  Alcotest.check qd "a - a = 0" Lp.Qd.zero (Lp.Qd.sub (q 0.1) (q 0.1));
  Alcotest.check qd "neg (neg a) = a" (q 0.3) (Lp.Qd.neg (Lp.Qd.neg (q 0.3)));
  (* mixed-exponent sums that a float accumulator would round away *)
  let big = q (Float.ldexp 1.0 80) and tiny = q (Float.ldexp 1.0 (-80)) in
  let s = Lp.Qd.add (Lp.Qd.sub big big) tiny in
  Alcotest.check qd "(big - big) + tiny = tiny exactly" tiny s;
  (* the arithmetic is exact, so the float-lore identity 0.1 + 0.2 = 0.3
     must *fail*: the dyadic values really differ *)
  Alcotest.(check bool)
    "0.1 + 0.2 <> 0.3 in exact arithmetic" false
    (Lp.Qd.equal (Lp.Qd.add (q 0.1) (q 0.2)) (q 0.3));
  Alcotest.check qd "sum 0..3 = 6" (i 6) (Lp.Qd.sum 4 i)

let test_qd_order () =
  let q = Lp.Qd.of_float in
  Alcotest.(check bool) "0.1 < 0.2" true (Lp.Qd.lt (q 0.1) (q 0.2));
  Alcotest.(check bool) "-3 <= -3" true (Lp.Qd.leq (q (-3.0)) (q (-3.0)));
  Alcotest.(check bool) "2^60 >= 2^59" true
    (Lp.Qd.geq (q (Float.ldexp 1.0 60)) (q (Float.ldexp 1.0 59)));
  Alcotest.(check int) "sign -0.5" (-1) (Lp.Qd.sign (q (-0.5)));
  Alcotest.(check bool) "is_zero (0.1 - 0.1)" true
    (Lp.Qd.is_zero (Lp.Qd.sub (q 0.1) (q 0.1)));
  Alcotest.check qd "min picks smaller" (q 0.25) (Lp.Qd.min (q 0.5) (q 0.25))

let test_qd_integer () =
  let q = Lp.Qd.of_float in
  Alcotest.(check bool) "3.0 integral" true (Lp.Qd.is_integer (q 3.0));
  Alcotest.(check bool) "2.5 not integral" false (Lp.Qd.is_integer (q 2.5));
  Alcotest.(check bool) "2^60 integral" true
    (Lp.Qd.is_integer (q (Float.ldexp 1.0 60)));
  Alcotest.(check bool) "2^-3 not integral" false
    (Lp.Qd.is_integer (q 0.125));
  Alcotest.(check bool) "0 integral" true (Lp.Qd.is_integer Lp.Qd.zero)

(* --- positive audits: hand-built MILPs ------------------------------ *)

let knapsack () =
  let values = [| 10.0; 13.0; 7.0; 8.0; 5.0; 9.0 |] in
  let weights = [| 5.0; 6.0; 3.0; 4.0; 2.0; 5.0 |] in
  let m = Lp.Model.create () in
  let xs =
    Array.mapi (fun i _ -> Lp.Model.bool_var m (Printf.sprintf "x%d" i)) values
  in
  Lp.Model.add_le m
    (Array.to_list (Array.mapi (fun i x -> (weights.(i), x)) xs))
    12.0;
  Lp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (-.values.(i), x)) xs));
  m

let symmetric_cover () =
  let m = Lp.Model.create () in
  let xs = Array.init 6 (fun i -> Lp.Model.bool_var m (Printf.sprintf "s%d" i)) in
  Lp.Model.add_eq m (Array.to_list (Array.map (fun x -> (1.0, x)) xs)) 3.0;
  Lp.Model.set_objective m (Array.to_list (Array.map (fun x -> (1.0, x)) xs));
  m

let general_integer () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~integer:true ~ub:10.0 "x" in
  let y = Lp.Model.add_var m ~integer:true ~ub:10.0 "y" in
  let z = Lp.Model.add_var m ~integer:true ~ub:10.0 "z" in
  Lp.Model.add_le m [ (2.0, x); (3.0, y); (1.0, z) ] 12.0;
  Lp.Model.add_ge m [ (1.0, x); (1.0, y) ] 2.0;
  Lp.Model.set_objective m [ (-3.0, x); (-5.0, y); (-1.0, z) ];
  m

let infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.bool_var m "x" in
  let y = Lp.Model.bool_var m "y" in
  Lp.Model.add_ge m [ (1.0, x); (1.0, y) ] 3.0;
  Lp.Model.set_objective m [ (1.0, x); (1.0, y) ];
  m

(* mixed-sense pure LP (no integers): the solve is a single integral
   root node, so a clean audit pins down the Le/Ge/Eq dual sign
   conventions of the extraction in [Simplex.duals] *)
let mixed_sense_lp () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:5.0 "x" in
  let y = Lp.Model.add_var m ~ub:5.0 "y" in
  Lp.Model.add_ge m [ (1.0, x); (1.0, y) ] 2.0;
  Lp.Model.add_eq m [ (1.0, x); (-1.0, y) ] 0.0;
  Lp.Model.add_le m [ (3.0, x); (1.0, y) ] 12.0;
  Lp.Model.set_objective m [ (1.0, x); (2.0, y) ];
  m

let infeasible_lp () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:10.0 "x" in
  Lp.Model.add_ge m [ (1.0, x) ] 3.0;
  Lp.Model.add_le m [ (1.0, x) ] 1.0;
  Lp.Model.set_objective m [ (1.0, x) ];
  m

let dom_counts = [ 1; 2; 4 ]

(* Solve [build ()] proof-carrying at every domain count and demand a
   clean exact-rational audit. [build] must return a fresh model each
   call ([Lp.Model.t] is consumed by the solve). *)
let check_audit_clean ?(time_limit = 30.0) name build =
  List.iter
    (fun d ->
      let m = build () in
      let raw = Lp.Model.to_raw m in
      let r = Lp.Milp.solve ~time_limit ~domains:d ~certificates:true m in
      match r.Lp.Milp.cert with
      | None -> Alcotest.failf "%s @ %d domains: solve carried no certificate" name d
      | Some cert ->
          let diags = Analyze.Audit.check raw cert in
          if Analyze.Diag.has_errors diags then
            Alcotest.failf "%s @ %d domains: audit found errors:@.%a" name d
              Analyze.Diag.pp_report
              (Analyze.Diag.errors diags))
    dom_counts

let test_audit_knapsack () = check_audit_clean "knapsack" knapsack
let test_audit_symmetric () = check_audit_clean "symmetric cover" symmetric_cover
let test_audit_general () = check_audit_clean "general integer" general_integer
let test_audit_infeasible () = check_audit_clean "infeasible" infeasible
let test_audit_lp_duals () = check_audit_clean "mixed-sense LP" mixed_sense_lp
let test_audit_lp_farkas () = check_audit_clean "infeasible LP" infeasible_lp

(* --- positive audits: kernel formulations --------------------------- *)

let device = Fpga.Device.make ~t_clk:10.0 ()
let delays = Fpga.Delays.default

let kernel_model ?(mapped = false) build () =
  let g = build () in
  let cfg : Mams.Formulation.config =
    {
      device;
      delays;
      resources = Fpga.Resource.unlimited;
      ii = 1;
      max_latency = 6;
      alpha = 0.5;
      beta = 0.5;
      cut_delay =
        (if mapped then Mams.Formulation.mapped_delay ~device ~delays
         else Mams.Formulation.additive_delay ~delays);
    }
  in
  let cuts = if mapped then Cuts.enumerate ~k:4 g else Cuts.trivial_only g in
  let f = Mams.Formulation.build cfg g cuts in
  Mams.Formulation.model f

let small_recurrence () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let cell = Ir.Builder.feedback b ~width:4 ~init:0L ~dist:1 in
  let t1 = Ir.Builder.xor_ b x cell in
  let t2 = Ir.Builder.not_ b t1 in
  Ir.Builder.drive b ~cell t1;
  Ir.Builder.output b t2;
  Ir.Builder.finish b

let test_audit_kernel_recurrence () =
  check_audit_clean "recurrence formulation"
    (kernel_model ~mapped:true small_recurrence)

let test_audit_kernel_clz () =
  check_audit_clean "CLZ formulation"
    (kernel_model ~mapped:true (fun () -> Benchmarks.Clz.build ~width:4 ()))

let test_audit_kernel_rs () =
  check_audit_clean "RS kernel formulation"
    (kernel_model (fun () -> Benchmarks.Rs.kernel ~width:2 ()))

(* --- positive audits: the full registry through the flow ------------ *)

(* Every Table 1 benchmark, MILP-map flow with [audit = true], at 1 and
   4 worker domains (the CI gate's matrix): the flow must succeed, the
   solve must carry a certificate, and the audit must come back clean.
   The budget is short — a budget-truncated [Feasible] certificate is
   still a complete per-node proof and must audit clean too. *)
let test_registry_audit () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let g = e.build () in
      List.iter
        (fun d ->
          let setup =
            {
              (Mams.Flow.default_setup
                 ~device:(Fpga.Device.make ~t_clk:e.t_clk ()))
              with
              Mams.Flow.resources = e.resources;
              time_limit = 2.0;
              domains = Some d;
              audit = true;
            }
          in
          match Mams.Flow.run setup Mams.Flow.Milp_map g with
          | Error msg ->
              Alcotest.failf "%s @ %d domains: flow failed: %s" e.name d msg
          | Ok r -> (
              match r.Mams.Flow.solve.Mams.Flow.audit_diags with
              | None ->
                  Alcotest.failf "%s @ %d domains: no certificate was audited"
                    e.name d
              | Some diags ->
                  if Analyze.Diag.has_errors diags then
                    Alcotest.failf "%s @ %d domains: audit found errors:@.%a"
                      e.name d Analyze.Diag.pp_report
                      (Analyze.Diag.errors diags);
                  Alcotest.(check (option int))
                    (Printf.sprintf "%s @ %d domains: metrics.audit_errors"
                       e.name d)
                    (Some 0) r.Mams.Flow.metrics.Obs.Metrics.audit_errors))
        [ 1; 4 ])
    Benchmarks.Registry.all

(* --- negative audits: hand-corrupted certificates ------------------- *)

(* One reference proof-carrying solve whose certificate the corruption
   tests mutate. The solve is deterministic, so computing it once keeps
   the negative cases cheap. *)
let solved_knapsack =
  lazy
    (let m = knapsack () in
     let raw = Lp.Model.to_raw m in
     let r = Lp.Milp.solve ~time_limit:30.0 ~certificates:true m in
     match (r.Lp.Milp.status, r.Lp.Milp.cert) with
     | Lp.Milp.Optimal, Some cert -> (raw, cert)
     | _ -> Alcotest.fail "knapsack reference solve did not produce a certificate")

let codes diags =
  List.sort_uniq String.compare
    (List.map (fun (d : Analyze.Diag.t) -> d.Analyze.Diag.code)
       (Analyze.Diag.errors diags))

let expect_code name code diags =
  if not (List.mem code (codes diags)) then
    Alcotest.failf "%s: expected %s, audit reported [%s]" name code
      (String.concat "; " (codes diags))

let expect_clean_reference () =
  let raw, cert = Lazy.force solved_knapsack in
  let diags = Analyze.Audit.check raw cert in
  if Analyze.Diag.has_errors diags then
    Alcotest.failf "reference certificate must audit clean:@.%a"
      Analyze.Diag.pp_report
      (Analyze.Diag.errors diags)

let map_nodes f (cert : Lp.Cert.t) = { cert with Lp.Cert.nodes = List.map f cert.Lp.Cert.nodes }

let test_corrupt_duals () =
  expect_clean_reference ();
  let raw, cert = Lazy.force solved_knapsack in
  (* zero out the root node's dual vector: the Neumaier–Shcherbina bound
     collapses to the box minimum of the objective, far below the
     claimed LP optimum *)
  let corrupted =
    map_nodes
      (fun (n : Lp.Cert.node) ->
        match (n.Lp.Cert.id, n.Lp.Cert.claim) with
        | 0, Lp.Cert.Lp_optimal { obj; duals } ->
            {
              n with
              Lp.Cert.claim =
                Lp.Cert.Lp_optimal
                  { obj; duals = Array.map (fun _ -> 0.0) duals };
            }
        | _ -> n)
      cert
  in
  expect_code "corrupted dual" "CERT103" (Analyze.Audit.check raw corrupted)

let test_truncated_log () =
  let raw, cert = Lazy.force solved_knapsack in
  (* drop a branched interior node: its recorded children now reference
     a parent that is missing from the log *)
  let victim =
    match
      List.find_opt
        (fun (n : Lp.Cert.node) ->
          match n.Lp.Cert.fathom with Lp.Cert.F_branched _ -> true | _ -> false)
        cert.Lp.Cert.nodes
    with
    | Some n -> n.Lp.Cert.id
    | None -> Alcotest.fail "reference solve never branched"
  in
  let corrupted =
    {
      cert with
      Lp.Cert.nodes =
        List.filter
          (fun (n : Lp.Cert.node) -> n.Lp.Cert.id <> victim)
          cert.Lp.Cert.nodes;
    }
  in
  expect_code "truncated pruning log" "CERT101" (Analyze.Audit.check raw corrupted)

let test_stale_incumbent () =
  let raw, cert = Lazy.force solved_knapsack in
  (* claim a better final objective than any incumbent the log ever
     accepted — the race oracle must notice the phantom improvement *)
  let corrupted = { cert with Lp.Cert.objective = cert.Lp.Cert.objective -. 1.0 } in
  expect_code "stale incumbent" "CERT107" (Analyze.Audit.check raw corrupted)

let test_fractional_incumbent () =
  let raw, cert = Lazy.force solved_knapsack in
  let corrupted =
    match cert.Lp.Cert.incumbent with
    | None -> Alcotest.fail "reference solve carried no incumbent"
    | Some x ->
        let x = Array.copy x in
        x.(0) <- 0.5;
        { cert with Lp.Cert.incumbent = Some x }
  in
  expect_code "fractional incumbent" "CERT102" (Analyze.Audit.check raw corrupted)

let test_broken_branch_arith () =
  let raw, cert = Lazy.force solved_knapsack in
  (* shift one branch's up-child lower bound: the down/up edits no
     longer partition the parent box ([up_lb = down_ub + 1]) *)
  let corrupted =
    map_nodes
      (fun (n : Lp.Cert.node) ->
        match n.Lp.Cert.fathom with
        | Lp.Cert.F_branched { bvar; down_id; down_ub; up_id; up_lb } ->
            {
              n with
              Lp.Cert.fathom =
                Lp.Cert.F_branched
                  { bvar; down_id; down_ub; up_id; up_lb = up_lb +. 1.0 };
            }
        | _ -> n)
      cert
  in
  expect_code "broken branch arithmetic" "CERT106"
    (Analyze.Audit.check raw corrupted)

let test_corrupt_farkas () =
  let m = infeasible () in
  let raw = Lp.Model.to_raw m in
  let r = Lp.Milp.solve ~time_limit:30.0 ~certificates:true m in
  match (r.Lp.Milp.status, r.Lp.Milp.cert) with
  | Lp.Milp.Infeasible, Some cert ->
      let clean = Analyze.Audit.check raw cert in
      if Analyze.Diag.has_errors clean then
        Alcotest.failf "infeasibility certificate must audit clean:@.%a"
          Analyze.Diag.pp_report (Analyze.Diag.errors clean);
      let corrupted =
        map_nodes
          (fun (n : Lp.Cert.node) ->
            match n.Lp.Cert.claim with
            | Lp.Cert.Lp_infeasible (Some (Lp.Cert.Ray ray)) ->
                {
                  n with
                  Lp.Cert.claim =
                    Lp.Cert.Lp_infeasible
                      (Some (Lp.Cert.Ray (Array.map (fun _ -> 0.0) ray)));
                }
            | _ -> n)
          cert
      in
      expect_code "corrupted Farkas ray" "CERT104"
        (Analyze.Audit.check raw corrupted)
  | s, _ ->
      Alcotest.failf "infeasible model solved to %a" Lp.Milp.pp_status s

(* --- negative audits: corrupted cut and tightening evidence ---------- *)

(* The reference knapsack row is weights = (5, 6, 3, 4, 2, 5) <= 12 over
   binaries. Hand-derive evidence against it so the corruptions are
   exactly one step away from valid. *)

(* CG from lambda = 0.5 on row 0: exact aggregation (2.5, 3, 1.5, 2, 1,
   2.5) <= 6; flooring each coefficient charges the change to the lower
   bound 0, so (2, 3, 1, 2, 1, 2) <= 6 passes the CERT109 replay. *)
let hand_cg_cut rhs : Lp.Cert.cut =
  {
    Lp.Cert.cut_terms =
      [| (0, 2.0); (1, 3.0); (2, 1.0); (3, 2.0); (4, 1.0); (5, 2.0) |];
    cut_rhs = rhs;
    cut_deriv = Lp.Cert.Cg [| (0, 0.5) |];
  }

(* Members {0, 1, 2} weigh 5 + 6 + 3 = 14 > 12: a genuine cover, so
   x0 + x1 + x2 <= 2 passes the CERT110 replay. *)
let hand_cover_cut ?(members = [| 0; 1; 2 |]) rhs : Lp.Cert.cut =
  {
    Lp.Cert.cut_terms = Array.map (fun j -> (j, 1.0)) members;
    cut_rhs = rhs;
    cut_deriv = Lp.Cert.Cover { c_row = 0; members };
  }

(* Swap in a hand-built cut list and collect only the cut/tighten codes:
   the solver's node duals were recorded over the unextended row system,
   so folding extra cut rows in legitimately perturbs the node checks —
   those codes are not under test here. *)
let cut_codes cuts =
  let raw, cert = Lazy.force solved_knapsack in
  let diags = Analyze.Audit.check raw { cert with Lp.Cert.cuts } in
  List.filter (fun c -> c = "CERT109" || c = "CERT110") (codes diags)

let test_cut_cg_validity () =
  Alcotest.(check (list string)) "valid CG derivation accepted" []
    (cut_codes [ hand_cg_cut 6.0 ]);
  (* rounding the rhs below the exact aggregation claims a tighter
     inequality than Chvatal-Gomory yields *)
  Alcotest.(check (list string)) "over-rounded rhs rejected" [ "CERT109" ]
    (cut_codes [ hand_cg_cut 5.0 ]);
  (* inflating a coefficient makes the deviation charge positive:
     2 -> 4 on x0 shifts t' to 6 + 1.5 = 7.5 > rhs 6 *)
  let inflated = hand_cg_cut 6.0 in
  let terms = Array.copy inflated.Lp.Cert.cut_terms in
  terms.(0) <- (0, 4.0);
  Alcotest.(check (list string)) "inflated coefficient rejected" [ "CERT109" ]
    (cut_codes [ { inflated with Lp.Cert.cut_terms = terms } ])

let test_cut_cover_validity () =
  Alcotest.(check (list string)) "valid cover accepted" []
    (cut_codes [ hand_cover_cut 2.0 ]);
  (* rhs must be exactly |members| - 1 *)
  Alcotest.(check (list string)) "tightened cover rhs rejected" [ "CERT110" ]
    (cut_codes [ hand_cover_cut 1.0 ]);
  (* members {2, 4} weigh 3 + 2 = 5 <= 12: not a cover at all *)
  Alcotest.(check (list string)) "non-cover members rejected" [ "CERT110" ]
    (cut_codes [ hand_cover_cut ~members:[| 2; 4 |] 1.0 ])

let test_corrupt_tighten () =
  expect_clean_reference ();
  let raw, cert = Lazy.force solved_knapsack in
  (* fabricate a tightening the knapsack row cannot imply: x0 <= 0
     claims item 0 never fits, but weight 5 <= rhs 12 *)
  let bogus =
    { Lp.Cert.t_var = 0; t_hi = true; t_new = 0.0; t_row = 0 }
  in
  expect_code "fabricated tightening" "CERT111"
    (Analyze.Audit.check raw { cert with Lp.Cert.presolve = [ bogus ] })

let test_missing_certificate () =
  let m = knapsack () in
  let r = Lp.Milp.solve ~time_limit:30.0 m in
  let diags = Analyze.Audit.check_result m r in
  expect_code "certificate absent" "CERT101" diags

let () =
  Alcotest.run "audit"
    [
      ( "qd",
        [
          Alcotest.test_case "roundtrip" `Quick test_qd_roundtrip;
          Alcotest.test_case "non-finite rejected" `Quick test_qd_nonfinite;
          Alcotest.test_case "ring ops exact" `Quick test_qd_ring;
          Alcotest.test_case "ordering" `Quick test_qd_order;
          Alcotest.test_case "integrality" `Quick test_qd_integer;
        ] );
      ( "positive",
        [
          Alcotest.test_case "knapsack" `Quick test_audit_knapsack;
          Alcotest.test_case "symmetric cover" `Quick test_audit_symmetric;
          Alcotest.test_case "general integer" `Quick test_audit_general;
          Alcotest.test_case "infeasible MILP" `Quick test_audit_infeasible;
          Alcotest.test_case "mixed-sense LP duals" `Quick test_audit_lp_duals;
          Alcotest.test_case "infeasible LP Farkas" `Quick test_audit_lp_farkas;
          Alcotest.test_case "recurrence kernel" `Quick test_audit_kernel_recurrence;
          Alcotest.test_case "CLZ kernel" `Quick test_audit_kernel_clz;
          Alcotest.test_case "RS kernel" `Quick test_audit_kernel_rs;
        ] );
      ( "registry",
        [ Alcotest.test_case "all benchmarks, 1 and 4 domains" `Slow test_registry_audit ] );
      ( "negative",
        [
          Alcotest.test_case "corrupted dual -> CERT103" `Quick test_corrupt_duals;
          Alcotest.test_case "truncated log -> CERT101" `Quick test_truncated_log;
          Alcotest.test_case "stale incumbent -> CERT107" `Quick test_stale_incumbent;
          Alcotest.test_case "fractional incumbent -> CERT102" `Quick
            test_fractional_incumbent;
          Alcotest.test_case "broken branch arithmetic -> CERT106" `Quick
            test_broken_branch_arith;
          Alcotest.test_case "corrupted Farkas -> CERT104" `Quick test_corrupt_farkas;
          Alcotest.test_case "missing certificate -> CERT101" `Quick
            test_missing_certificate;
          Alcotest.test_case "cut CG validity -> CERT109" `Quick
            test_cut_cg_validity;
          Alcotest.test_case "cut cover validity -> CERT110" `Quick
            test_cut_cover_validity;
          Alcotest.test_case "fabricated tightening -> CERT111" `Quick
            test_corrupt_tighten;
        ] );
    ]
