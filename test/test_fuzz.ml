(* Fuzzing: random word-level CDFGs pushed through the complete synthesis
   flows. Every generated graph must (a) validate, (b) simulate, (c) be
   schedulable by the heuristic, SDC and map-first flows with verified
   results, and (d) produce an RTL netlist whose cycle-accurate simulation
   matches the dataflow semantics. *)

type gen_state = {
  b : Ir.Builder.t;
  mutable pool : (int * Ir.Builder.value) list;  (* width, node value *)
  mutable consumed : Ir.Builder.value list;
  mutable rng : int;
}

let rand st bound =
  (* xorshift-ish deterministic PRNG so failures replay *)
  let x = st.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  st.rng <- x land max_int;
  st.rng mod max 1 bound

let widths = [| 1; 2; 4; 8 |]

let pick_of_width st w =
  let candidates = List.filter (fun (w', _) -> w' = w) st.pool in
  match candidates with
  | [] ->
      let v = Ir.Builder.const st.b ~width:w (Int64.of_int (rand st (1 lsl min w 12))) in
      st.pool <- (w, v) :: st.pool;
      v
  | l ->
      let _, v = List.nth l (rand st (List.length l)) in
      st.consumed <- v :: st.consumed;
      v

let push st w v = st.pool <- (w, v) :: st.pool

let add_random_op st =
  let w = widths.(rand st (Array.length widths)) in
  match rand st 12 with
  | 0 | 1 | 2 ->
      let x = pick_of_width st w and y = pick_of_width st w in
      let v =
        match rand st 3 with
        | 0 -> Ir.Builder.xor_ st.b x y
        | 1 -> Ir.Builder.and_ st.b x y
        | _ -> Ir.Builder.or_ st.b x y
      in
      push st w v
  | 3 ->
      let x = pick_of_width st w in
      push st w (Ir.Builder.not_ st.b x)
  | 4 | 5 ->
      let x = pick_of_width st w and y = pick_of_width st w in
      let v = if rand st 2 = 0 then Ir.Builder.add st.b x y else Ir.Builder.sub st.b x y in
      push st w v
  | 6 ->
      let x = pick_of_width st w in
      let s = 1 + rand st (max 1 (w - 1)) in
      let v = if rand st 2 = 0 then Ir.Builder.shl st.b x s else Ir.Builder.shr st.b x s in
      push st w v
  | 7 ->
      let x = pick_of_width st w and y = pick_of_width st w in
      let cmps = [| Ir.Op.Eq; Ir.Op.Ne; Ir.Op.Lt; Ir.Op.Le; Ir.Op.Gt; Ir.Op.Ge |] in
      push st 1 (Ir.Builder.cmp st.b cmps.(rand st 6) x y)
  | 8 ->
      let c = pick_of_width st 1 in
      let x = pick_of_width st w and y = pick_of_width st w in
      push st w (Ir.Builder.mux st.b ~cond:c x y)
  | 9 ->
      if w > 1 then begin
        let x = pick_of_width st w in
        let lo = rand st (w - 1) in
        let hi = lo + rand st (w - lo) in
        push st (hi - lo + 1) (Ir.Builder.slice st.b x ~lo ~hi)
      end
  | 10 ->
      let wh = widths.(rand st 2) (* 1 or 2 *) in
      let h = pick_of_width st wh and l = pick_of_width st w in
      push st (wh + w) (Ir.Builder.concat st.b h l)
  | _ ->
      let x = pick_of_width st w in
      push st w
        (Ir.Builder.black_box st.b ~kind:"f" ~resource:"bram_port" ~width:w
           [ x ])

let bb_handler ~kind args =
  match kind with
  | "f" -> Int64.add args.(0) 1L
  | _ -> invalid_arg "unexpected black box"

let build_random seed =
  let st =
    { b = Ir.Builder.create (); pool = []; consumed = []; rng = (seed * 2 + 1) land max_int }
  in
  let n_inputs = 2 + rand st 3 in
  for i = 0 to n_inputs - 1 do
    let w = widths.(rand st (Array.length widths)) in
    push st w (Ir.Builder.input st.b ~width:w (Printf.sprintf "in%d" i))
  done;
  (* optional recurrence *)
  let cell =
    if rand st 2 = 0 then begin
      let w = widths.(1 + rand st (Array.length widths - 1)) in
      let c =
        Ir.Builder.feedback st.b ~width:w ~init:(Int64.of_int (rand st 200))
          ~dist:(1 + rand st 2)
      in
      push st w c;
      Some (w, c)
    end
    else None
  in
  let ops = 8 + rand st 16 in
  for _ = 1 to ops do
    add_random_op st
  done;
  (* drive the recurrence with a same-width node (never the cell itself) *)
  (match cell with
  | None -> ()
  | Some (w, c) ->
      let x = pick_of_width st w and y = pick_of_width st w in
      let driver = Ir.Builder.xor_ st.b x y in
      ignore c;
      Ir.Builder.drive st.b ~cell:c driver);
  (* outputs: everything not consumed (feedback cells excluded), so all
     nodes stay live *)
  let is_cell v = match cell with Some (_, c) -> v == c | None -> false in
  let unconsumed =
    List.filter
      (fun (_, v) -> (not (List.memq v st.consumed)) && not (is_cell v))
      st.pool
  in
  (match unconsumed with
  | [] ->
      (* everything consumed: emit a fresh sink so the graph has an output *)
      let x = pick_of_width st 4 and y = pick_of_width st 4 in
      Ir.Builder.output st.b (Ir.Builder.xor_ st.b x y)
  | l -> List.iter (fun (_, v) -> Ir.Builder.output st.b v) l);
  Ir.Builder.finish st.b

let device = Fpga.Device.make ~t_clk:10.0 ()

(* [Some reason] when [method_] fails on [g] or its RTL simulation
   disagrees with the dataflow reference. The graph runs at its RecMII,
   the smallest II its recurrences allow. *)
let flow_mismatch g method_ =
  let name = Mams.Flow.method_name method_ in
  let setup = { (Mams.Flow.default_setup ~device) with time_limit = 5.0 } in
  let setup =
    { setup with ii = Sched.Heuristic.rec_mii ~device ~delays:setup.delays g }
  in
  match Mams.Flow.run setup method_ g with
  | Error e -> Some (Printf.sprintf "%s failed: %s" name e)
  | Ok r ->
      (* pipeline vs dataflow equivalence: iteration k enters at cycle
         k·II, and the cycles in between carry don't-care iterations *)
      let iterations = 8 in
      let ii = r.schedule.Sched.Schedule.ii in
      let stim ~iter ~name =
        Int64.of_int ((Hashtbl.hash (name, iter) land 0xffff) + iter)
      in
      let trace =
        Ir.Eval.run ~black_box:bb_handler g ~iterations ~inputs:stim
      in
      let nl = Rtl.Netlist.of_design g r.cover r.schedule in
      let cycles = (iterations * ii) + Sched.Schedule.latency r.schedule in
      let sim =
        Rtl.Netlist.simulate ~black_box:bb_handler nl ~cycles
          ~inputs:(fun ~cycle ~name -> stim ~iter:(cycle / ii) ~name)
      in
      List.find_map Fun.id
        (List.mapi
           (fun i po ->
             let _, arr = List.nth sim.Rtl.Netlist.outputs i in
             let s_po = r.schedule.Sched.Schedule.cycle.(po) in
             List.find_map
               (fun k ->
                 let cyc = (k * ii) + s_po in
                 if cyc < cycles && not (Int64.equal arr.(cyc) trace.(k).(po))
                 then
                   Some
                     (Printf.sprintf
                        "%s: output %d mismatch at iteration %d: rtl 0x%Lx <> \
                         0x%Lx"
                        name po k arr.(cyc) trace.(k).(po))
                 else None)
               (List.init iterations Fun.id))
           (Ir.Cdfg.outputs g))

let check_flow g method_ =
  match flow_mismatch g method_ with
  | Some msg -> QCheck.Test.fail_report msg
  | None -> true

(* A [build_random] seed; a failing case prints it, so the graph can be
   committed as a fixture. *)
let graph_seed = QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))

let graph_is_sane =
  QCheck.Test.make ~name:"random graphs validate and simulate" ~count:150
    graph_seed
    (fun seed ->
      let g = build_random seed in
      (match Ir.Cdfg.validate g with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "invalid graph: %s" e);
      let trace =
        Ir.Eval.run ~black_box:bb_handler g ~iterations:3
          ~inputs:(fun ~iter ~name -> Int64.of_int (iter + Hashtbl.hash name land 0xff))
      in
      Array.length trace = 3)

let cuts_are_sound =
  QCheck.Test.make ~name:"random graphs: cut invariants" ~count:60
    graph_seed
    (fun seed ->
      let g = build_random seed in
      let cuts = Cuts.enumerate ~k:4 g in
      Array.for_all
        (fun cs ->
          Array.length cs >= 1
          && Cuts.is_trivial cs.(0)
          && Array.for_all
               (fun (c : Cuts.cut) ->
                 Bitdep.Int_set.mem c.Cuts.root c.Cuts.cone
                 (* a self-recurrent node may be its own (registered)
                    leaf; all other leaves stay outside the cone *)
                 && List.for_all
                      (fun l ->
                        l = c.Cuts.root
                        || not (Bitdep.Int_set.mem l c.Cuts.cone))
                      c.Cuts.leaves
                 && (Cuts.is_trivial c || c.Cuts.support <= 4))
               cs)
        cuts)

(* The cut sets as text: root, leaves, cone, support and area of every
   cut, in order. *)
let cut_text cuts =
  let b = Buffer.create 4096 in
  let ints l = String.concat "," (List.map string_of_int l) in
  Array.iter
    (Array.iter (fun (c : Cuts.cut) ->
         Printf.bprintf b "%d|%s|%s|%d|%d\n" c.Cuts.root (ints c.Cuts.leaves)
           (ints (Bitdep.Int_set.elements c.Cuts.cone))
           c.Cuts.support c.Cuts.area))
    cuts;
  Buffer.contents b

let oracle_counters =
  List.map Obs.Counter.get
    [ "cuts.candidates"; "cuts.enumerated"; "cuts.infeasible"; "cuts.pruned";
      "cuts.node_merges" ]

(* Random graph, K in 2-6, random [max_cuts] and [max_candidates] (small
   enough to cap the cartesian product): [Cuts.enumerate] returns the
   list/[Int_set] oracle's cut sets and moves the five enumeration
   counters by the oracle's counts. *)
let enumerate_matches_oracle =
  QCheck.Test.make ~name:"random graphs: enumerate = list/Int_set oracle"
    ~count:150
    QCheck.(quad graph_seed (make Gen.(int_range 2 6))
              (make Gen.(int_range 1 12)) (make Gen.(int_range 1 32)))
    (fun (seed, k, max_cuts, max_candidates) ->
      let g = build_random seed in
      let params = { (Cuts.default_params ~k) with max_cuts; max_candidates } in
      let before = List.map Obs.Counter.value oracle_counters in
      let cuts = Cuts.enumerate ~params ~k g in
      let moved =
        List.map2 (fun a c -> Obs.Counter.value c - a) before oracle_counters
      in
      let want, (o : Cuts_oracle.counts) = Cuts_oracle.enumerate ~params g in
      let want_moved =
        [ o.candidates; o.enumerated; o.infeasible; o.pruned; o.node_merges ]
      in
      if cut_text cuts <> cut_text want then
        QCheck.Test.fail_report "cut sets differ from the oracle's";
      if moved <> want_moved then
        QCheck.Test.fail_reportf "counters moved by %s, oracle %s"
          (String.concat "," (List.map string_of_int moved))
          (String.concat "," (List.map string_of_int want_moved));
      true)

(* Random graph, random root, random cone (each node below the root joins
   with probability 1/2), K in 1-8: the root's supports composed from its
   in-cone operands' supports, each composed the same way from theirs,
   agree with [Closure_oracle.closure ~bound:k] on feasibility, and when
   feasible on max support and LUT bits. The unstopped composition of the
   root agrees too: too wide iff infeasible, the same LUT bits either
   way. *)
let composition_matches_closure =
  QCheck.Test.make ~name:"random cones: composed supports = closure"
    ~count:300
    QCheck.(quad graph_seed (make Gen.(int_bound 1_000_000))
              (make Gen.(int_bound 1_000_000)) (make Gen.(int_range 1 8)))
    (fun (seed, root_pick, cone_seed, k) ->
      let g = build_random seed in
      let root = root_pick mod Ir.Cdfg.num_nodes g in
      let rng = Random.State.make [| cone_seed |] in
      let cone =
        List.init root (fun v -> v)
        |> List.filter (fun _ -> Random.State.bool rng)
        |> List.cons root |> Bitdep.Int_set.of_list
      in
      Bitdep.with_table g @@ fun table ->
      let ops v sub =
        Array.map
          (fun (e : Ir.Cdfg.edge) ->
            if e.dist = 0 && Bitdep.Int_set.mem e.src cone then sub e.src
            else -1)
          (Ir.Cdfg.preds g v)
      in
      let memo = Hashtbl.create 16 in
      let rec sub v =
        match Hashtbl.find_opt memo v with
        | Some s -> s
        | None ->
            let s = Bitdep.compose table ~k ~root:v (ops v sub) in
            Hashtbl.add memo v s;
            s
      in
      let root_ops = ops root sub in
      (* the measure [compose] counted as it wrote *)
      let measure () : Bitdep.cone_support =
        { max_support = Bitdep.max_support table;
          lut_bits = Bitdep.lut_bits table }
      in
      let stopped =
        match Bitdep.compose ~stop:true table ~k ~root root_ops with
        | -1 -> None
        | _ -> Some (measure ())
      in
      ignore (Bitdep.compose table ~k ~root root_ops);
      let full = measure () in
      let want = Closure_oracle.closure ~bound:k g ~root ~cone in
      match (stopped, want) with
      | None, None -> full.max_support > k
      | Some s, Some w ->
          if s <> w || full <> w then
            QCheck.Test.fail_reportf
              "composed (max %d, lut %d), unstopped (max %d, lut %d) <> \
               closure (max %d, lut %d)"
              s.max_support s.lut_bits full.max_support full.lut_bits
              w.max_support w.lut_bits
          else true
      | Some _, None ->
          QCheck.Test.fail_report "composed feasible, closure not"
      | None, Some _ ->
          QCheck.Test.fail_report "closure feasible, composed not")

let simplify_preserves_semantics =
  QCheck.Test.make ~name:"random graphs: simplify preserves semantics"
    ~count:120
    graph_seed
    (fun seed ->
      let g = build_random seed in
      let g', _ = Opt.simplify g in
      (match Ir.Cdfg.validate g' with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "invalid after simplify: %s" e);
      if Ir.Cdfg.num_nodes g' > Ir.Cdfg.num_nodes g then
        QCheck.Test.fail_reportf "simplify grew the graph";
      let run gg =
        let trace =
          Ir.Eval.run ~black_box:bb_handler gg ~iterations:5
            ~inputs:(fun ~iter ~name ->
              Int64.of_int ((Hashtbl.hash (name, iter) land 0xffff) + iter))
        in
        List.init 5 (fun i ->
            List.map snd (Ir.Eval.outputs_of gg trace ~iter:i))
      in
      run g = run g')

let flows_verify_and_match =
  QCheck.Test.make ~name:"random graphs: flows verify, rtl = dataflow"
    ~count:60
    graph_seed
    (fun seed ->
      let g = build_random seed in
      List.for_all
        (fun m -> check_flow g m)
        [ Mams.Flow.Hls_tool; Mams.Flow.Sdc_tool; Mams.Flow.Map_heuristic ])

(* Fixed graph seeds that once failed the property above.
   - 280, 1846, 2428: loop-carried reads during pipeline fill. Each has a
     distance-2 recurrence whose source the SDC flow schedules in cycle
     1. Iteration k < dist must read the recurrence's init value for
     every consumer cycle before S(cons) + II·dist, which register reset
     alone covers only when the source sits in stage 0.
   - 71097: its recurrence needs II 2, so the flows must run it at its
     RecMII; at II 1 the lint gate rejects it (PRE001). *)
let regression_seeds = [ 280; 1846; 2428; 71097 ]

let test_regression_seeds () =
  List.iter
    (fun seed ->
      let g = build_random seed in
      List.iter
        (fun m ->
          Option.iter
            (Alcotest.failf "seed %d: %s" seed)
            (flow_mismatch g m))
        [ Mams.Flow.Hls_tool; Mams.Flow.Sdc_tool; Mams.Flow.Map_heuristic ])
    regression_seeds

(* --- cut-validity oracle over random MILPs --------------------------- *)

(* Seeded random 0/1 knapsack-style MILPs, small enough to brute-force.
   Returns the model builder (fresh model per call: a solve consumes it)
   plus the raw coefficient data for enumeration. *)
let random_milp seed =
  let rng = ref ((seed * 2 + 1) land max_int) in
  let rand bound =
    let x = !rng in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    rng := x land max_int;
    !rng mod max 1 bound
  in
  let n = 4 + rand 5 in
  let n_rows = 2 + rand 3 in
  let rows =
    Array.init n_rows (fun _ ->
        let coeffs = Array.init n (fun _ -> float_of_int (1 + rand 5)) in
        let total = Array.fold_left ( +. ) 0.0 coeffs in
        (* roughly half the total: tight enough to branch, loose enough
           to stay feasible *)
        let rhs = Float.of_int (1 + rand (int_of_float total)) in
        (coeffs, rhs))
  in
  let obj = Array.init n (fun _ -> -.float_of_int (1 + rand 9)) in
  let build () =
    let m = Lp.Model.create () in
    let xs =
      Array.init n (fun i -> Lp.Model.bool_var m (lazy (Printf.sprintf "x%d" i)))
    in
    Array.iter
      (fun (coeffs, rhs) ->
        Lp.Model.add_le m
          (Array.to_list (Array.mapi (fun i x -> (coeffs.(i), x)) xs))
          rhs)
      rows;
    Lp.Model.set_objective m
      (Array.to_list (Array.mapi (fun i x -> (obj.(i), x)) xs));
    m
  in
  (build, n, rows, obj)

(* Enumerate all feasible 0/1 points; [None] when none exists. *)
let brute_force n rows obj =
  let best = ref None in
  let feasible = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> float_of_int ((mask lsr j) land 1)) in
    let ok =
      Array.for_all
        (fun (coeffs, rhs) ->
          let a = ref 0.0 in
          Array.iteri (fun j c -> a := !a +. (c *. x.(j))) coeffs;
          !a <= rhs +. 1e-9)
        rows
    in
    if ok then begin
      feasible := x :: !feasible;
      let v = ref 0.0 in
      Array.iteri (fun j c -> v := !v +. (c *. x.(j))) obj;
      match !best with
      | Some (bv, _) when bv <= !v -> ()
      | _ -> best := Some (!v, x)
    end
  done;
  (!best, !feasible)

(* The oracle: root cutting planes must be invisible to results — same
   status and objective as the cuts-off solve at 1 and 4 domains — and
   every applied cut must be valid, i.e. exclude no feasible integer
   point (checked against the full brute-force enumeration, which is
   stronger than only checking the optimum). *)
let milp_cuts_are_valid =
  QCheck.Test.make ~name:"random MILPs: cuts invisible to results, exclude no feasible point"
    ~count:40
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let build, n, rows, obj = random_milp seed in
      let best, feasible = brute_force n rows obj in
      let base = Lp.Milp.solve ~time_limit:30.0 ~cuts:false (build ()) in
      (match (best, base.Lp.Milp.status) with
      | Some (bv, _), Lp.Milp.Optimal ->
          if Float.abs (bv -. base.Lp.Milp.objective) > 1e-6 then
            QCheck.Test.fail_reportf
              "cuts-off solve found %g, brute force %g"
              base.Lp.Milp.objective bv
      | Some _, s ->
          QCheck.Test.fail_reportf "cuts-off solve: %a" Lp.Milp.pp_status s
      | None, Lp.Milp.Infeasible -> ()
      | None, s ->
          QCheck.Test.fail_reportf
            "infeasible instance solved to %a" Lp.Milp.pp_status s);
      List.for_all
        (fun domains ->
          let r =
            Lp.Milp.solve ~time_limit:30.0 ~cuts:true ~certificates:true
              ~domains (build ())
          in
          if
            Lp.Milp.(
              match (base.status, r.status) with
              | Optimal, Optimal | Infeasible, Infeasible -> false
              | a, b -> a <> b)
          then
            QCheck.Test.fail_reportf "status differs with cuts @ %d domains"
              domains;
          (match (base.Lp.Milp.status, r.Lp.Milp.status) with
          | Lp.Milp.Optimal, Lp.Milp.Optimal ->
              if
                Float.abs (base.Lp.Milp.objective -. r.Lp.Milp.objective)
                > 1e-6
              then
                QCheck.Test.fail_reportf
                  "objective %g with cuts vs %g without @ %d domains"
                  r.Lp.Milp.objective base.Lp.Milp.objective domains
          | _ -> ());
          (match r.Lp.Milp.cert with
          | None -> QCheck.Test.fail_reportf "no certificate @ %d domains" domains
          | Some cert ->
              List.iteri
                (fun k (c : Lp.Cert.cut) ->
                  List.iter
                    (fun x ->
                      let lhs = ref 0.0 in
                      Array.iter
                        (fun (j, cf) -> lhs := !lhs +. (cf *. x.(j)))
                        c.Lp.Cert.cut_terms;
                      if !lhs > c.Lp.Cert.cut_rhs +. 1e-9 then
                        QCheck.Test.fail_reportf
                          "cut %d excludes a feasible integer point                            (lhs %g > rhs %g) @ %d domains"
                          k !lhs c.Lp.Cert.cut_rhs domains)
                    feasible)
                cert.Lp.Cert.cuts);
          true)
        [ 1; 4 ])

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "fuzz"
    [
      ( "graphs",
        qsuite
          [ graph_is_sane; cuts_are_sound; enumerate_matches_oracle;
            composition_matches_closure ] );
      ("opt", qsuite [ simplify_preserves_semantics ]);
      ("milp-cuts", qsuite [ milp_cuts_are_valid ]);
      ( "flows",
        qsuite [ flows_verify_and_match ]
        @ [ Alcotest.test_case "pipeline-fill regression seeds" `Quick
              test_regression_seeds ] );
    ]
