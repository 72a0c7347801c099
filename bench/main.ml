(* Benchmark harness: regenerates every table and figure of the paper
   (DESIGN.md experiment index). Per-kernel timings (pivot, cut
   enumeration, techmap) come from perfbench's per-layer metrics.

   Settings, read from the environment once, by the definitions below,
   before any table runs (documented in README.md):
     PIPESYN_TIME_LIMIT   wall budget of each flow run in seconds
                          (default 20; the paper used 3600)
     PIPESYN_ONLY         comma-separated benchmark filter for Table 1/2
     PIPESYN_JSON         structured-metrics output path
                          (default BENCH_results.json)
     PIPESYN_DOMAINS      branch-and-bound worker domains (default 1)
     PIPESYN_PROBE_MS     resource-probe cadence in ms (default off)
     PIPESYN_LOG          NDJSON event-log output path (default off)
   A value that does not parse, or an unknown benchmark name, exits 1. *)

(* The value of [var] through [parse]; [None] when unset, exit 1 with
   [parse]'s message when it rejects the value. *)
let setting var parse =
  Option.map
    (fun s ->
      match parse (String.trim s) with
      | Ok v -> v
      | Error msg ->
          Fmt.epr "%s: %s@." var msg;
          exit 1)
    (Sys.getenv_opt var)

let seconds s =
  match float_of_string_opt s with
  | Some v when v > 0.0 -> Ok v
  | _ -> Error (Fmt.str "expected seconds > 0, got %S" s)

let count what s =
  match int_of_string_opt s with
  | Some v when v >= 1 -> Ok v
  | _ -> Error (Fmt.str "expected %s >= 1, got %S" what s)

(* The registry entries a comma-separated name list selects, in registry
   order; an empty list selects them all. *)
let names s =
  let name (e : Benchmarks.Registry.entry) = String.uppercase_ascii e.name in
  let wanted =
    String.split_on_char ',' (String.uppercase_ascii s)
    |> List.map String.trim
    |> List.filter (( <> ) "")
  in
  let known n = List.exists (fun e -> name e = n) Benchmarks.Registry.all in
  match List.find_opt (fun n -> not (known n)) wanted with
  | Some n -> Error (Fmt.str "unknown benchmark %s (see `pipesyn list')" n)
  | None ->
      Ok
        (List.filter
           (fun e -> wanted = [] || List.mem (name e) wanted)
           Benchmarks.Registry.all)

let time_limit =
  Option.value ~default:20.0 (setting "PIPESYN_TIME_LIMIT" seconds)

let selected =
  Option.value ~default:Benchmarks.Registry.all (setting "PIPESYN_ONLY" names)

let json =
  Option.value ~default:"BENCH_results.json" (setting "PIPESYN_JSON" Result.ok)

let domains = setting "PIPESYN_DOMAINS" (count "a domain count")
let probe_ms = setting "PIPESYN_PROBE_MS" (count "milliseconds")
let log = setting "PIPESYN_LOG" Result.ok

let setup_for (e : Benchmarks.Registry.entry) =
  let device = Fpga.Device.make ~t_clk:e.t_clk () in
  {
    (Mams.Flow.default_setup ~device) with
    resources = e.resources;
    time_limit;
    domains;
  }

let milp_status (r : Mams.Flow.result) =
  match r.solve.milp_status with
  | Some s -> Fmt.str "%a" Lp.Milp.pp_status s
  | None -> "-"

let section title =
  Fmt.pr "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table 1: resource usage comparison                                  *)
(* ------------------------------------------------------------------ *)

type row = {
  entry : Benchmarks.Registry.entry;
  results : (Mams.Flow.method_ * (Mams.Flow.result, string) result) list;
}

let run_table1 () =
  List.map
    (fun (e : Benchmarks.Registry.entry) ->
      let g = e.build () in
      Fmt.pr "running %s (%s)...@." e.name (Ir.Cdfg.stats g);
      { entry = e; results = Mams.Flow.run_all (setup_for e) g })
    selected

let print_table1 rows =
  section "Table 1: resource usage comparison (cf. paper Table 1)";
  Fmt.pr "Targets: kernels 5 ns, applications 10 ns clock period; II = 1;@.";
  Fmt.pr "alpha = beta = 0.5; budget %.0fs per flow run.@.@." time_limit;
  let columns =
    Report.
      [
        { title = "Design"; align = Left };
        { title = "Domain"; align = Left };
        { title = "Method"; align = Left };
        { title = "CP(ns)"; align = Right };
        { title = "LUT"; align = Right };
        { title = "%"; align = Right };
        { title = "FF"; align = Right };
        { title = "%"; align = Right };
        { title = "Lat"; align = Right };
      ]
  in
  let table_rows =
    List.concat_map
      (fun { entry; results } ->
        let reference =
          match List.assoc Mams.Flow.Hls_tool results with
          | Ok r -> Some r.Mams.Flow.qor
          | Error _ | (exception Not_found) -> None
        in
        List.map
          (fun (m, r) ->
            match r with
            | Error e ->
                [ entry.name; entry.domain; Mams.Flow.method_name m;
                  "-"; "-"; "-"; "-"; "-"; Printf.sprintf "error: %s" e ]
            | Ok r ->
                let q = r.Mams.Flow.qor in
                let pct get =
                  match (m, reference) with
                  | Mams.Flow.Hls_tool, _ | _, None -> ""
                  | _, Some ref_q -> Report.pct ~reference:(get ref_q) (get q)
                in
                [
                  entry.name;
                  entry.domain;
                  Mams.Flow.method_name m;
                  Report.f2 q.Sched.Qor.cp;
                  string_of_int q.Sched.Qor.luts;
                  pct (fun (q : Sched.Qor.t) -> q.luts);
                  string_of_int q.Sched.Qor.ffs;
                  pct (fun (q : Sched.Qor.t) -> q.ffs);
                  string_of_int q.Sched.Qor.latency;
                ])
          results)
      rows
  in
  Fmt.pr "%s@." (Report.table ~columns table_rows)

(* ------------------------------------------------------------------ *)
(* Table 2: MILP solver runtime                                        *)
(* ------------------------------------------------------------------ *)

let print_table2 rows =
  section "Table 2: MILP solver runtime (cf. paper Table 2)";
  Fmt.pr "Ops = CDFG operations (the analogue of the paper's LLVM@.";
  Fmt.pr "instruction counts at our scaled benchmark sizes).@.@.";
  let columns =
    Report.
      [
        { title = "Design"; align = Left };
        { title = "Ops"; align = Right };
        { title = "Cuts"; align = Right };
        { title = "MILP-base (s)"; align = Right };
        { title = "MILP-map (s)"; align = Right };
        { title = "map status"; align = Left };
        { title = "map model"; align = Left };
      ]
  in
  let sum_base = ref 0.0 and sum_map = ref 0.0 and count = ref 0 in
  let table_rows =
    List.map
      (fun { entry; results } ->
        let g = entry.build () in
        let cuts = Cuts.enumerate ~k:4 g in
        let time m =
          match List.assoc m results with
          | Ok r -> r.Mams.Flow.solve.Mams.Flow.runtime
          | Error _ | (exception Not_found) -> Float.nan
        in
        let tb = time Mams.Flow.Milp_base and tm = time Mams.Flow.Milp_map in
        let status, msize =
          match List.assoc Mams.Flow.Milp_map results with
          | Ok r ->
              ( milp_status r,
                Option.value ~default:"-" r.Mams.Flow.solve.Mams.Flow.model_size
              )
          | Error _ | (exception Not_found) -> ("error", "-")
        in
        if Float.is_finite tb && Float.is_finite tm then begin
          sum_base := !sum_base +. tb;
          sum_map := !sum_map +. tm;
          incr count
        end;
        [
          entry.name;
          string_of_int (Ir.Cdfg.num_nodes g);
          string_of_int (Cuts.total_cuts cuts);
          Report.f2 tb;
          Report.f2 tm;
          status;
          msize;
        ])
      rows
  in
  let mean_row =
    if !count > 0 then
      [ "Mean"; ""; ""; Report.f2 (!sum_base /. float_of_int !count);
        Report.f2 (!sum_map /. float_of_int !count); ""; "" ]
    else [ "Mean"; ""; ""; "-"; "-"; ""; "" ]
  in
  Fmt.pr "%s@." (Report.table ~columns (table_rows @ [ mean_row ]))

(* ------------------------------------------------------------------ *)
(* Convergence: time-to-first-incumbent and final optimality gap       *)
(* ------------------------------------------------------------------ *)

(* The per-result convergence columns land in BENCH_results.json
   (first_incumbent_s / final_gap / nodes_per_s, ...); this table reads
   them from the solver stats to show them in the text report too. *)
let print_convergence rows =
  section "Convergence: first incumbent and final gap (MILP flows)";
  Fmt.pr "first-inc = seconds into the solve when the first incumbent@.";
  Fmt.pr "appeared (0.00 = the warm-start seed was accepted); gap = the@.";
  Fmt.pr "relative incumbent/bound gap at solver exit; root-closed =@.";
  Fmt.pr "fraction of the root integrality gap closed by certified@.";
  Fmt.pr "presolve + cutting planes before branching (DESIGN.md 3j);@.";
  Fmt.pr "nodes/s = B&B node throughput (scales with --domains /@.";
  Fmt.pr "PIPESYN_DOMAINS).@.@.";
  let columns =
    Report.
      [
        { title = "Design"; align = Left };
        { title = "Method"; align = Left };
        { title = "first-inc(s)"; align = Right };
        { title = "gap"; align = Right };
        { title = "root-closed"; align = Right };
        { title = "cuts"; align = Right };
        { title = "nodes"; align = Right };
        { title = "nodes/s"; align = Right };
        { title = "dom"; align = Right };
        { title = "status"; align = Left };
      ]
  in
  let fmt_gap g =
    if Float.is_nan g then "-" else Printf.sprintf "%.1f%%" (100.0 *. g)
  in
  let table_rows =
    List.concat_map
      (fun { entry; results } ->
        List.filter_map
          (fun (m, r) ->
            match (m, r) with
            | (Mams.Flow.Hls_tool | Mams.Flow.Sdc_tool
              | Mams.Flow.Map_heuristic), _
            | _, Error _ ->
                None
            | (Mams.Flow.Milp_base | Mams.Flow.Milp_map), Ok r ->
                let info = r.Mams.Flow.solve in
                let status =
                  Option.fold ~none:"heuristic"
                    ~some:(Fmt.str "%a" Lp.Milp.pp_status)
                    info.Mams.Flow.milp_status
                in
                let cols =
                  (* A fallback rung that ran no MILP has no solver stats. *)
                  match info.Mams.Flow.milp_stats with
                  | None -> [ "-"; "-"; "-"; "0"; "-"; "-"; "1" ]
                  | Some s ->
                      let nodes = s.Lp.Milp.nodes
                      and secs = info.Mams.Flow.runtime in
                      [
                        (if Float.is_nan s.Lp.Milp.first_incumbent_s then "-"
                         else Report.f2 s.Lp.Milp.first_incumbent_s);
                        fmt_gap s.Lp.Milp.gap;
                        fmt_gap s.Lp.Milp.gap_closed_root;
                        string_of_int s.Lp.Milp.cuts_applied;
                        string_of_int nodes;
                        (if nodes > 0 && secs > 1e-9 then
                           Printf.sprintf "%.0f" (float_of_int nodes /. secs)
                         else "-");
                        string_of_int s.Lp.Milp.domains;
                      ]
                in
                Some
                  ((entry.name :: Mams.Flow.method_name m :: cols)
                  @ [ status ]))
          results)
      rows
  in
  Fmt.pr "%s@." (Report.table ~columns table_rows)

(* ------------------------------------------------------------------ *)
(* Figure 1: the Reed-Solomon kernel schedules                         *)
(* ------------------------------------------------------------------ *)

let print_figure1 () =
  section "Figure 1: pipeline schedules for the Reed-Solomon kernel";
  Fmt.pr "Device: 4-LUT, 5 ns target, 2 ns per logic op / LUT level.@.@.";
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let device = Fpga.Device.figure1 in
  let delays =
    Fpga.Delays.make ~logic:2.0 ~arith_base:1.6 ~arith_per_bit:0.2 ()
  in
  let setup =
    { (Mams.Flow.default_setup ~device) with delays; time_limit; domains }
  in
  List.iter
    (fun (label, m) ->
      match Mams.Flow.run setup m g with
      | Error e -> Fmt.pr "%s: error: %s@." label e
      | Ok r ->
          Fmt.pr "(%s) %s: %d stage(s), %d LUTs, %d FFs@." label
            (Mams.Flow.method_name m)
            (Sched.Schedule.latency r.Mams.Flow.schedule + 1)
            r.Mams.Flow.qor.Sched.Qor.luts r.Mams.Flow.qor.Sched.Qor.ffs;
          Fmt.pr "%a@." (Sched.Schedule.pp_detailed g) r.Mams.Flow.schedule)
    [ ("a: suboptimal, additive delays", Mams.Flow.Hls_tool);
      ("b: optimal, mapping-aware", Mams.Flow.Milp_map) ]

(* ------------------------------------------------------------------ *)
(* Figure 2: word-level cut enumeration on the 2-bit kernel            *)
(* ------------------------------------------------------------------ *)

let print_figure2 () =
  section "Figure 2: cut enumeration for the Reed-Solomon kernel (2-bit)";
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let cuts = Cuts.enumerate ~k:4 g in
  Fmt.pr "%d nodes, %d cuts, K = 4.@.@." (Ir.Cdfg.num_nodes g)
    (Cuts.total_cuts cuts);
  Array.iteri
    (fun v cs -> Fmt.pr "%a@.@." (Cuts.pp_node_cuts g) (v, cs))
    cuts;
  (* The paper's headline observation: the sign test C reads only B's MSB,
     so a cone absorbing the comparison stays K-feasible. *)
  Ir.Cdfg.iter
    (fun nd ->
      match nd.op with
      | Ir.Op.Cmp _ ->
          let deep =
            Array.exists
              (fun (c : Cuts.cut) -> Bitdep.Int_set.cardinal c.Cuts.cone > 1)
              cuts.(nd.id)
          in
          Fmt.pr
            "MSB narrowing: the comparison %s %s absorbed into larger cones.@."
            (Ir.Cdfg.node_name g nd.id)
            (if deep then "CAN be" else "can NOT be")
      | _ -> ())
    g

(* ------------------------------------------------------------------ *)
(* Ablation A1: exact (paper) vs compact liveness formulation          *)
(* ------------------------------------------------------------------ *)

let print_ablation_liveness () =
  section "Ablation A1: paper-exact vs compact liveness formulation";
  let budget = Float.min time_limit 30.0 in
  Fmt.pr
    "Both formulations optimize the same register objective; the compact@.";
  Fmt.pr "one replaces O(V*M) def/kill/live binaries with one lifetime@.";
  Fmt.pr "variable per node (DESIGN.md). Budget %.0fs per solve.@.@." budget;
  let columns =
    Report.
      [
        { title = "Kernel"; align = Left };
        { title = "Form"; align = Left };
        { title = "Vars"; align = Right };
        { title = "Rows"; align = Right };
        { title = "Time(s)"; align = Right };
        { title = "Status"; align = Left };
        { title = "FF"; align = Right };
      ]
  in
  let device = Fpga.Device.make ~t_clk:10.0 () in
  let delays = Fpga.Delays.default in
  let run_one name g =
    let cuts = Cuts.enumerate ~k:4 g in
    match
      Sched.Heuristic.schedule ~device ~delays
        ~resources:Fpga.Resource.unlimited ~ii:1 g
    with
    | Error _ -> []
    | Ok base_sched ->
        let cfg : Mams.Formulation.config =
          {
            device;
            delays;
            resources = Fpga.Resource.unlimited;
            ii = 1;
            max_latency = max 3 (Sched.Schedule.latency base_sched);
            alpha = 0.5;
            beta = 0.5;
            cut_delay = Mams.Formulation.mapped_delay ~device ~delays;
          }
        in
        let solve label model extract =
          let t0 = Obs.Clock.wall () in
          let r = Lp.Milp.solve ~time_limit:budget ?domains model in
          let dt = Obs.Clock.wall () -. t0 in
          let ff =
            match r.Lp.Milp.status with
            | Lp.Milp.Optimal | Lp.Milp.Feasible ->
                let sched, cover = extract r in
                Sched.Qor.ff_bits g cover sched ~device ~delays
            | Lp.Milp.Infeasible | Lp.Milp.Unbounded | Lp.Milp.Unknown -> -1
          in
          [
            name; label;
            string_of_int (Lp.Model.num_vars model);
            string_of_int (Lp.Model.num_constraints model);
            Report.f2 dt;
            Fmt.str "%a" Lp.Milp.pp_status r.Lp.Milp.status;
            string_of_int ff;
          ]
        in
        let fc = Mams.Formulation.build cfg g cuts in
        let fe = Mams.Formulation_exact.build cfg g cuts in
        [
          solve "compact" (Mams.Formulation.model fc)
            (Mams.Formulation.extract fc);
          solve "exact" (Mams.Formulation_exact.model fe)
            (Mams.Formulation_exact.extract fe);
        ]
  in
  let rows =
    run_one "RS-kernel(w=2)" (Benchmarks.Rs.kernel ~width:2 ())
    @ run_one "RS-kernel(w=4)" (Benchmarks.Rs.kernel ~width:4 ())
    @ run_one "RS-kernel(w=8)" (Benchmarks.Rs.kernel ~width:8 ())
  in
  Fmt.pr "%s@." (Report.table ~columns rows)

(* ------------------------------------------------------------------ *)
(* Ablation A2: cut pruning limit vs QoR and runtime                   *)
(* ------------------------------------------------------------------ *)

let print_ablation_pruning () =
  section "Ablation A2: cut pruning limit vs QoR/runtime (XORR kernel)";
  (* XORR n=8 (the registry kernel) leaves most solves open at the cap;
     n=4 on the scaling study's setup (10 ns, unlimited resources) proves
     most of its solves optimal inside it, so its times are solve times. *)
  let e = Benchmarks.Registry.find "XORR" in
  let instances =
    [
      ("XORR n=4", Benchmarks.Xorr.build ~elements:4 ~width:8 ~mix_depth:3 (),
       { (setup_for e) with
         device = Fpga.Device.make ~t_clk:10.0 ();
         resources = Fpga.Resource.unlimited });
      ("XORR n=8", e.build (), setup_for e);
    ]
  in
  let columns =
    Report.
      [
        { title = "Instance"; align = Left };
        { title = "max_cuts"; align = Right };
        { title = "Cuts"; align = Right };
        { title = "LUT"; align = Right };
        { title = "FF"; align = Right };
        { title = "Lat"; align = Right };
        { title = "Time(s)"; align = Right };
        { title = "Status"; align = Left };
      ]
  in
  let rows =
    List.concat_map
      (fun (name, g, (base : Mams.Flow.setup)) ->
        List.map
          (fun max_cuts ->
            let params = { (Cuts.default_params ~k:4) with max_cuts } in
            let setup =
              { base with
                cut_params = Some params;
                time_limit = Float.min time_limit 15.0 }
            in
            let cuts = Cuts.enumerate ~params ~k:4 g in
            match Mams.Flow.run setup Mams.Flow.Milp_map g with
            | Ok r ->
                [
                  name;
                  string_of_int max_cuts;
                  string_of_int (Cuts.total_cuts cuts);
                  string_of_int r.Mams.Flow.qor.Sched.Qor.luts;
                  string_of_int r.Mams.Flow.qor.Sched.Qor.ffs;
                  string_of_int r.Mams.Flow.qor.Sched.Qor.latency;
                  Report.f2 r.Mams.Flow.solve.Mams.Flow.runtime;
                  milp_status r;
                ]
            | Error err ->
                [ name; string_of_int max_cuts; "-"; "-"; "-"; "-"; "-"; err ])
          [ 1; 3; 6; 10 ])
      instances
  in
  Fmt.pr "%s@." (Report.table ~columns rows)

(* ------------------------------------------------------------------ *)
(* Ablation A5: area-flow heuristic vs ILP minimum-area mapping        *)
(* ------------------------------------------------------------------ *)

let print_ablation_exact_mapping () =
  section "Ablation A5: area-flow heuristic vs ILP minimum-area mapping";
  Fmt.pr "Downstream covering of the HLS-Tool schedule (paper ref [7],@.";
  Fmt.pr "here cut-based). Budget %.0fs per ILP.@.@."
    (Float.min time_limit 15.0);
  let columns =
    Report.
      [
        { title = "Design"; align = Left };
        { title = "Area-flow LUT"; align = Right };
        { title = "ILP LUT"; align = Right };
        { title = "ILP status"; align = Left };
      ]
  in
  let rows =
    List.filter_map
      (fun name ->
        let entry = Benchmarks.Registry.find name in
        let g = entry.build () in
        let device = Fpga.Device.make ~t_clk:entry.t_clk () in
        let delays = Fpga.Delays.default in
        match
          Sched.Heuristic.schedule ~device ~delays ~resources:entry.resources
            ~ii:1 g
        with
        | Error _ -> None
        | Ok sched ->
            let cuts = Cuts.enumerate ~k:4 g in
            let flow = Techmap.map_schedule ~device ~delays ~cuts g sched in
            let exact =
              Techmap.map_exact ~time_limit:(Float.min time_limit 15.0)
                ~device ~delays ~cuts g sched
            in
            Some
              [
                name;
                string_of_int (Sched.Cover.lut_area flow);
                (match exact with
                | Ok c -> string_of_int (Sched.Cover.lut_area c)
                | Error _ -> "-");
                (match exact with
                | Ok _ -> "solved"
                | Error f -> Techmap.exact_reason_to_string f.Techmap.reason);
              ])
      [ "CLZ"; "XORR"; "GFMUL"; "MT"; "RS"; "DR"; "GSM" ]
  in
  Fmt.pr "%s@." (Report.table ~columns rows)

(* ------------------------------------------------------------------ *)
(* Extension: the map-first heuristic (paper Sec. 5 future work)       *)
(* ------------------------------------------------------------------ *)

(* Returns the SDC / map-first metrics so the JSON file covers the
   extension flows too. *)
let print_map_first rows =
  let extension_metrics = ref [] in
  section "Extension: SDC and map-first heuristics vs the MILP flows";
  Fmt.pr "SDC = difference-constraint modulo scheduling (LegUp/Vivado-HLS@.";
  Fmt.pr "style, paper refs [22][3]); Map-first = the paper's future-work@.";
  Fmt.pr "heuristic (area-flow map, then schedule). Both run in@.";
  Fmt.pr "milliseconds.@.@.";
  let columns =
    Report.
      [
        { title = "Design"; align = Left };
        { title = "HLS FF"; align = Right };
        { title = "SDC FF"; align = Right };
        { title = "Map-first FF"; align = Right };
        { title = "MILP-map FF"; align = Right };
        { title = "Map-first LUT"; align = Right };
        { title = "MILP-map LUT"; align = Right };
      ]
  in
  let table_rows =
    List.filter_map
      (fun { entry; results } ->
        let g = entry.build () in
        match
          ( List.assoc_opt Mams.Flow.Hls_tool results,
            Mams.Flow.run (setup_for entry) Mams.Flow.Sdc_tool g,
            Mams.Flow.run (setup_for entry) Mams.Flow.Map_heuristic g,
            List.assoc_opt Mams.Flow.Milp_map results )
        with
        | Some (Ok hls), Ok sdc, Ok mf, Some (Ok map) ->
            extension_metrics :=
              Mams.Flow.metrics ~name:entry.name mf
              :: Mams.Flow.metrics ~name:entry.name sdc
              :: !extension_metrics;
            Some
              [
                entry.name;
                string_of_int hls.Mams.Flow.qor.Sched.Qor.ffs;
                string_of_int sdc.Mams.Flow.qor.Sched.Qor.ffs;
                string_of_int mf.Mams.Flow.qor.Sched.Qor.ffs;
                string_of_int map.Mams.Flow.qor.Sched.Qor.ffs;
                string_of_int mf.Mams.Flow.qor.Sched.Qor.luts;
                string_of_int map.Mams.Flow.qor.Sched.Qor.luts;
              ]
        | _, _, _, _ -> None)
      rows
  in
  Fmt.pr "%s@." (Report.table ~columns table_rows);
  List.rev !extension_metrics

(* ------------------------------------------------------------------ *)
(* Scaling study: model size vs. runtime (Sec. 4.3's observation that   *)
(* MILP runtime scales with the number of constraints)                  *)
(* ------------------------------------------------------------------ *)

let print_scaling () =
  section "Scaling study: constraints vs MILP-map runtime (cf. Sec. 4.3)";
  let budget = Float.min time_limit 15.0 in
  Fmt.pr "MILP-map on its own instance family, not the flow's model: the@.";
  Fmt.pr "latency bound is floored at 2 (the flow's is 0-1 on these six)@.";
  Fmt.pr "and the only warm start tried is the map-first cover. Budget@.";
  Fmt.pr "%.0fs per solve. The optimality gap is the hardness signal: it@." budget;
  Fmt.pr "grows with the constraint count.@.@.";
  let columns =
    Report.
      [
        { title = "Instance"; align = Left };
        { title = "Ops"; align = Right };
        { title = "Cuts"; align = Right };
        { title = "Vars"; align = Right };
        { title = "Rows"; align = Right };
        { title = "Time(s)"; align = Right };
        { title = "Status"; align = Left };
        { title = "Gap"; align = Right };
      ]
  in
  let device = Fpga.Device.make ~t_clk:10.0 () in
  let delays = Fpga.Delays.default in
  let one name g =
    let cuts = Cuts.enumerate ~k:4 g in
    match
      Sched.Heuristic.schedule ~device ~delays
        ~resources:Fpga.Resource.unlimited ~ii:1 g
    with
    | Error _ -> [ name; "-"; "-"; "-"; "-"; "-"; "infeasible"; "-" ]
    | Ok base ->
        let warm =
          let cover = Techmap.map_global ~device ~delays ~cuts g in
          match
            Sched.Mapsched.schedule ~device ~delays
              ~resources:Fpga.Resource.unlimited ~ii:1 g cover
          with
          | Ok s -> Some (s, cover)
          | Error _ -> None
        in
        let max_latency =
          List.fold_left
            (fun acc s -> max acc (Sched.Schedule.latency s))
            (max 2 (Sched.Schedule.latency base))
            (match warm with Some (s, _) -> [ s ] | None -> [])
        in
        let cfg : Mams.Formulation.config =
          {
            device; delays; resources = Fpga.Resource.unlimited; ii = 1;
            max_latency;
            alpha = 0.5; beta = 0.5;
            cut_delay = Mams.Formulation.mapped_delay ~device ~delays;
          }
        in
        let f = Mams.Formulation.build cfg g cuts in
        let model = Mams.Formulation.model f in
        let incumbent =
          match warm with
          | None -> None
          | Some (s, cover) -> (
              match Mams.Formulation.incumbent_of_schedule f s cover with
              | x
                when Lp.Model.check model
                       ~values:(fun v -> x.(Lp.Model.var_index v))
                       ()
                     = Ok () ->
                  Some x
              | _ | (exception Invalid_argument _) -> None)
        in
        let t0 = Obs.Clock.wall () in
        let r =
          Lp.Milp.solve ~time_limit:budget ?domains ?incumbent
            ~branch_priority:(Mams.Formulation.branch_priorities f)
            model
        in
        let dt = Obs.Clock.wall () -. t0 in
        [
          name;
          string_of_int (Ir.Cdfg.num_nodes g);
          string_of_int (Cuts.total_cuts cuts);
          string_of_int (Lp.Model.num_vars model);
          string_of_int (Lp.Model.num_constraints model);
          Report.f2 dt;
          Fmt.str "%a" Lp.Milp.pp_status r.Lp.Milp.status;
          Printf.sprintf "%.0f%%" (100.0 *. r.Lp.Milp.stats.Lp.Milp.gap);
        ]
  in
  let rows =
    List.map
      (fun taps ->
        one (Printf.sprintf "RS taps=%d" taps)
          (Benchmarks.Rs.full ~width:4 ~taps ()))
      [ 2; 4; 6 ]
    @ List.map
        (fun elements ->
          one
            (Printf.sprintf "XORR n=%d" elements)
            (Benchmarks.Xorr.build ~elements ~width:8 ~mix_depth:3 ()))
        [ 4; 8; 12 ]
  in
  Fmt.pr "%s@." (Report.table ~columns rows)

(* ------------------------------------------------------------------ *)
(* Structured metrics: BENCH_results.json (README.md "Observability")  *)
(* ------------------------------------------------------------------ *)

let table1_metrics rows =
  List.concat_map
    (fun { entry; results } ->
      List.map
        (fun (m, r) ->
          match r with
          | Ok r -> Mams.Flow.metrics ~name:entry.name r
          | Error _ -> Mams.Flow.error_metrics ~name:entry.name m)
        results)
    rows

let write_metrics results =
  Obs.Metrics.write_file ~path:json ~results;
  Fmt.pr "@.wrote %s (%d results, schema v%d)@." json (List.length results)
    Obs.Metrics.schema_version

let () =
  Fmt.pr "pipesyn benchmark harness — reproduction of Zhao et al., DAC 2015@.";
  Fmt.pr "Budget per flow run: %.0fs (PIPESYN_TIME_LIMIT to change)@."
    time_limit;
  Obs.reset ();
  (* Live telemetry, each off unless its setting is given: the resource
     probe (PIPESYN_PROBE_MS) and the NDJSON event log (PIPESYN_LOG). *)
  if log <> None then Obs.Log.enable ();
  Option.iter (fun period_ms -> Obs.Probe.start ~period_ms) probe_ms;
  let rows = run_table1 () in
  print_table1 rows;
  print_table2 rows;
  print_convergence rows;
  print_figure1 ();
  print_figure2 ();
  print_ablation_liveness ();
  print_ablation_pruning ();
  print_ablation_exact_mapping ();
  let extension_metrics = print_map_first rows in
  print_scaling ();
  Obs.Probe.stop ();
  write_metrics (table1_metrics rows @ extension_metrics);
  Option.iter
    (fun path ->
      Obs.Log.write ~path;
      Fmt.pr "wrote %s (%d log events%s)@." path (Obs.Log.num_events ())
        (let d = Obs.Log.dropped () in
         if d = 0 then "" else Fmt.str ", %d dropped at cap" d))
    log;
  Fmt.pr "@.done.@."
