type pass = {
  name : string;
  artifact : string;
  codes : (string * string * string) list;
  description : string;
}

let passes =
  [
    {
      name = Cdfg_lint.pass_name;
      artifact = "cdfg";
      codes =
        [
          ("CDFG001", "error", "distance-0 combinational cycle (witness: the cycle path)");
          ("CDFG002", "error", "black box on a zero-aggregate-distance feedback cycle");
          ("CDFG003", "error", "operand/result width inconsistent with the opcode");
          ("CDFG004", "warning", "dead node: no path to any primary output");
          ("CDFG005", "info", "constant-foldable cone (the frontend simplifier would remove it)");
          ("CDFG006", "error", "malformed structure: ids not dense, dangling edges, no outputs");
        ];
      description =
        "combinational cycles, black-box feedback, width discipline, dead \
         nodes, constant-foldable cones, malformed structure";
    };
    {
      name = Preflight.pass_name;
      artifact = "cdfg+setup";
      codes =
        [
          ("PRE001", "error", "requested II below RecMII (witness: the binding dependence cycle)");
          ("PRE002", "error", "requested II below ResMII (witness: the binding resource class)");
          ( "PRE003", "warning (error under `strict_period`)",
            "slowest single-op delay exceeds the usable clock period" );
          ("PRE004", "error", "black-box resource class used but budgeted at zero units");
        ];
      description =
        "II vs RecMII/ResMII with recurrence-cycle and resource-class \
         witnesses, clock-period sanity";
    };
    {
      name = Lp_lint.pass_name;
      artifact = "lp";
      codes =
        [
          ("LP001", "error", "trivially infeasible empty constraint row (e.g. 0 >= 1)");
          ("LP002", "warning", "vacuous empty constraint row (constrains nothing)");
          ("LP003", "warning", "duplicate rows (same terms, sense, and right-hand side)");
          ("LP004", "warning", "variable referenced by no constraint or objective");
          ("LP005", "error", "integer variable with no integer between its bounds");
          ("LP006", "error", "malformed cutting-plane row in a certificate");
        ];
      description =
        "empty/duplicate rows, free columns, trivially infeasible bounds, \
         malformed certificate cut rows";
    };
    {
      name = Net_lint.pass_name;
      artifact = "netlist";
      codes =
        [
          ("NET001", "error", "expression reads an undriven signal");
          ("NET002", "error", "signal driven more than once");
          ("NET003", "error", "operator applied to the wrong operand count (unconnected pin)");
          ("NET004", "error", "wire reads a wire defined after it (combinational order violation)");
          ("NET005", "warning", "wire driven but never read");
          ("NET006", "error", "operand/result widths inconsistent at a netlist operator");
        ];
      description =
        "undriven/multiply-driven signals, unconnected pins, combinational \
         order, dangling wires, width discipline";
    };
    {
      name = Cert.pass_name;
      artifact = "schedule+cover";
      codes =
        [
          ("CERT000", "error", "Sched.Verify violation with no equation tag");
          ("CERT001", "error", "cover violates the cut constraints (paper Eq. 2-4)");
          ("CERT002", "error", "value produced after it is consumed (paper Eq. 7)");
          ("CERT003", "error", "operation finishes past the clock period (paper Eq. 8)");
          ("CERT004", "error", "chained arrival time too late (paper Eq. 9)");
          ("CERT005", "error", "resource class over its budget (paper Eq. 14)");
        ];
      description =
        "Sched.Verify certificate rewrapped with paper-equation codes";
    };
    {
      name = Audit.pass_name;
      artifact = "milp certificate";
      codes =
        [
          ("CERT101", "error", "missing, malformed or truncated certificate evidence");
          ("CERT102", "error", "incumbent violates bounds, integrality or a constraint");
          ("CERT103", "error", "dual vector fails to certify the claimed LP objective");
          ("CERT104", "error", "Farkas evidence fails to prove node infeasibility");
          ("CERT105", "error", "fathomed or abandoned subtree not excluded by its exact dual bound");
          ("CERT106", "error", "malformed tree: branch arithmetic or box bookkeeping inconsistent");
          ("CERT107", "error", "status or incumbent bookkeeping inconsistent (stale incumbent)");
          ("CERT108", "error", "root reduced-cost fix not justified by the pre-fixing duals");
          ("CERT109", "error", "Chvátal-Gomory cut not implied by its recorded derivation");
          ("CERT111", "error", "presolve bound tightening fails exact replay");
        ];
      description =
        "exact-rational replay of a proof-carrying MILP solve \
         (Neumaier-Shcherbina dual bounds, Farkas rays, pruning log, \
         presolve and cutting-plane derivations)";
    };
    {
      (* Emitted by the flow's degradation cascade (Mams.Flow), not a
         standalone checker: each finding mirrors one entry of the
         Metrics degradation array. *)
      name = "resilience.cascade";
      artifact = "flow run";
      codes =
        [
          ("RES001", "warning", "attempt raised; exception contained, cascade continued");
          ("RES002", "warning", "attempt failed or degraded; next fallback ran");
          ("RES003", "error", "cascade exhausted: every fallback failed (run error)");
          ("RES004", "warning", "transient failure retried in place on the same rung (bounded, deterministic)");
          ("RES005", "warning", "supervised in-flight recovery: worker death replayed or stalled node requeued; results unaffected");
        ];
      description =
        "degradation-cascade and solve-supervision events recorded \
         against an otherwise accepted run (the Metrics degradation \
         array, mirrored as diagnostics)";
    };
  ]

(* Single choke point every checker wrapper goes through: bump the
   observability counters and return the findings in {!Diag.compare}
   order, so every downstream consumer sees a deterministic report
   whatever order the pass generated them in. *)
let count_diags diags =
  Obs.Counter.incr ~by:(List.length (Diag.errors diags))
    (Obs.Counter.get "analyze.errors");
  Obs.Counter.incr ~by:(List.length (Diag.warnings diags))
    (Obs.Counter.get "analyze.warnings");
  List.sort Diag.compare diags

let check_cdfg g =
  Obs.span ~cat:"analyze" "analyze" (fun () -> count_diags (Cdfg_lint.check g))

let preflight ?strict_period cfg g =
  Obs.span ~cat:"analyze" "analyze" (fun () ->
      count_diags (Preflight.check ?strict_period cfg g))

let check_model m =
  Obs.span ~cat:"analyze" "analyze" (fun () -> count_diags (Lp_lint.check m))

let check_netlist nl =
  Obs.span ~cat:"analyze" "analyze" (fun () -> count_diags (Net_lint.check nl))

let check_certificate ctx g cover sched =
  Obs.span ~cat:"analyze" "analyze" (fun () ->
      count_diags (Cert.check ctx g cover sched))

let check_audit model result =
  Obs.span ~cat:"analyze" "analyze" (fun () ->
      let cut_lint =
        match result.Lp.Milp.cert with
        | Some c when c.Lp.Cert.cuts <> [] ->
            Lp_lint.check_cuts ~n:(Lp.Model.num_vars model) c.Lp.Cert.cuts
        | _ -> []
      in
      count_diags (cut_lint @ Audit.check_result model result))

let static_gate cfg g =
  let diags = check_cdfg g @ preflight cfg g in
  if Diag.has_errors diags then Error diags else Ok diags

let diags_to_json diags =
  List.map Diag.to_json (List.sort Diag.compare diags)

let file ~entries =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int Obs.Metrics.schema_version);
      ( "benchmarks",
        Obs.Json.List
          (List.map
             (fun (name, diags) ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String name);
                   ("errors", Obs.Json.Int (List.length (Diag.errors diags)));
                   ( "warnings",
                     Obs.Json.Int (List.length (Diag.warnings diags)) );
                   ("diagnostics", Obs.Json.List (diags_to_json diags));
                 ])
             entries) );
    ]

let write_file ~path ~entries =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Obs.Json.to_channel oc (file ~entries))
