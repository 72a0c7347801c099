type method_ = Hls_tool | Sdc_tool | Milp_base | Milp_map | Map_heuristic

type setup = {
  device : Fpga.Device.t;
  delays : Fpga.Delays.t;
  resources : Fpga.Resource.budget;
  ii : int;
  alpha : float;
  beta : float;
  cut_params : Cuts.params option;
  time_limit : float;
  domains : int option;
  audit : bool;
  checkpoint : Lp.Milp.checkpoint_sink option;
  resume : Lp.Checkpoint.t option;
  stall_window : float option;
  cuts : bool option;
      (** root cutting planes; [None] = on *)
  presolve : bool option;  (** certified root bound tightening *)
}

let default_setup ~device =
  {
    device;
    delays = Fpga.Delays.default;
    resources = Fpga.Resource.unlimited;
    ii = 1;
    alpha = 0.5;
    beta = 0.5;
    cut_params = None;
    time_limit = 60.0;
    domains = None;
    audit = false;
    checkpoint = None;
    resume = None;
    stall_window = None;
    cuts = None;
    presolve = None;
  }

let methods =
  [
    ("hls", Hls_tool);
    ("sdc", Sdc_tool);
    ("base", Milp_base);
    ("map", Milp_map);
    ("mapfirst", Map_heuristic);
  ]

module Request = struct
  type t = {
    benchmark : string;
    method_ : method_;
    optimize : bool;
    time_limit : float;
    ii : int;
    k : int;
    alpha : float;
    beta : float;
    audit : bool;
    stall_window : float option;
  }

  let to_json r =
    let open Obs.Json in
    let key = fst (List.find (fun (_, m) -> m = r.method_) methods) in
    Obj
      [
        ("benchmark", String r.benchmark);
        ("method", String key);
        ("time_limit", Float r.time_limit);
        ("ii", Int r.ii);
        ("k", Int r.k);
        ("alpha", Float r.alpha);
        ("beta", Float r.beta);
        ("optimize", Bool r.optimize);
        ("audit", Bool r.audit);
        ( "stall_window",
          match r.stall_window with Some s -> Float s | None -> Null );
      ]

  exception Missing of string

  let of_json j =
    let open Obs.Json in
    (* An absent or mistyped field takes its [default]; without one, the
       request cannot be rebuilt. *)
    let field ?default name conv =
      match (Option.bind (member name j) conv, default) with
      | Some v, _ | None, Some v -> v
      | None, None -> raise_notrace (Missing name)
    in
    let str = function String s -> Some s | _ -> None in
    let int = function Int i -> Some i | _ -> None in
    let bool = function Bool b -> Some b | _ -> None in
    let key v = Option.bind (str v) (fun key -> List.assoc_opt key methods) in
    match
      {
        benchmark = field "benchmark" str;
        method_ = field "method" key;
        optimize = field "optimize" bool ~default:false;
        time_limit = field "time_limit" number;
        ii = field "ii" int;
        k = field "k" int;
        alpha = field "alpha" number;
        beta = field "beta" number;
        audit = field "audit" bool ~default:false;
        stall_window =
          field "stall_window" (fun v -> Some (number v)) ~default:None;
      }
    with
    | r -> Ok r
    | exception Missing name -> Error ("missing or malformed " ^ name)
end

type solve_info = {
  runtime : float;
  milp_status : Lp.Milp.status option;
  milp_stats : Lp.Milp.stats option;
  milp_objective : float option;
  model_size : string option;
  cert_nodes : int;
  audit_diags : Analyze.Diag.t list option;
      (** exact-rational audit findings; [None] when the audit did not
          run (heuristic flow or [setup.audit = false]) *)
}

type result = {
  method_ : method_;
  schedule : Sched.Schedule.t;
  cover : Sched.Cover.t;
  qor : Sched.Qor.t;
  solve : solve_info;
  metrics : Obs.Json.t;
  trail : Resilience.Cascade.attempt list;
}

let method_name = function
  | Hls_tool -> "HLS Tool"
  | Sdc_tool -> "SDC"
  | Milp_base -> "MILP-base"
  | Milp_map -> "MILP-map"
  | Map_heuristic -> "Map-first"

(* Degradation trail entries double as diagnostics: RES001 for contained
   exceptions, RES002 for every other failed/degraded attempt, RES004 for
   a bounded same-rung retry of a transient failure, RES005 for solve
   supervision recoveries (worker deaths replayed, watchdog requeues)
   inside an accepted solve. Cascade exhaustion is RES003 (see the error
   message in [run]). *)
let trail_diags trail =
  List.map
    (fun { Resilience.Cascade.label; reason; detail; retry; _ } ->
      let code, message =
        if retry > 0 then
          ( "RES004",
            Printf.sprintf
              "attempt '%s' retried in place (try %d, %s): transient failure \
               class, same rung re-run before degrading"
              label retry reason )
        else if reason = "recovery" then
          ( "RES005",
            Printf.sprintf "attempt '%s' recovered in flight: %s" label detail )
        else if reason = "exception" then
          ( "RES001",
            Printf.sprintf
              "attempt '%s' raised; exception contained, cascade continued"
              label )
        else ("RES002", Printf.sprintf "attempt '%s' degraded (%s)" label reason)
      in
      Analyze.Diag.make ~witness:[ detail ] Analyze.Diag.Warning ~code
        ~pass:"resilience.cascade" ~loc:Analyze.Diag.Global message)
    trail

let heuristic_info = { runtime = 0.0; milp_status = None; milp_stats = None;
                       milp_objective = None; model_size = None;
                       cert_nodes = 0; audit_diags = None }

let status_of solve =
  match solve.milp_status with
  | Some s -> Fmt.str "%a" Lp.Milp.pp_status s
  | None -> "heuristic"

(* The schema-v9 result row (README.md "Observability"); every row of a
   metrics file is written here. Methods that never entered the MILP
   report null, not 0, for solve_s/bnb_nodes/lp_pivots: a real solve
   always explores at least the root node, so 0.0/0 would read as an
   instant exact solve. *)
let row ~name method_ ~status ~lut ~ff ~slack ~cuts_total ~gc:(minor, major)
    ~diagnostics ~degradation solve =
  let stat f ~none =
    match solve.milp_stats with Some s -> f s | None -> none
  in
  let nodes_per_s (s : Lp.Milp.stats) =
    if s.Lp.Milp.nodes > 0 && solve.runtime > 1e-9 then
      float_of_int s.Lp.Milp.nodes /. solve.runtime
    else Float.nan
  in
  Obs.Json.(
    Obj
      [
        ("name", String name);
        ("method", String (method_name method_));
        ("lut", Int lut);
        ("ff", Int ff);
        ("slack", Float slack);
        ("solve_s", stat (fun _ -> Float solve.runtime) ~none:Null);
        ("bnb_nodes", stat (fun s -> Int s.Lp.Milp.nodes) ~none:Null);
        ( "lp_pivots",
          stat (fun s -> Int s.Lp.Milp.lp_iterations) ~none:Null );
        ("cuts_total", Int cuts_total);
        ( "first_incumbent_s",
          Float (stat (fun s -> s.Lp.Milp.first_incumbent_s) ~none:Float.nan) );
        ("final_gap", Float (stat (fun s -> s.Lp.Milp.gap) ~none:Float.nan));
        ("status", String status);
        ( "objective",
          Float (Option.value ~default:Float.nan solve.milp_objective) );
        ("domains", Int (stat (fun s -> s.Lp.Milp.domains) ~none:1));
        ("nodes_per_s", Float (stat nodes_per_s ~none:Float.nan));
        ("cert_nodes", Int solve.cert_nodes);
        ( "audit_errors",
          match solve.audit_diags with
          | Some d -> Int (List.length (Analyze.Diag.errors d))
          | None -> Null );
        ("milp_cuts", Int (stat (fun s -> s.Lp.Milp.cuts_applied) ~none:0));
        ( "gap_closed_root",
          Float (stat (fun s -> s.Lp.Milp.gap_closed_root) ~none:Float.nan) );
        ("checkpoints", Int (stat (fun s -> s.Lp.Milp.checkpoints) ~none:0));
        ("recoveries", Int (stat (fun s -> s.Lp.Milp.recoveries) ~none:0));
        ("stalls", Int (stat (fun s -> s.Lp.Milp.stalls) ~none:0));
        ("gc_minor_words", Float minor);
        ("gc_major_words", Float major);
        ("diagnostics", List diagnostics);
        ("degradation", List degradation);
      ])

(* [run] leaves the name empty: the caller knows the benchmark. *)
let metrics ~name r =
  match r.metrics with
  | Obs.Json.Obj (("name", _) :: fields) ->
      Obs.Json.Obj (("name", Obs.Json.String name) :: fields)
  | j -> j

let error_metrics ~name method_ =
  row ~name method_ ~status:"error" ~lut:0 ~ff:0 ~slack:Float.nan
    ~cuts_total:0 ~gc:(0.0, 0.0) ~diagnostics:[] ~degradation:[]
    heuristic_info

let verify_ctx (s : setup) : Sched.Verify.context =
  let device = s.device and delays = s.delays and resources = s.resources in
  { Sched.Verify.device; delays; resources }

(* Soft degradations — truncated cut enumeration, degraded mapping, numeric
   trouble inside an otherwise accepted solve — are collected here and
   merged into the trail of whichever attempt eventually wins. *)
type ctx = { notes : Resilience.Cascade.attempt list ref }

let note ctx ~label ~reason ~detail =
  ctx.notes :=
    { Resilience.Cascade.label; reason; detail; elapsed = 0.0; retry = 0 }
    :: !(ctx.notes)

(* Final QoR is always measured under the mapped delay model — the analogue
   of post-place-and-route reporting. *)
let finalize setup g ~cuts_total cover sched solve method_ =
  let sched =
    Sched.Timing.recompute_starts ~device:setup.device ~delays:setup.delays g
      cover sched
  in
  if Obs.recording () then
    Obs.emit ~cat:"flow" "flow.phase" [ ("phase", Obs.Json.String "verify") ];
  match
    Obs.span ~cat:"flow" "flow.verify" (fun () ->
        Sched.Verify.check (verify_ctx setup) g cover sched)
  with
  | Error errs ->
      let diags = Analyze.Cert.of_messages errs in
      Error
        ( "verify",
          Printf.sprintf "%s: illegal result: %s" (method_name method_)
            (String.concat "; "
               (List.map
                  (fun (d : Analyze.Diag.t) ->
                    d.Analyze.Diag.code ^ " " ^ d.Analyze.Diag.message)
                  diags)) )
  | Ok () ->
      let qor =
        Obs.span ~cat:"flow" "flow.qor" (fun () ->
            Sched.Qor.evaluate ~device:setup.device ~delays:setup.delays g
              cover sched)
      in
      (* [finish] writes the row and the trail once the cascade is over;
         the cut count travels with the result until then. *)
      Ok
        ( cuts_total,
          { method_; schedule = sched; cover; qor; solve;
            metrics = Obs.Json.Null; trail = [] } )

(* [f] under a [truncated] flag: a call that reached its deadline notes
   a timeout under [label]. *)
let noting_timeout ctx ~label ~detail f =
  let truncated = ref false in
  let x = f truncated in
  if !truncated then note ctx ~label ~reason:"timeout" ~detail;
  x

let enum_cuts ?(coarse = false) ~deadline setup ctx g =
  let params =
    match setup.cut_params with
    | Some p -> p
    | None -> Cuts.default_params ~k:setup.device.Fpga.Device.k
  in
  (* Coarser enumeration, map-first's degraded retry: fewer cuts kept and
     far fewer merge candidates explored, so a different cover. *)
  let params =
    if coarse then
      {
        params with
        Cuts.max_cuts = max 2 (params.Cuts.max_cuts / 2);
        max_candidates = max 16 (params.Cuts.max_candidates / 4);
      }
    else params
  in
  noting_timeout ctx ~label:"cuts.enumerate"
    ~detail:
      "cut enumeration truncated at deadline; unfinished nodes keep their \
       trivial cut"
    (fun truncated ->
      Cuts.enumerate ~params ~deadline ~truncated ~k:setup.device.Fpga.Device.k g)

let map_with ~deadline setup ctx ~cuts g sched =
  noting_timeout ctx ~label:"techmap.map"
    ~detail:"area-flow labelling degraded to trivial cuts at deadline"
    (fun truncated ->
      Techmap.map_schedule ~deadline ~truncated ~device:setup.device
        ~delays:setup.delays ~cuts g sched)

let map_global_with ~deadline setup ctx ~cuts g =
  noting_timeout ctx ~label:"techmap.map"
    ~detail:"global area-flow labelling degraded to trivial cuts at deadline"
    (fun truncated ->
      Techmap.map_global ~deadline ~truncated ~device:setup.device
        ~delays:setup.delays ~cuts g)

let baseline setup g =
  Result.map_error
    (fun e ->
      ( "schedule",
        Fmt.str "heuristic baseline failed: %a" Sched.Heuristic.pp_error e ))
    (Obs.span ~cat:"flow" "flow.baseline" (fun () ->
         Sched.Heuristic.schedule ~device:setup.device ~delays:setup.delays
           ~resources:setup.resources ~ii:setup.ii g))

(* SDC modulo scheduling (the LegUp/Vivado-HLS style baseline, refs [22]
   and [3] of the paper). *)
let sdc setup g =
  Result.map_error
    (fun e ->
      ("schedule", Fmt.str "SDC scheduling failed: %a" Sched.Heuristic.pp_error e))
    (Sched.Sdc.schedule ~device:setup.device ~delays:setup.delays
       ~resources:setup.resources ~ii:setup.ii g)

(* Downstream mapping under a fixed schedule: cut enumeration, cover,
   final QoR. With [trivial] the attempt skips cut enumeration, and so
   (having no LP or MILP either) survives every fault point. *)
let map_downstream ?(trivial = false) ~deadline ~as_ setup ctx g sched solve =
  let cuts =
    if trivial then Cuts.trivial_only ~k:setup.device.Fpga.Device.k g
    else enum_cuts ~deadline setup ctx g
  in
  let cover = map_with ~deadline setup ctx ~cuts g sched in
  finalize setup g ~cuts_total:(Cuts.total_cuts cuts) cover sched solve as_

(* Schedule first, then map under that schedule. *)
let schedule_then_map schedule ?trivial ~deadline ~as_ setup ctx g =
  match schedule setup g with
  | Error _ as e -> e
  | Ok sched ->
      map_downstream ?trivial ~deadline ~as_ setup ctx g sched heuristic_info

(* HLS-Tool: heuristic schedule + downstream mapping. Its [trivial] run is
   the terminal fallback of every cascade. *)
let run_hls = schedule_then_map baseline

(* SDC with the same downstream mapping as the HLS flow. *)
let run_sdc = schedule_then_map sdc

(* Map-first (the paper's future-work heuristic): area-flow cover of the
   whole graph, then cover-aware ASAP modulo scheduling. *)
let map_first ~deadline setup ctx ~cuts g =
  let cover = map_global_with ~deadline setup ctx ~cuts g in
  Result.map
    (fun sched -> (cover, sched))
    (Sched.Mapsched.schedule ~device:setup.device ~delays:setup.delays
       ~resources:setup.resources ~ii:setup.ii g cover)

let run_map_first ?(coarse = false) ?(trivial = false) ~deadline ~as_ setup
    ctx g =
  let cuts =
    if trivial then Cuts.trivial_only ~k:setup.device.Fpga.Device.k g
    else enum_cuts ~coarse ~deadline setup ctx g
  in
  match map_first ~deadline setup ctx ~cuts g with
  | Error e ->
      Error ("schedule", Fmt.str "map-first failed: %a" Sched.Heuristic.pp_error e)
  | Ok (cover, sched) ->
      finalize setup g ~cuts_total:(Cuts.total_cuts cuts) cover sched
        heuristic_info as_

type problem = {
  baseline : Sched.Schedule.t;
  config : Formulation.config;
  cuts : Cuts.t;
  formulation : Formulation.t;
  incumbent : float array option;
}

(* The MILP a MILP rung solves: its cuts (enumerated under [deadline]),
   the latency bound of the heuristic schedules, the delay model, and, for
   MILP-map, the map-first design as its warm start. *)
let milp_problem ~deadline setup ctx g ~mapping_aware =
  match baseline setup g with
  | Error e -> Error e
  | Ok base_sched ->
      let cuts =
        if mapping_aware then enum_cuts ~deadline setup ctx g
        else Cuts.trivial_only ~k:setup.device.Fpga.Device.k g
      in
      (* MILP-map prices every trivial logic cut at one LUT delay, which
         can exceed the characterized delay, so its latency bound also
         admits the heuristic schedule with logic delays pinned to the LUT
         delay. *)
      let max_latency =
        let base = Sched.Schedule.latency base_sched in
        if not mapping_aware then base
        else
          let warm_delays =
            Fpga.Delays.with_logic setup.delays
              ~logic:setup.device.Fpga.Device.lut_delay
          in
          match
            Sched.Heuristic.schedule ~device:setup.device ~delays:warm_delays
              ~resources:setup.resources ~ii:setup.ii g
          with
          | Ok s -> max base (Sched.Schedule.latency s)
          | Error _ -> base
      in
      let config =
        Formulation.
          {
            device = setup.device;
            delays = setup.delays;
            resources = setup.resources;
            ii = setup.ii;
            max_latency;
            alpha = setup.alpha;
            beta = setup.beta;
            cut_delay =
              (if mapping_aware then
                 Formulation.mapped_delay ~device:setup.device
                   ~delays:setup.delays
               else Formulation.additive_delay ~delays:setup.delays);
          }
      in
      let f = Formulation.build config g cuts in
      (* MILP-map starts from the map-first design when it fits the
         latency bound and the model accepts it. MILP-base starts cold: a
         seed there moves no node and no pivot. *)
      let incumbent =
        if not mapping_aware then None
        else
          Obs.span ~cat:"flow" "flow.warm-start" @@ fun () ->
          match map_first ~deadline setup ctx ~cuts g with
          | Error _ -> None
          | Ok (_, sched) when Sched.Schedule.latency sched > max_latency -> None
          | Ok (cover, sched) -> (
              let sched =
                Sched.Timing.recompute_starts ~device:setup.device
                  ~delays:setup.delays g cover sched
              in
              match Formulation.incumbent_of_schedule f sched cover with
              | exception Invalid_argument _ -> None
              | x -> (
                  match
                    Lp.Model.check (Formulation.model f)
                      ~values:(fun v -> x.(Lp.Model.var_index v))
                      ()
                  with
                  | Ok () -> Some x
                  | Error msg ->
                      if Obs.recording () then
                        Obs.emit ~cat:"flow" "flow.warm_start_dropped"
                          [ ("reason", Obs.Json.String msg) ];
                      None))
      in
      Ok { baseline = base_sched; config; cuts; formulation = f; incumbent }

let problem setup method_ g =
  match method_ with
  | Milp_base | Milp_map ->
      Result.map_error snd
        (milp_problem ~deadline:Resilience.Deadline.none setup
           { notes = ref [] } g ~mapping_aware:(method_ = Milp_map))
  | Hls_tool | Sdc_tool | Map_heuristic ->
      Error (method_name method_ ^ " solves no MILP")

let run_milp ?resume ~deadline ~as_ setup ctx g ~mapping_aware =
  (* Phase budgeting inside the attempt: cumulative checkpoints, so cheap
     phases donate their slack to the solver. Only MILP-base maps after
     the solve; MILP-map's solve may run to the attempt's deadline. *)
  let phases =
    Resilience.Deadline.split deadline
      (if mapping_aware then [ ("cuts", 0.2); ("solve", 0.8) ]
       else [ ("cuts", 0.2); ("solve", 0.6); ("map", 0.2) ])
  in
  let phase name = List.assoc name phases in
  match
    milp_problem ~deadline:(phase "cuts") setup ctx g ~mapping_aware
  with
  | Error e -> Error e
  | Ok { cuts; formulation = f; incumbent; _ } -> (
      let t0 = Obs.Clock.wall () in
      if Obs.recording () then
        Obs.emit ~cat:"flow" "flow.phase" [ ("phase", Obs.Json.String "solve") ];
      let r =
        Obs.span ~cat:"flow" "flow.solve" (fun () ->
            Lp.Milp.solve ~time_limit:setup.time_limit
              ~deadline:(phase "solve") ?incumbent
              ~branch_priority:(Formulation.branch_priorities f)
              ?domains:setup.domains ~certificates:setup.audit
              ?checkpoint:setup.checkpoint ?resume
              ?stall_window:setup.stall_window ?cuts:setup.cuts
              ?presolve:setup.presolve
              (Formulation.model f))
      in
      (* A resumed solve reports cumulative stats ([stats.nodes] counts
         the checkpoint's nodes too), so solve_s / nodes_per_s must use
         the cumulative wall clock, not just this invocation's. *)
      let runtime =
        match resume with
        | Some _ -> r.Lp.Milp.stats.Lp.Milp.elapsed
        | None -> Obs.Clock.wall () -. t0
      in
      (* Supervised recovery replays a dead worker's subtree or requeues a
         watchdog-cancelled node; results are unaffected (DESIGN.md §3i)
         but the event belongs in the degradation log. *)
      if r.Lp.Milp.stats.Lp.Milp.recoveries > 0 then
        note ctx
          ~label:(if mapping_aware then "milp-map.solve" else "milp-base.solve")
          ~reason:"recovery"
          ~detail:
            (Fmt.str
               "%d in-flight recover(s) (worker replay / watchdog requeue); \
                results unaffected"
               r.Lp.Milp.stats.Lp.Milp.recoveries);
      (* Opt-in proof audit: re-verify the solve's certificate in exact
         rational arithmetic. Observational — findings land in the
         metrics (and the audit_errors field CI gates on), they never
         change the flow's result. *)
      let audit_diags =
        if setup.audit then
          Some
            (Obs.span ~cat:"flow" "flow.audit" (fun () ->
                 Analyze.Engine.check_audit (Formulation.model f) r))
        else None
      in
      let solve =
        {
          runtime;
          milp_status = Some r.Lp.Milp.status;
          milp_stats = Some r.Lp.Milp.stats;
          milp_objective = Some r.Lp.Milp.objective;
          model_size = Some (Formulation.size f);
          cert_nodes =
            (match r.Lp.Milp.cert with
            | Some c -> List.length c.Lp.Cert.nodes
            | None -> 0);
          audit_diags;
        }
      in
      match r.Lp.Milp.status with
      | Lp.Milp.Infeasible | Lp.Milp.Unbounded | Lp.Milp.Unknown ->
          let reason =
            match r.Lp.Milp.status with
            | Lp.Milp.Infeasible -> "infeasible"
            | Lp.Milp.Unbounded -> "unbounded"
            | Lp.Milp.Unknown | Lp.Milp.Optimal | Lp.Milp.Feasible ->
                "unknown"
          in
          Error
            ( reason,
              Fmt.str "MILP failed: %a after %.1fs" Lp.Milp.pp_status
                r.Lp.Milp.status runtime )
      | Lp.Milp.Optimal | Lp.Milp.Feasible ->
          (* Numeric trouble inside an accepted solve is a soft
             degradation: the incumbent is feasible and verified, but
             optimality was not certified. *)
          if r.Lp.Milp.stats.Lp.Milp.lp_limited > 0 then
            note ctx
              ~label:(if mapping_aware then "milp-map.solve" else "milp-base.solve")
              ~reason:"numeric"
              ~detail:
                (Fmt.str
                   "%d node LP(s) hit the pivot cap; result kept, optimality \
                    not certified"
                   r.Lp.Milp.stats.Lp.Milp.lp_limited);
          let sched, cover = Formulation.extract f r in
          if mapping_aware then
            finalize setup g ~cuts_total:(Cuts.total_cuts cuts) cover
              sched solve as_
          else
            (* MILP-base: exact schedule, then the same downstream mapping
               as the commercial flow. *)
            map_downstream ~deadline:(phase "map") ~as_ setup ctx g sched
              solve)

let preflight_config (s : setup) =
  {
    Analyze.Preflight.device = s.device;
    delays = s.delays;
    resources = s.resources;
    ii = s.ii;
  }

let lint setup g = Analyze.Engine.static_gate (preflight_config setup) g

(* The per-method degradation cascade. Ordering rationale (DESIGN.md 3d):
   full strength first; then, for the heuristics, relaxations that keep
   the method's character (coarser or trivial cuts; a MILP on fewer cuts
   would replay every fault and timeout of its full rung); then a
   different algorithm of the same family; finally the trivial-cuts
   heuristic, which touches neither cut enumeration nor any LP/MILP and
   therefore survives every registered fault point. Every rung runs under
   what is left of the run's one deadline. *)
let steps_of setup ctx method_ g :
    (int * result) Resilience.Cascade.step list =
  let open Resilience.Cascade in
  (* Full-strength MILP rungs are worth one in-place retry on a transient
     exception before the cascade degrades the formulation; every other
     rung degrades immediately (retrying a heuristic replays the same
     deterministic failure). *)
  let step ?(retries = 0) slabel run = { slabel; retries; run } in
  let hls_fallback label =
    step label (fun dl -> run_hls ~trivial:true ~deadline:dl ~as_:method_ setup ctx g)
  in
  match method_ with
  | Hls_tool ->
      [
        step "hls.full" (fun dl -> run_hls ~deadline:dl ~as_:method_ setup ctx g);
        hls_fallback "hls.trivial-cuts";
      ]
  | Sdc_tool ->
      [
        step "sdc.full" (fun dl -> run_sdc ~deadline:dl ~as_:method_ setup ctx g);
        step "sdc.trivial-cuts" (fun dl ->
            run_sdc ~trivial:true ~deadline:dl ~as_:method_ setup ctx g);
        hls_fallback "sdc.hls-fallback";
      ]
  | Map_heuristic ->
      [
        step "map-first.full" (fun dl ->
            run_map_first ~deadline:dl ~as_:method_ setup ctx g);
        step "map-first.coarse-cuts" (fun dl ->
            run_map_first ~coarse:true ~deadline:dl ~as_:method_ setup ctx g);
        step "map-first.trivial-cuts" (fun dl ->
            run_map_first ~trivial:true ~deadline:dl ~as_:method_ setup ctx g);
      ]
  | Milp_base ->
      [
        step "milp-base.full" ~retries:1 (fun dl ->
            run_milp ?resume:setup.resume ~deadline:dl ~as_:method_ setup ctx g
              ~mapping_aware:false);
        step "milp-base.sdc-fallback" (fun dl ->
            run_sdc ~deadline:dl ~as_:method_ setup ctx g);
        hls_fallback "milp-base.hls-fallback";
      ]
  | Milp_map ->
      [
        step "milp-map.full" ~retries:1 (fun dl ->
            run_milp ?resume:setup.resume ~deadline:dl ~as_:method_ setup ctx g
              ~mapping_aware:true);
        step "milp-map.map-first" (fun dl ->
            run_map_first ~deadline:dl ~as_:method_ setup ctx g);
        hls_fallback "milp-map.hls-fallback";
      ]

(* (minor, major) words this domain allocated so far. [Gc.quick_stat]
   counts both only up to the last minor collection, so a run that
   allocates less than a minor heap would read 0. [Gc.counters] counts
   the major words exactly, but on OCaml 5.1 only an eighth of the minor
   words allocated since the last minor collection; [Gc.minor_words]
   counts those exactly. *)
let gc_words () =
  let _, _, major = Gc.counters () in
  (Gc.minor_words (), major)

(* The winning attempt's result with its trail (the cascade's failed
   attempts, then the soft notes) and its row: the GC deltas since [gc0],
   the diagnostics (gate, audit, one RES00x per trail attempt) and the
   degradation array. *)
let finish setup ~gc0:(minor0, major0) ~gate_diags trail (cuts_total, r) =
  let minor1, major1 = gc_words () in
  let metrics =
    row ~name:"" r.method_ ~status:(status_of r.solve)
      ~lut:r.qor.Sched.Qor.luts ~ff:r.qor.Sched.Qor.ffs
      ~slack:(setup.device.Fpga.Device.t_clk -. r.qor.Sched.Qor.cp)
      ~cuts_total
      ~gc:(minor1 -. minor0, major1 -. major0)
      ~diagnostics:
        (Analyze.Engine.diags_to_json
           (gate_diags
           @ Option.value ~default:[] r.solve.audit_diags
           @ trail_diags trail))
      ~degradation:(List.map Resilience.Cascade.attempt_to_json trail)
      r.solve
  in
  { r with metrics; trail }

let run setup method_ g =
  let deadline = Resilience.Deadline.of_budget setup.time_limit in
  Obs.span ~cat:"flow" "flow.run"
    ~args:[ ("method", Obs.Json.String (method_name method_)) ]
  @@ fun () ->
  let log_phase phase =
    if Obs.recording () then
      Obs.emit ~cat:"flow" "flow.phase"
        [
          ("phase", Obs.Json.String phase);
          ("method", Obs.Json.String (method_name method_));
        ]
  in
  log_phase "run";
  (* GC bracket around the whole cascade: [finish] stamps the delta into
     the row (coordinator-domain words; worker-domain allocation is not
     attributed per result). *)
  let gc0 = gc_words () in
  log_phase "lint";
  (* Fail-fast gate: static CDFG lints and the pipelining pre-flight run
     before any cut enumeration or solver cost is paid. Warnings and infos
     are logged and recorded in the result's metrics; errors abort. *)
  match Obs.span ~cat:"flow" "flow.lint" (fun () -> lint setup g) with
  | Error diags ->
      Error
        (Fmt.str "lint gate failed (%s): %s"
           (Analyze.Diag.summary diags)
           (String.concat "; "
              (List.map
                 (fun (d : Analyze.Diag.t) ->
                   d.Analyze.Diag.code ^ " " ^ d.Analyze.Diag.message)
                 (Analyze.Diag.errors diags))))
  | Ok gate_diags -> (
      if Obs.recording ~level:Obs.Log.Warn () then
        List.iter
          (fun d ->
            match Analyze.Diag.to_json d with
            | Obs.Json.Obj fields ->
                Obs.emit ~level:Obs.Log.Warn ~cat:"flow" "flow.lint" fields
            | _ -> ())
          (Analyze.Diag.warnings gate_diags);
      let ctx = { notes = ref [] } in
      match Resilience.Cascade.run ~deadline (steps_of setup ctx method_ g) with
      | Ok { value; trail } ->
          let r =
            finish setup ~gc0 ~gate_diags (trail @ List.rev !(ctx.notes)) value
          in
          if Obs.recording () then
            Obs.emit ~cat:"flow" "flow.phase"
              [
                ("phase", Obs.Json.String "done");
                ("method", Obs.Json.String (method_name method_));
                ("status", Obs.Json.String (status_of r.solve));
              ];
          Ok r
      | Error trail ->
          (* RES003: every attempt failed. This requires the terminal
             heuristic itself to fail (e.g. an unschedulable graph). *)
          Error
            (Fmt.str "RES003 %s: degradation cascade exhausted (%d attempts): %s"
               (method_name method_) (List.length trail)
               (String.concat "; "
                  (List.map
                     (fun a -> Fmt.str "%a" Resilience.Cascade.pp_attempt a)
                     trail))))

let run_all setup g =
  List.map (fun m -> (m, run setup m g)) [ Hls_tool; Milp_base; Milp_map ]

let pp_result ppf r =
  Fmt.pf ppf "%-9s %a" (method_name r.method_) Sched.Qor.pp r.qor;
  (match r.solve.milp_stats with
  | Some s -> Fmt.pf ppf "  [%a]" Lp.Milp.pp_stats s
  | None -> ());
  if r.trail <> [] then
    Fmt.pf ppf "  (degraded: %d attempt%s)" (List.length r.trail)
      (if List.length r.trail = 1 then "" else "s")
