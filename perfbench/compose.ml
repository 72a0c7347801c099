(* Flows rebuilt from the layers' public functions, with a span around every
   layer call (Span.with_ is a flag test when tracing is off).

   Each function replays the full-strength attempt of one method of
   [Mams.Flow.run]: the lint gate, then the method's scheduler, cut
   enumeration, mapping and MILP calls in the same order and with the same
   arguments, then the post-mapping retiming, verification and QoR. The
   traced run checks that these compositions reproduce [Mams.Flow.run]'s
   status, objective, LUTs and FFs. *)

type design = {
  schedule : Sched.Schedule.t;
  cover : Sched.Cover.t;
  qor : Sched.Qor.t;
}

type milp = {
  status : Lp.Milp.status option;  (** [None]: the MILP never ran *)
  objective : float;
  stats : Lp.Milp.stats option;
  root_probe : (unit -> Lp.Milp.result) option;
      (** the same solve cut to its root node ([~node_limit:1]) *)
}

type outcome = {
  design : (design, string) result;
  milp : milp option;  (** [Some] for MILP methods *)
  degraded : string list;  (** degradation trail labels *)
}

let span = Span.with_
let failed msg = { design = Error msg; milp = None; degraded = [] }

let cut_params (s : Mams.Flow.setup) =
  match s.cut_params with
  | Some p -> p
  | None -> Cuts.default_params ~k:s.device.Fpga.Device.k

let enumerate (s : Mams.Flow.setup) g =
  let cuts =
    span "cuts.enum" (fun () ->
        Cuts.enumerate ~params:(cut_params s) ~k:s.device.Fpga.Device.k g)
  in
  Span.count "cuts.count" (float_of_int (Cuts.total_cuts cuts));
  cuts

let techmap f =
  let cover = span "techmap.map" f in
  Span.count "techmap.lut_area" (float_of_int (Sched.Cover.lut_area cover));
  cover

let map_schedule (s : Mams.Flow.setup) ~cuts g sched =
  techmap (fun () ->
      Techmap.map_schedule ~device:s.device ~delays:s.delays ~cuts g sched)

let map_global (s : Mams.Flow.setup) ~cuts g =
  techmap (fun () ->
      Techmap.map_global ~device:s.device ~delays:s.delays ~cuts g)

let schedule f =
  match span "sched.schedule" f with
  | Ok sched -> Ok sched
  | Error e -> Error (Fmt.str "%a" Sched.Heuristic.pp_error e)

let heuristic ?(delays : Fpga.Delays.t option) (s : Mams.Flow.setup) g =
  let delays = Option.value delays ~default:s.delays in
  schedule (fun () ->
      Sched.Heuristic.schedule ~device:s.device ~delays ~resources:s.resources
        ~ii:s.ii g)

(* Post-mapping retiming, legality check and QoR, as every flow ends. *)
let finalize (s : Mams.Flow.setup) g cover sched =
  let sched =
    Sched.Timing.recompute_starts ~device:s.device ~delays:s.delays g cover
      sched
  in
  let ctx =
    { Sched.Verify.device = s.device; delays = s.delays; resources = s.resources }
  in
  match span "sched.verify" (fun () -> Sched.Verify.check ctx g cover sched) with
  | Error errs -> Error ("verify: " ^ String.concat "; " errs)
  | Ok () ->
      let qor =
        span "sched.qor" (fun () ->
            Sched.Qor.evaluate ~device:s.device ~delays:s.delays g cover sched)
      in
      Ok { schedule = sched; cover; qor }

let plain design = { design; milp = None; degraded = [] }

let hls s g =
  plain
    (Result.bind (heuristic s g) (fun sched ->
         let cuts = enumerate s g in
         finalize s g (map_schedule s ~cuts g sched) sched))

let sdc (s : Mams.Flow.setup) g =
  plain
    (Result.bind
       (schedule (fun () ->
            Sched.Sdc.schedule ~device:s.device ~delays:s.delays
              ~resources:s.resources ~ii:s.ii g))
       (fun sched ->
         let cuts = enumerate s g in
         finalize s g (map_schedule s ~cuts g sched) sched))

let map_first (s : Mams.Flow.setup) g =
  let cuts = enumerate s g in
  let cover = map_global s ~cuts g in
  plain
    (Result.bind
       (schedule (fun () ->
            Sched.Mapsched.schedule ~device:s.device ~delays:s.delays
              ~resources:s.resources ~ii:s.ii g cover))
       (fun sched -> finalize s g cover sched))

(* The MILP flows. *)
let milp (s : Mams.Flow.setup) g ~mapping_aware =
  match heuristic s g with
  | Error e -> failed e
  | Ok base_sched -> (
      let cuts =
        if mapping_aware then enumerate s g else Cuts.trivial_only g
      in
      (* The warm start must be feasible under the formulation's own delay
         model, which prices every trivial logic cut at one LUT delay. *)
      let warm_sched =
        if not mapping_aware then Some base_sched
        else
          let delays =
            Fpga.Delays.with_logic s.delays ~logic:s.device.Fpga.Device.lut_delay
          in
          Result.to_option (heuristic ~delays s g)
      in
      let max_latency =
        List.fold_left
          (fun acc sched -> max acc (Sched.Schedule.latency sched))
          (Sched.Schedule.latency base_sched)
          (Option.to_list warm_sched)
      in
      let cfg =
        {
          Mams.Formulation.device = s.device;
          delays = s.delays;
          resources = s.resources;
          ii = s.ii;
          max_latency;
          alpha = s.alpha;
          beta = s.beta;
          cut_delay =
            (if mapping_aware then
               Mams.Formulation.mapped_delay ~device:s.device ~delays:s.delays
             else Mams.Formulation.additive_delay ~delays:s.delays);
        }
      in
      let f = span "core.build" (fun () -> Mams.Formulation.build cfg g cuts) in
      let model = Mams.Formulation.model f in
      Span.count "core.rows" (float_of_int (Lp.Model.num_constraints model));
      Span.count "core.vars" (float_of_int (Lp.Model.num_vars model));
      let try_incumbent sched cover =
        let sched =
          Sched.Timing.recompute_starts ~device:s.device ~delays:s.delays g
            cover sched
        in
        match Mams.Formulation.incumbent_of_schedule f sched cover with
        | exception Invalid_argument _ -> None
        | x -> (
            match
              Lp.Model.check model ~values:(fun v -> x.(Lp.Model.var_index v)) ()
            with
            | Ok () -> Some x
            | Error _ -> None)
      in
      (* Same candidate order as the flow: map-first cover, then the warm
         schedule mapped downstream, then the all-trivial cover. *)
      let incumbent =
        span "core.warm_start" @@ fun () ->
        match warm_sched with
        | None -> None
        | Some ws ->
            let trivial () =
              try_incumbent ws (Sched.Cover.all_trivial g (Cuts.trivial_only g))
            in
            let candidates =
              if not mapping_aware then [ trivial ]
              else
                [
                  (fun () ->
                    let cover = map_global s ~cuts g in
                    match
                      schedule (fun () ->
                          Sched.Mapsched.schedule ~device:s.device
                            ~delays:s.delays ~resources:s.resources ~ii:s.ii g
                            cover)
                    with
                    | Ok ms when Sched.Schedule.latency ms <= max_latency ->
                        try_incumbent ms cover
                    | Ok _ | Error _ -> None);
                  (fun () -> try_incumbent ws (map_schedule s ~cuts g ws));
                  trivial;
                ]
            in
            List.fold_left
              (fun acc c -> match acc with Some _ -> acc | None -> c ())
              None candidates
      in
      Span.count "core.warm_start_tries" 1.0;
      if Option.is_some incumbent then Span.count "core.warm_start_hit" 1.0;
      let solve ?node_limit () =
        Lp.Milp.solve ~time_limit:s.time_limit ?node_limit ?incumbent
          ~branch_priority:(Mams.Formulation.branch_priorities f)
          ?domains:s.domains ~certificates:s.audit ?cuts:s.cuts
          ?presolve:s.presolve model
      in
      let r = span "milp.solve" (fun () -> solve ()) in
      let st = r.Lp.Milp.stats in
      Span.count "milp.nodes" (float_of_int st.Lp.Milp.nodes);
      Span.count "milp.pivots" (float_of_int st.Lp.Milp.lp_iterations);
      Span.count "milp.warm_hits" (float_of_int st.Lp.Milp.warm_hits);
      Span.count "lp.cuts_applied" (float_of_int st.Lp.Milp.cuts_applied);
      if Float.is_finite st.Lp.Milp.first_incumbent_s then begin
        Span.count "milp.first_incumbent_s" st.Lp.Milp.first_incumbent_s;
        Span.count "milp.first_incumbent_n" 1.0
      end;
      if Float.is_finite st.Lp.Milp.gap_closed_root then begin
        Span.count "lp.gap_closed_root" st.Lp.Milp.gap_closed_root;
        Span.count "lp.gap_closed_root_n" 1.0
      end;
      let milp =
        Some
          {
            status = Some r.Lp.Milp.status;
            objective = r.Lp.Milp.objective;
            stats = Some st;
            root_probe = Some (fun () -> solve ~node_limit:1 ());
          }
      in
      match r.Lp.Milp.status with
      | Lp.Milp.Infeasible | Lp.Milp.Unbounded | Lp.Milp.Unknown ->
          {
            design = Error (Fmt.str "MILP failed: %a" Lp.Milp.pp_status r.Lp.Milp.status);
            milp;
            degraded = [];
          }
      | Lp.Milp.Optimal | Lp.Milp.Feasible ->
          let degraded =
            if st.Lp.Milp.lp_limited > 0 then
              [ (if mapping_aware then "milp-map.solve" else "milp-base.solve") ]
            else []
          in
          let sched, cover =
            span "core.extract" (fun () -> Mams.Formulation.extract f r)
          in
          let design =
            if mapping_aware then finalize s g cover sched
            else
              (* MILP-base maps the exact schedule downstream. *)
              let cuts_full = enumerate s g in
              finalize s g (map_schedule s ~cuts:cuts_full g sched) sched
          in
          { design; milp; degraded })

let lint (s : Mams.Flow.setup) g =
  span "analyze.lint" (fun () ->
      Analyze.Engine.static_gate
        {
          Analyze.Preflight.device = s.device;
          delays = s.delays;
          resources = s.resources;
          ii = s.ii;
        }
        g)

let run (s : Mams.Flow.setup) (m : Mams.Flow.method_) g =
  match lint s g with
  | Error diags -> failed ("lint gate: " ^ Analyze.Diag.summary diags)
  | Ok _ -> (
      match m with
      | Mams.Flow.Hls_tool -> hls s g
      | Mams.Flow.Sdc_tool -> sdc s g
      | Mams.Flow.Map_heuristic -> map_first s g
      | Mams.Flow.Milp_base -> milp s g ~mapping_aware:false
      | Mams.Flow.Milp_map -> milp s g ~mapping_aware:true)

(* The same outcome shape for a [Mams.Flow.run] result. *)
let of_flow (m : Mams.Flow.method_) = function
  | Error e -> failed e
  | Ok (r : Mams.Flow.result) ->
      let milp =
        match m with
        | Mams.Flow.Milp_base | Mams.Flow.Milp_map ->
            let info = r.Mams.Flow.solve in
            Some
              {
                status = info.Mams.Flow.milp_status;
                objective =
                  Option.value info.Mams.Flow.milp_objective ~default:Float.nan;
                stats = info.Mams.Flow.milp_stats;
                root_probe = None;
              }
        | Mams.Flow.Hls_tool | Mams.Flow.Sdc_tool | Mams.Flow.Map_heuristic ->
            None
      in
      {
        design =
          Ok
            {
              schedule = r.Mams.Flow.schedule;
              cover = r.Mams.Flow.cover;
              qor = r.Mams.Flow.qor;
            };
        milp;
        degraded =
          List.map (fun (a : Resilience.Cascade.attempt) -> a.label) r.Mams.Flow.trail;
      }
