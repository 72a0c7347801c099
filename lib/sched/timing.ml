let node_delay ~device ~delays g cover v =
  match Cover.chosen cover v with
  | None -> 0.0
  | Some cut -> Cuts.delay ~device ~delays g cut

let node_latency ~device ~delays g cover v =
  let d = node_delay ~device ~delays g cover v in
  let period = Fpga.Device.usable_period device in
  int_of_float (floor (d /. period))

(* Arrival time of edge [e] at a consumer scheduled in cycle [use_cycle]
   (absolute, producer-iteration frame): 0 if the producing root finished in
   an earlier cycle or the edge is registered; the root's finish time when
   it chains in the same cycle. *)
let arrival ~device ~delays g cover (sched : Schedule.t) starts
    (e : Ir.Cdfg.edge) ~use_cycle =
  if e.dist > 0 then 0.0
  else
    let u = e.src in
    let lat = node_latency ~device ~delays g cover u in
    let avail_cycle = sched.Schedule.cycle.(u) + lat in
    if avail_cycle < use_cycle then 0.0
    else
      (* same cycle (or an illegal future cycle — verification reports it):
         the chained arrival is start + delay, where a multi-cycle
         producer contributes only its final-cycle residual *)
      let d = node_delay ~device ~delays g cover u in
      let residual =
        d -. (float_of_int lat *. Fpga.Device.usable_period device)
      in
      if lat >= 1 then Float.max 0.0 residual else starts.(u) +. d

let recompute_starts ~device ~delays g cover (sched : Schedule.t) =
  let n = Ir.Cdfg.num_nodes g in
  let starts = Array.make n 0.0 in
  (* Process roots in topological order; interior nodes inherit their
     owner's start afterwards. *)
  List.iter
    (fun v ->
      match Cover.chosen cover v with
      | None -> ()
      | Some (cut : Cuts.cut) ->
          (* Arrivals: every input of the cone. *)
          let t = ref 0.0 in
          Cuts.iter_inputs g cut (fun _ e ->
              t :=
                Float.max !t
                  (arrival ~device ~delays g cover sched starts e
                     ~use_cycle:sched.Schedule.cycle.(v)));
          (* multi-cycle roots start at the cycle boundary *)
          starts.(v) <-
            (if node_latency ~device ~delays g cover v >= 1 then 0.0 else !t))
    (Ir.Cdfg.topo_order g);
  Cover.iter_interior g cover (fun v owner -> starts.(v) <- starts.(owner));
  Schedule.make ~ii:sched.Schedule.ii ~cycle:sched.Schedule.cycle ~start:starts

let achieved_cp ~device ~delays g cover (sched : Schedule.t) =
  let cp = ref device.Fpga.Device.lut_delay in
  Array.iteri
    (fun v _ ->
      if Cover.is_root cover v then begin
        let lat = node_latency ~device ~delays g cover v in
        let d = node_delay ~device ~delays g cover v in
        let span = d -. (float_of_int lat *. Fpga.Device.usable_period device) in
        let finish = if lat = 0 then sched.Schedule.start.(v) +. d else span in
        cp := Float.max !cp finish
      end)
    sched.Schedule.cycle;
  !cp
