type t = { luts : int; ffs : int; cp : float; latency : int; ii : int }

(* Last external use cycle of each root's value, in the producer's
   iteration frame. *)
let last_uses g cover (sched : Schedule.t) =
  let n = Ir.Cdfg.num_nodes g in
  let last_use = Array.make n min_int in
  Array.iteri
    (fun v c ->
      match c with
      | None -> ()
      | Some cut ->
          Cuts.iter_inputs g cut (fun _ e ->
              let use = sched.cycle.(v) + (sched.ii * e.dist) in
              if use > last_use.(e.src) then last_use.(e.src) <- use))
    cover.Cover.chosen;
  last_use

(* Iterate over every root's live span: [f v avail last_use]. *)
let iter_live_spans g cover (sched : Schedule.t) ~device ~delays f =
  let n = Ir.Cdfg.num_nodes g in
  let latency = Timing.node_latency ~device ~delays g cover in
  let last_use = last_uses g cover sched in
  for v = 0 to n - 1 do
    if Cover.is_root cover v && last_use.(v) > min_int then
      match Ir.Cdfg.op g v with
      | Ir.Op.Const _ -> () (* hardwired *)
      | _ -> f v (sched.cycle.(v) + latency v) last_use.(v)
  done

let ff_bits g cover (sched : Schedule.t) ~device ~delays =
  let total = ref 0 in
  iter_live_spans g cover sched ~device ~delays (fun v avail last ->
      let regs = max 0 (last - avail) in
      total := !total + (regs * Ir.Cdfg.width g v));
  !total

let regs_per_phase g cover (sched : Schedule.t) ~device ~delays =
  let per_phase = Array.make sched.ii 0 in
  iter_live_spans g cover sched ~device ~delays (fun v avail last ->
      for t = avail to last - 1 do
        let m = t mod sched.ii in
        per_phase.(m) <- per_phase.(m) + Ir.Cdfg.width g v
      done);
  per_phase

let evaluate ~device ~delays g cover sched =
  {
    luts = Cover.lut_area cover;
    ffs = ff_bits g cover sched ~device ~delays;
    cp = Timing.achieved_cp ~device ~delays g cover sched;
    latency = Schedule.latency sched;
    ii = sched.Schedule.ii;
  }

let pp ppf t =
  Fmt.pf ppf "CP=%.2fns LUT=%d FF=%d latency=%d II=%d" t.cp t.luts t.ffs
    t.latency t.ii
