type error = Recurrence_too_tight of string | Resource_infeasible of string

let pp_error ppf = function
  | Recurrence_too_tight m -> Fmt.pf ppf "recurrence too tight: %s" m
  | Resource_infeasible m -> Fmt.pf ppf "resource infeasible: %s" m

let op_delay ~delays g v =
  let op = Ir.Cdfg.op g v in
  let width =
    (* Arithmetic delay follows the operand width (a 1-bit compare of wide
       operands still walks the whole carry chain). *)
    match op with
    | Ir.Op.Cmp _ -> Ir.Cdfg.width g (Ir.Cdfg.preds g v).(0).Ir.Cdfg.src
    | _ -> Ir.Cdfg.width g v
  in
  Fpga.Delays.additive delays ~cls:(Ir.Op.classify op) ~width

let op_latency ~device ~delays g v =
  let d = op_delay ~delays g v in
  int_of_float (floor (d /. Fpga.Device.usable_period device))

let black_box_uses g =
  let counts = Hashtbl.create 8 in
  Ir.Cdfg.iter
    (fun nd ->
      match nd.op with
      | Ir.Op.Black_box { resource; _ } ->
          Hashtbl.replace counts resource
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts resource))
      | _ -> ())
    g;
  List.of_seq (Hashtbl.to_seq counts)

let res_mii ~resources g =
  List.fold_left
    (fun acc (r, used) ->
      match Fpga.Resource.limit resources r with
      | None -> acc
      | Some 0 -> max_int (* no units at all: no feasible II *)
      | Some lim -> max acc ((used + lim - 1) / lim))
    1 (black_box_uses g)

(* A candidate II is recurrence-feasible iff no dependence cycle carries
   more combinational work than its registers grant it: with edge weights
   d_u / T (fractional cycles of chained delay) minus II·dist for
   registered edges, a positive cycle means the recurrence cannot close.
   This is the continuous relaxation of the scheduling constraints — a
   valid lower bound; the scheduler's fixed point does the exact check.

   [relax] runs the longest-path relaxation in node order for at most
   [rounds] rounds, stopping once a round moves nothing, and returns the
   last node a final round moved, or -1 when it converged. [parent], when
   given, records each node's last improving predecessor. *)
let relax ?parent ~device ~delays ~ii ~rounds g =
  let period = Fpga.Device.usable_period device in
  let dist_arr = Array.make (Ir.Cdfg.num_nodes g) 0.0 in
  let last = ref 0 and round = ref 0 in
  while !last >= 0 && !round < rounds do
    last := -1;
    incr round;
    Ir.Cdfg.iter
      (fun nd ->
        Array.iter
          (fun (e : Ir.Cdfg.edge) ->
            let w =
              (op_delay ~delays g e.src /. period)
              -. float_of_int (ii * e.dist)
            in
            if dist_arr.(e.src) +. w > dist_arr.(nd.id) +. 1e-9 then begin
              dist_arr.(nd.id) <- dist_arr.(e.src) +. w;
              (match parent with Some p -> p.(nd.id) <- e.src | None -> ());
              last := nd.id
            end)
          nd.preds)
      g
  done;
  !last

let recurrence_feasible ~device ~delays ~ii g =
  relax ~device ~delays ~ii ~rounds:(Ir.Cdfg.num_nodes g + 2) g < 0

(* When [n + 1] rounds do not converge, the parent chain from a node the
   last round moved contains the binding cycle. *)
let recurrence_witness ~device ~delays ~ii g =
  let n = Ir.Cdfg.num_nodes g in
  let parent = Array.make n (-1) in
  let last = relax ~parent ~device ~delays ~ii ~rounds:(n + 1) g in
  if last < 0 then None
  else begin
    (* Walk n parent steps to land inside a cycle of the parent graph. *)
    let v = ref last in
    for _ = 1 to n do
      if parent.(!v) >= 0 then v := parent.(!v)
    done;
    (* Find the cycle entry, then collect it. *)
    let seen = Array.make n false in
    let entry = ref (-1) in
    let u = ref !v in
    while !entry < 0 && parent.(!u) >= 0 do
      if seen.(!u) then entry := !u
      else begin
        seen.(!u) <- true;
        u := parent.(!u)
      end
    done;
    if !entry < 0 then None
    else begin
      let start = !entry in
      let rec collect acc u =
        let p = parent.(u) in
        if p = start then u :: acc else collect (u :: acc) p
      in
      Some (collect [] start)
    end
  end

let rec_mii ~device ~delays g =
  let rec go ii =
    if ii > 64 then 64
    else if recurrence_feasible ~device ~delays ~ii g then ii
    else go (ii + 1)
  in
  go 1

let min_ii ~delays ~device ~resources g =
  max (res_mii ~resources g) (rec_mii ~device ~delays g)

type view = {
  order : int list;
  deps : Ir.Cdfg.edge array array;
  delay : int -> float;
  lat : int -> int;
}

let max_cycle g = 4 * (Ir.Cdfg.num_nodes g + 16)

let modulo ~device ~resources ~ii g { order; deps; delay; lat } =
  let n = Ir.Cdfg.num_nodes g in
  let period = Fpga.Device.usable_period device in
  let cycle = Array.make n 0 in
  let start = Array.make n 0.0 in
  let max_cycle = max_cycle g in
  let round () =
    let slot_use : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
    let slot_count key =
      Option.value ~default:0 (Hashtbl.find_opt slot_use key)
    in
    let changed = ref false in
    List.iter
      (fun v ->
        let deps = deps.(v) in
        let cyc_lb = ref 0 in
        Array.iter
          (fun (e : Ir.Cdfg.edge) ->
            let avail = cycle.(e.src) + lat e.src in
            let lb =
              if e.dist = 0 then avail else avail + 1 - (ii * e.dist)
            in
            if lb > !cyc_lb then cyc_lb := lb)
          deps;
        let arrivals_at c =
          Array.fold_left
            (fun acc (e : Ir.Cdfg.edge) ->
              if e.dist = 0 && cycle.(e.src) + lat e.src = c then
                let residual =
                  delay e.src -. (float_of_int (lat e.src) *. period)
                in
                Float.max acc (start.(e.src) +. Float.max 0.0 residual)
              else acc)
            0.0 deps
        in
        let rec place c =
          if c > max_cycle then (c, 0.0)
          else
            let l = arrivals_at c in
            let fits =
              (* multi-cycle operations start at the cycle boundary *)
              if lat v >= 1 then l <= 1e-9
              else l +. delay v <= period +. 1e-9
            in
            if not fits then place (c + 1)
            else begin
              (* modulo resource reservation for black boxes *)
              match Ir.Cdfg.op g v with
              | Ir.Op.Black_box { resource; _ } -> (
                  match Fpga.Resource.limit resources resource with
                  | Some lim when slot_count (resource, c mod ii) >= lim ->
                      place (c + 1)
                  | Some _ | None -> (c, l))
              | _ -> (c, l)
            end
        in
        let c, l = place !cyc_lb in
        (match Ir.Cdfg.op g v with
        | Ir.Op.Black_box { resource; _ } ->
            let key = (resource, c mod ii) in
            Hashtbl.replace slot_use key (slot_count key + 1)
        | _ -> ());
        if c <> cycle.(v) || Float.abs (l -. start.(v)) > 1e-9 then begin
          changed := true;
          cycle.(v) <- c;
          start.(v) <- l
        end)
      order;
    !changed
  in
  let rec iterate k = if k > 0 && round () then iterate (k - 1) in
  iterate 100;
  (cycle, start)

let check ~resources ~ii g view cycle start =
  let too_tight = ref None in
  Array.iteri
    (fun v deps ->
      Array.iter
        (fun (e : Ir.Cdfg.edge) ->
          if
            e.dist > 0 && !too_tight = None
            && cycle.(e.src) + view.lat e.src + 1 > cycle.(v) + (ii * e.dist)
          then
            too_tight :=
              Some
                (Printf.sprintf "edge %s->%s (dist %d) at II=%d"
                   (Ir.Cdfg.node_name g e.src)
                   (Ir.Cdfg.node_name g v)
                   e.dist ii))
        deps)
    view.deps;
  let max_cycle = max_cycle g in
  match !too_tight with
  | Some m -> Error (Recurrence_too_tight m)
  | None when Array.exists (fun c -> c >= max_cycle) cycle ->
      (* only a limited resource class can hold a node back, so with
         none the recurrence pushed the schedule off the horizon *)
      if
        List.exists
          (fun (r, _) -> Option.is_some (Fpga.Resource.limit resources r))
          (black_box_uses g)
      then Error (Resource_infeasible "schedule did not converge")
      else
        Error
          (Recurrence_too_tight
             (Printf.sprintf "schedule ran past the %d-cycle horizon at II=%d"
                max_cycle ii))
  | None -> Ok (Schedule.make ~ii ~cycle ~start)

let schedule ~device ~delays ~resources ~ii g =
  if ii < 1 then invalid_arg "Heuristic.schedule: ii < 1";
  let view =
    {
      order = Ir.Cdfg.topo_order g;
      deps = Array.init (Ir.Cdfg.num_nodes g) (Ir.Cdfg.preds g);
      delay = op_delay ~delays g;
      lat = op_latency ~device ~delays g;
    }
  in
  let cycle, start = modulo ~device ~resources ~ii g view in
  check ~resources ~ii g view cycle start
