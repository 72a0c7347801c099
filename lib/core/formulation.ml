type config = {
  device : Fpga.Device.t;
  delays : Fpga.Delays.t;
  resources : Fpga.Resource.budget;
  ii : int;
  max_latency : int;
  alpha : float;
  beta : float;
  cut_delay : Ir.Cdfg.t -> Cuts.cut -> float;
}

let mapped_delay ~device ~delays g cut = Cuts.delay ~device ~delays g cut

let additive_delay ~delays g (cut : Cuts.cut) =
  let v = cut.Cuts.root in
  let op = Ir.Cdfg.op g v in
  let width =
    match op with
    | Ir.Op.Cmp _ -> Ir.Cdfg.width g (Ir.Cdfg.preds g v).(0).Ir.Cdfg.src
    | _ -> Ir.Cdfg.width g v
  in
  Fpga.Delays.additive delays ~cls:(Ir.Op.classify op) ~width

type t = {
  g : Ir.Cdfg.t;
  cfg : config;
  cuts : Cuts.t;
  model : Lp.Model.t;
  s_cycle : Lp.Model.var array;
  l_start : Lp.Model.var array;
  c_cut : Lp.Model.var array array;
  root : Lp.Model.var array;
  reg : Lp.Model.var option array;
  lat : int array;
  onehot : (int * Lp.Model.var array) list;
      (** black-box one-hot cycle binaries, when resources are limited *)
}

(* Per-leaf dependence summary of one cut: how the leaf's value enters the
   cone. *)
type leaf_info = {
  has_comb : bool;  (** some dist-0 edge into the cone *)
  min_reg_dist : int option;  (** tightest registered entry *)
  max_dist : int;  (** worst-case lifetime distance *)
}

let leaf_infos g (cut : Cuts.cut) =
  let tbl : (int, leaf_info) Hashtbl.t = Hashtbl.create 8 in
  Cuts.iter_inputs g cut (fun _ e ->
      let p =
        Option.value
          (Hashtbl.find_opt tbl e.src)
          ~default:{ has_comb = false; min_reg_dist = None; max_dist = 0 }
      in
      Hashtbl.replace tbl e.src
        {
          has_comb = p.has_comb || e.dist = 0;
          min_reg_dist =
            (match p.min_reg_dist with
            | _ when e.dist = 0 -> p.min_reg_dist
            | None -> Some e.dist
            | Some d -> Some (min d e.dist));
          max_dist = max p.max_dist e.dist;
        });
  Hashtbl.fold (fun u info acc -> (u, info) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let is_source g v =
  match Ir.Cdfg.op g v with
  | Ir.Op.Input _ | Ir.Op.Const _ -> true
  | _ -> false

let is_const g v =
  match Ir.Cdfg.op g v with Ir.Op.Const _ -> true | _ -> false

let is_black_box g v =
  match Ir.Cdfg.op g v with Ir.Op.Black_box _ -> true | _ -> false

let forced_root g v =
  is_source g v || is_black_box g v || Ir.Cdfg.is_output g v

let build cfg g cuts =
  let n = Ir.Cdfg.num_nodes g in
  let period = Fpga.Device.usable_period cfg.device in
  let m_lat = cfg.max_latency in
  let lat =
    Array.init n (fun v ->
        if is_black_box g v then
          let d = additive_delay ~delays:cfg.delays g cuts.(v).(0) in
          int_of_float (floor (d /. period))
        else 0)
  in
  let max_lat = Array.fold_left max 0 lat in
  let maxdist =
    Ir.Cdfg.fold
      (fun nd acc ->
        Array.fold_left (fun acc (e : Ir.Cdfg.edge) -> max acc e.dist) acc
          nd.preds)
      g 0
  in
  let mc = float_of_int (m_lat + (cfg.ii * maxdist) + max_lat + 2) in
  let mt = period *. (mc +. 1.0) in
  let mreg = mc in
  let model = Lp.Model.create ~name:"mams" () in
  let name fmt = Printf.sprintf fmt in
  let s_cycle =
    Array.init n (fun v ->
        Lp.Model.add_var model ~integer:true ~lb:0.0
          ~ub:(float_of_int m_lat)
          (name "S_%s" (Ir.Cdfg.node_name g v)))
  in
  let l_start =
    Array.init n (fun v ->
        Lp.Model.add_var model ~lb:0.0 ~ub:period
          (name "L_%s" (Ir.Cdfg.node_name g v)))
  in
  let c_cut =
    Array.init n (fun v ->
        Array.init (Array.length cuts.(v)) (fun i ->
            Lp.Model.bool_var model (name "c_%s_%d" (Ir.Cdfg.node_name g v) i)))
  in
  let root =
    Array.init n (fun v ->
        Lp.Model.bool_var model (name "root_%s" (Ir.Cdfg.node_name g v)))
  in
  let reg =
    Array.init n (fun v ->
        if is_const g v then None
        else
          Some
            (Lp.Model.add_var model ~lb:0.0 ~ub:mreg
               (name "reg_%s" (Ir.Cdfg.node_name g v))))
  in
  let cut_delays =
    Array.init n (fun v -> Array.map (fun c -> cfg.cut_delay g c) cuts.(v))
  in
  (* Sources are available at the very start of the pipeline; multi-cycle
     operations start at the cycle boundary. *)
  for v = 0 to n - 1 do
    if is_source g v then begin
      Lp.Model.fix model s_cycle.(v) 0.0;
      Lp.Model.fix model l_start.(v) 0.0
    end;
    if lat.(v) >= 1 then Lp.Model.fix model l_start.(v) 0.0
  done;
  (* Eq. (2): root_v = Σ_i c_{v,i}; Eq. (3): outputs (and all physical
     sources / black boxes) are roots. *)
  for v = 0 to n - 1 do
    let sum = Array.to_list (Array.map (fun c -> (1.0, c)) c_cut.(v)) in
    Lp.Model.add_eq model ~name:(name "cover_%d" v)
      ((-1.0, root.(v)) :: sum)
      0.0;
    if forced_root g v then Lp.Model.fix model root.(v) 1.0
  done;
  (* Eq. (8): the selected cut's delay fits the cycle. *)
  for v = 0 to n - 1 do
    if lat.(v) = 0 then begin
      let dterms =
        Array.to_list (Array.mapi (fun i c -> (cut_delays.(v).(i), c)) c_cut.(v))
        |> List.filter (fun (d, _) -> d <> 0.0)
      in
      Lp.Model.add_le model ~name:(name "fit_%d" v)
        ((1.0, l_start.(v)) :: dterms)
        period
    end
  done;
  (* Per-cut constraints: Eq. (4), dependence + chaining (Eq. 7 & 9), and
     register lifetimes — clique-merged per (v, leaf). Cut selection at
     [v] is one-hot (Eq. (2) with root_v <= 1), so the per-(v,i,u)
     indicator rows of the paper collapse into one row per (v,u) whose
     indicator is the clique sum over every cut of [v] the leaf enters:
     for integer points at most one summand is 1 and the merged row is
     exactly the selected cut's row, while the LP relaxation gets the
     sum of the fractional selections instead of their maximum. Rows
     whose rhs depends on the entry distance merge per (v,u,dist). *)
  for v = 0 to n - 1 do
    (* group (cut index, leaf_info) by leaf *)
    let by_leaf : (int, (int * leaf_info) list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let leaf_order = ref [] in
    Array.iteri
      (fun i (cut : Cuts.cut) ->
        List.iter
          (fun (u, info) ->
            match Hashtbl.find_opt by_leaf u with
            | Some l -> l := (i, info) :: !l
            | None ->
                Hashtbl.add by_leaf u (ref [ (i, info) ]);
                leaf_order := u :: !leaf_order)
          (leaf_infos g cut))
      cuts.(v);
    List.iter
      (fun u ->
        let entries = List.rev !(Hashtbl.find by_leaf u) in
        let csum is = List.map (fun i -> c_cut.(v).(i)) is in
        (* Eq. (4): leaves of the selected cut are roots. *)
        if not (forced_root g u) then
          Lp.Model.add_le model
            ~name:(name "leafroot_%d_%d" v u)
            (((-1.0), root.(u))
            :: List.map (fun c -> (1.0, c)) (csum (List.map fst entries)))
            0.0;
        let latu = float_of_int lat.(u) in
        let comb_is =
          List.filter_map
            (fun (i, info) -> if info.has_comb then Some i else None)
            entries
        in
        if comb_is <> [] && not (is_source g u) then begin
          let ind coeff = List.map (fun c -> (coeff, c)) (csum comb_is) in
          (* cycle ordering: S_u + lat_u <= S_v when selected *)
          Lp.Model.add_le model
            ~name:(name "dep_%d_%d" v u)
            ([ (1.0, s_cycle.(u)); (-1.0, s_cycle.(v)) ] @ ind mc)
            (mc -. latu);
          (* chaining: same-cycle arrival respects start times;
             residual covers multi-cycle producers *)
          let residual u =
            if is_black_box g u then
              let d = additive_delay ~delays:cfg.delays g cuts.(u).(0) in
              d -. (float_of_int lat.(u) *. period)
            else 0.0
          in
          let du_terms =
            if is_black_box g u then []
            else
              Array.to_list
                (Array.mapi (fun j c -> (cut_delays.(u).(j), c)) c_cut.(u))
              |> List.filter (fun (d, _) -> d <> 0.0)
          in
          Lp.Model.add_le model
            ~name:(name "chain_%d_%d" v u)
            ([
               (period, s_cycle.(u));
               (-.period, s_cycle.(v));
               (1.0, l_start.(u));
               (-1.0, l_start.(v));
             ]
            @ ind mt @ du_terms)
            (mt -. (latu *. period) -. residual u)
        end;
        (* registered entries: produced strictly before use; the rhs
           depends on the entry distance, so merge per distance *)
        let reg_groups : (int, int list ref) Hashtbl.t = Hashtbl.create 4 in
        List.iter
          (fun (i, info) ->
            match info.min_reg_dist with
            | None -> ()
            | Some d -> (
                match Hashtbl.find_opt reg_groups d with
                | Some l -> l := i :: !l
                | None -> Hashtbl.add reg_groups d (ref [ i ])))
          entries;
        Hashtbl.iter
          (fun d is ->
            Lp.Model.add_le model
              ~name:(name "regdep_%d_%d_%d" v u d)
              ([ (1.0, s_cycle.(u)); (-1.0, s_cycle.(v)) ]
              @ List.map (fun c -> (mc, c)) (csum (List.rev !is)))
              (mc +. float_of_int ((cfg.ii * d) - 1) -. latu))
          reg_groups;
        (* register lifetime of the leaf's value, merged per worst-case
           entry distance *)
        match reg.(u) with
        | None -> ()
        | Some reg_u ->
            let life_groups : (int, int list ref) Hashtbl.t =
              Hashtbl.create 4
            in
            List.iter
              (fun (i, info) ->
                match Hashtbl.find_opt life_groups info.max_dist with
                | Some l -> l := i :: !l
                | None -> Hashtbl.add life_groups info.max_dist (ref [ i ]))
              entries;
            Hashtbl.iter
              (fun dist is ->
                Lp.Model.add_le model
                  ~name:(name "life_%d_%d_%d" v u dist)
                  ([
                     (1.0, s_cycle.(v));
                     (-1.0, s_cycle.(u));
                     (-1.0, reg_u);
                   ]
                  @ List.map (fun c -> (mreg, c)) (csum (List.rev !is)))
                  (mreg -. float_of_int (cfg.ii * dist) +. latu))
              life_groups)
      (List.rev !leaf_order)
  done;
  (* Eq. (14): modulo resource constraints via one-hot cycle binaries for
     black boxes of limited classes. *)
  let all_onehots = ref [] in
  let limited = Fpga.Resource.classes cfg.resources in
  if limited <> [] then begin
    let by_class : (string, (int * Lp.Model.var array) list ref) Hashtbl.t =
      Hashtbl.create 4
    in
    for v = 0 to n - 1 do
      match Ir.Cdfg.op g v with
      | Ir.Op.Black_box { resource; _ } when List.mem resource limited ->
          let onehot =
            Array.init (m_lat + 1) (fun t ->
                Lp.Model.bool_var model
                  (name "s_%s_%d" (Ir.Cdfg.node_name g v) t))
          in
          Lp.Model.add_eq model
            ~name:(name "onehot_%d" v)
            (Array.to_list (Array.map (fun x -> (1.0, x)) onehot))
            1.0;
          Lp.Model.add_eq model
            ~name:(name "slink_%d" v)
            ((-1.0, s_cycle.(v))
            :: Array.to_list
                 (Array.mapi (fun t x -> (float_of_int t, x)) onehot))
            0.0;
          let l =
            match Hashtbl.find_opt by_class resource with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add by_class resource l;
                l
          in
          l := (v, onehot) :: !l;
          all_onehots := (v, onehot) :: !all_onehots
      | _ -> ()
    done;
    List.iter
      (fun r ->
        match (Fpga.Resource.limit cfg.resources r, Hashtbl.find_opt by_class r) with
        | Some lim, Some users ->
            for phase = 0 to cfg.ii - 1 do
              let terms =
                List.concat_map
                  (fun (_, onehot) ->
                    Array.to_list onehot
                    |> List.filteri (fun t _ -> t mod cfg.ii = phase)
                    |> List.map (fun x -> (1.0, x)))
                  !users
              in
              if terms <> [] then
                Lp.Model.add_le model
                  ~name:(name "res_%s_%d" r phase)
                  terms (float_of_int lim)
            done
        | _, _ -> ())
      limited
  end;
  (* Eq. (15): α · LUT area + β · register bits, plus a latency tie-break
     strictly smaller than any area/register increment so co-optimal
     solutions prefer the shorter pipeline. *)
  let obj = ref [] in
  let tie =
    let unit = Float.min cfg.alpha cfg.beta in
    let unit = if unit <= 0.0 then 1.0 else unit in
    0.4 *. unit /. float_of_int ((n * (m_lat + 1)) + 1)
  in
  for v = 0 to n - 1 do
    Array.iteri
      (fun i c ->
        let a = float_of_int cuts.(v).(i).Cuts.area in
        if a > 0.0 then obj := (cfg.alpha *. a, c) :: !obj)
      c_cut.(v);
    obj := (tie, s_cycle.(v)) :: !obj;
    match reg.(v) with
    | Some r ->
        obj := (cfg.beta *. float_of_int (Ir.Cdfg.width g v), r) :: !obj
    | None -> ()
  done;
  Lp.Model.set_objective model !obj;
  {
    g; cfg; cuts; model; s_cycle; l_start; c_cut; root; reg; lat;
    onehot = !all_onehots;
  }

let model t = t.model

let branch_priorities t =
  let p = Array.make (Lp.Model.num_vars t.model) 0 in
  let set var v = p.(Lp.Model.var_index var) <- v in
  Array.iter (fun cs -> Array.iter (fun c -> set c 3) cs) t.c_cut;
  Array.iter (fun r -> set r 2) t.root;
  List.iter (fun (_, onehot) -> Array.iter (fun x -> set x 2) onehot) t.onehot;
  Array.iter (fun s -> set s 1) t.s_cycle;
  p

let incumbent_of_schedule t (sched : Sched.Schedule.t) cover =
  let n = Ir.Cdfg.num_nodes t.g in
  let x = Array.make (Lp.Model.num_vars t.model) 0.0 in
  let set var v = x.(Lp.Model.var_index var) <- v in
  for v = 0 to n - 1 do
    set t.s_cycle.(v) (float_of_int sched.cycle.(v));
    set t.l_start.(v) sched.start.(v)
  done;
  let chosen_index v =
    match Sched.Cover.chosen cover v with
    | None -> None
    | Some (c : Cuts.cut) ->
        let found = ref None in
        Array.iteri
          (fun i (c' : Cuts.cut) ->
            if !found = None && c'.Cuts.leaves = c.Cuts.leaves then found := Some i)
          t.cuts.(v);
        (match !found with
        | None -> invalid_arg "Formulation.incumbent_of_schedule: unknown cut"
        | Some _ -> ());
        !found
  in
  for v = 0 to n - 1 do
    match chosen_index v with
    | None -> ()
    | Some i ->
        set t.c_cut.(v).(i) 1.0;
        set t.root.(v) 1.0
  done;
  (* Register lifetimes implied by the chosen cuts. *)
  let need = Array.make n 0.0 in
  for v = 0 to n - 1 do
    match Sched.Cover.chosen cover v with
    | None -> ()
    | Some cut ->
        List.iter
          (fun (u, info) ->
            let life =
              float_of_int
                (sched.cycle.(v)
                + (sched.ii * info.max_dist)
                - sched.cycle.(u) - t.lat.(u))
            in
            if life > need.(u) then need.(u) <- life)
          (leaf_infos t.g cut)
  done;
  for v = 0 to n - 1 do
    match t.reg.(v) with Some r -> set r need.(v) | None -> ()
  done;
  List.iter
    (fun (v, onehot) -> set onehot.(sched.cycle.(v)) 1.0)
    t.onehot;
  x

let extract t (r : Lp.Milp.result) =
  let n = Ir.Cdfg.num_nodes t.g in
  let cycle = Array.init n (fun v -> Lp.Milp.int_value r t.s_cycle.(v)) in
  let start = Array.init n (fun v -> Lp.Milp.value r t.l_start.(v)) in
  let selections = ref [] in
  for v = 0 to n - 1 do
    Array.iteri
      (fun i c ->
        if Lp.Milp.int_value r c = 1 then
          selections := (v, t.cuts.(v).(i)) :: !selections)
      t.c_cut.(v)
  done;
  let sched = Sched.Schedule.make ~ii:t.cfg.ii ~cycle ~start in
  (sched, Sched.Cover.make t.g !selections)

let size t = Fmt.str "%a" Lp.Model.pp_stats t.model
