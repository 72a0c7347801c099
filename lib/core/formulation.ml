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

(* Per-leaf dependence summary of one cut: how the leaf's value enters the
   cone. *)
type leaf_info = {
  has_comb : bool;  (** some dist-0 edge into the cone *)
  min_reg_dist : int option;  (** tightest registered entry *)
  max_dist : int;  (** worst-case lifetime distance *)
}

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
  infos : (int * leaf_info) list array array;  (** [leaf_infos] per cut *)
  onehot : (int * Lp.Model.var array) list;
      (** black-box one-hot cycle binaries, when resources are limited *)
}

(* Sorted by leaf: a cut has few leaves, so an insertion into the sorted
   list beats a table. *)
let leaf_infos g (cut : Cuts.cut) =
  let infos = ref [] in
  Cuts.iter_inputs g cut (fun _ (e : Ir.Cdfg.edge) ->
      let merge p =
        {
          has_comb = p.has_comb || e.dist = 0;
          min_reg_dist =
            (match p.min_reg_dist with
            | _ when e.dist = 0 -> p.min_reg_dist
            | None -> Some e.dist
            | Some d -> Some (min d e.dist));
          max_dist = max p.max_dist e.dist;
        }
      in
      let rec add = function
        | (u, p) :: rest when u = e.src -> (u, merge p) :: rest
        | ((u, _) as x) :: rest when u < e.src -> x :: add rest
        | l ->
            (e.src, merge { has_comb = false; min_reg_dist = None; max_dist = 0 })
            :: l
      in
      infos := add !infos);
  !infos

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
  let s_cycle =
    Array.init n (fun v ->
        Lp.Model.add_var model ~integer:true ~lb:0.0
          ~ub:(float_of_int m_lat)
          (lazy (Printf.sprintf "S_%s" (Ir.Cdfg.node_name g v))))
  in
  let l_start =
    Array.init n (fun v ->
        Lp.Model.add_var model ~lb:0.0 ~ub:period
          (lazy (Printf.sprintf "L_%s" (Ir.Cdfg.node_name g v))))
  in
  let c_cut =
    Array.init n (fun v ->
        Array.init (Array.length cuts.(v)) (fun i ->
            Lp.Model.bool_var model
              (lazy (Printf.sprintf "c_%s_%d" (Ir.Cdfg.node_name g v) i))))
  in
  let root =
    Array.init n (fun v ->
        Lp.Model.bool_var model
          (lazy (Printf.sprintf "root_%s" (Ir.Cdfg.node_name g v))))
  in
  let reg =
    Array.init n (fun v ->
        if is_const g v then None
        else
          Some
            (Lp.Model.add_var model ~lb:0.0 ~ub:mreg
               (lazy (Printf.sprintf "reg_%s" (Ir.Cdfg.node_name g v)))))
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
  (* Every row below lists its terms in ascending variable order, which
     [Lp.Model] stores without a sort: the variables were created block
     by block (S, L, c, root, reg), each block in node order, so within a
     block node [u]'s variable precedes node [v]'s iff [u < v]. *)
  (* [coeff · c_{v,i}] for each [i] in [is], ahead of [tail] *)
  let ind v coeff is tail =
    List.fold_right (fun i acc -> (coeff, c_cut.(v).(i)) :: acc) is tail
  in
  (* Eq. (2): root_v = Σ_i c_{v,i}; Eq. (3): outputs (and all physical
     sources / black boxes) are roots. *)
  for v = 0 to n - 1 do
    Lp.Model.add_eq model ~name:(lazy (Printf.sprintf "cover_%d" v))
      (Array.fold_right
         (fun c acc -> (1.0, c) :: acc)
         c_cut.(v) [ (-1.0, root.(v)) ])
      0.0;
    if forced_root g v then Lp.Model.fix model root.(v) 1.0
  done;
  (* The selected cut's delay as [Σ_i delay_i · c_{v,i}], zero delays
     left out. *)
  let dterms =
    Array.init n (fun v ->
        let cs = c_cut.(v) in
        List.init (Array.length cs) (fun i ->
            (cfg.cut_delay g cuts.(v).(i), cs.(i)))
        |> List.filter (fun (d, _) -> d <> 0.0))
  in
  (* Eq. (8): the selected cut's delay fits the cycle. *)
  for v = 0 to n - 1 do
    if lat.(v) = 0 then
      Lp.Model.add_le model ~name:(lazy (Printf.sprintf "fit_%d" v))
        ((1.0, l_start.(v)) :: dterms.(v))
        period
  done;
  (* Chaining terms of a leaf [u]: the delay of its selected cut, and the
     residual delay past the cycle boundary of a multi-cycle producer. *)
  let du_terms =
    Array.init n (fun u -> if is_black_box g u then [] else dterms.(u))
  in
  let residual =
    Array.init n (fun u ->
        if is_black_box g u then
          let d = additive_delay ~delays:cfg.delays g cuts.(u).(0) in
          d -. (float_of_int lat.(u) *. period)
        else 0.0)
  in
  let infos = Array.map (Array.map (leaf_infos g)) cuts in
  (* Per-cut constraints: Eq. (4), dependence + chaining (Eq. 7 & 9), and
     register lifetimes — clique-merged per (v, leaf). Cut selection at
     [v] is one-hot (Eq. (2) with root_v <= 1), so the per-(v,i,u)
     indicator rows of the paper collapse into one row per (v,u) whose
     indicator is the clique sum over every cut of [v] the leaf enters:
     for integer points at most one summand is 1 and the merged row is
     exactly the selected cut's row, while the LP relaxation gets the
     sum of the fractional selections instead of their maximum. Rows
     whose rhs depends on the entry distance merge per (v,u,dist), in
     the order [Hashtbl.iter] visits the distances: one table, reset per
     use, keeps that order. *)
  let by_leaf = Array.make n [] in
  let groups : (int, int list ref) Hashtbl.t = Hashtbl.create 4 in
  let iter_groups key entries f =
    match entries with
    | [ (i, info) ] -> Option.iter (fun k -> f k [ i ]) (key info)
    | _ ->
        Hashtbl.reset groups;
        List.iter
          (fun (i, info) ->
            match key info with
            | None -> ()
            | Some k -> (
                match Hashtbl.find_opt groups k with
                | Some l -> l := i :: !l
                | None -> Hashtbl.add groups k (ref [ i ])))
          entries;
        Hashtbl.iter (fun k is -> f k (List.rev !is)) groups
  in
  for v = 0 to n - 1 do
    (* (cut index, leaf_info) entries grouped by leaf, leaves in order of
       first appearance *)
    let leaf_order = ref [] in
    Array.iteri
      (fun i leaves ->
        List.iter
          (fun (u, info) ->
            (match by_leaf.(u) with
            | [] -> leaf_order := u :: !leaf_order
            | _ :: _ -> ());
            by_leaf.(u) <- (i, info) :: by_leaf.(u))
          leaves)
      infos.(v);
    List.iter
      (fun u ->
        let entries = List.rev by_leaf.(u) in
        by_leaf.(u) <- [];
        (* Eq. (4): leaves of the selected cut are roots. *)
        if not (forced_root g u) then
          Lp.Model.add_le model
            ~name:(lazy (Printf.sprintf "leafroot_%d_%d" v u))
            (List.fold_right
               (fun (i, _) acc -> (1.0, c_cut.(v).(i)) :: acc)
               entries [ (-1.0, root.(u)) ])
            0.0;
        let latu = float_of_int lat.(u) in
        let comb_is =
          List.filter_map
            (fun (i, info) -> if info.has_comb then Some i else None)
            entries
        in
        if comb_is <> [] && not (is_source g u) then begin
          (* cycle ordering: S_u + lat_u <= S_v when selected *)
          let s_uv tail =
            if u < v then (1.0, s_cycle.(u)) :: (-1.0, s_cycle.(v)) :: tail
            else (-1.0, s_cycle.(v)) :: (1.0, s_cycle.(u)) :: tail
          in
          Lp.Model.add_le model
            ~name:(lazy (Printf.sprintf "dep_%d_%d" v u))
            (s_uv (ind v mc comb_is []))
            (mc -. latu);
          (* chaining: same-cycle arrival respects start times;
             residual covers multi-cycle producers *)
          let terms =
            if u < v then
              (period, s_cycle.(u)) :: (-.period, s_cycle.(v))
              :: (1.0, l_start.(u)) :: (-1.0, l_start.(v))
              :: (du_terms.(u) @ ind v mt comb_is [])
            else
              (-.period, s_cycle.(v)) :: (period, s_cycle.(u))
              :: (-1.0, l_start.(v)) :: (1.0, l_start.(u))
              :: ind v mt comb_is du_terms.(u)
          in
          Lp.Model.add_le model
            ~name:(lazy (Printf.sprintf "chain_%d_%d" v u))
            terms
            (mt -. (latu *. period) -. residual.(u))
        end;
        (* registered entries: produced strictly before use; the rhs
           depends on the entry distance, so merge per distance *)
        iter_groups (fun info -> info.min_reg_dist) entries (fun d is ->
            let terms = ind v mc is [] in
            Lp.Model.add_le model
              ~name:(lazy (Printf.sprintf "regdep_%d_%d_%d" v u d))
              (if u <= v then
                 (1.0, s_cycle.(u)) :: (-1.0, s_cycle.(v)) :: terms
               else (-1.0, s_cycle.(v)) :: (1.0, s_cycle.(u)) :: terms)
              (mc +. float_of_int ((cfg.ii * d) - 1) -. latu));
        (* register lifetime of the leaf's value, merged per worst-case
           entry distance *)
        match reg.(u) with
        | None -> ()
        | Some reg_u ->
            iter_groups (fun info -> Some info.max_dist) entries
              (fun dist is ->
                let terms = ind v mreg is [ (-1.0, reg_u) ] in
                Lp.Model.add_le model
                  ~name:(lazy (Printf.sprintf "life_%d_%d_%d" v u dist))
                  (if v <= u then
                     (1.0, s_cycle.(v)) :: (-1.0, s_cycle.(u)) :: terms
                   else (-1.0, s_cycle.(u)) :: (1.0, s_cycle.(v)) :: terms)
                  (mreg -. float_of_int (cfg.ii * dist) +. latu)))
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
                  (lazy (Printf.sprintf "s_%s_%d" (Ir.Cdfg.node_name g v) t)))
          in
          Lp.Model.add_eq model
            ~name:(lazy (Printf.sprintf "onehot_%d" v))
            (Array.to_list (Array.map (fun x -> (1.0, x)) onehot))
            1.0;
          Lp.Model.add_eq model
            ~name:(lazy (Printf.sprintf "slink_%d" v))
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
                  ~name:(lazy (Printf.sprintf "res_%s_%d" r phase))
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
    g; cfg; cuts; model; s_cycle; l_start; c_cut; root; reg; lat; infos;
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
  let chosen = Array.init n chosen_index in
  Array.iteri
    (fun v -> function
      | None -> ()
      | Some i ->
          set t.c_cut.(v).(i) 1.0;
          set t.root.(v) 1.0)
    chosen;
  (* Register lifetimes implied by the chosen cuts. *)
  let need = Array.make n 0.0 in
  for v = 0 to n - 1 do
    match chosen.(v) with
    | None -> ()
    | Some i ->
        List.iter
          (fun (u, info) ->
            let life =
              float_of_int
                (sched.cycle.(v)
                + (sched.ii * info.max_dist)
                - sched.cycle.(u) - t.lat.(u))
            in
            if life > need.(u) then need.(u) <- life)
          t.infos.(v).(i)
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
