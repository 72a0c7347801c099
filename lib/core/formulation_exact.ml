type t = {
  g : Ir.Cdfg.t;
  cfg : Formulation.config;
  cuts : Cuts.t;
  model : Lp.Model.t;
  onehot : Lp.Model.var array array;  (* s_{v,t} *)
  l_start : Lp.Model.var array;
  c_cut : Lp.Model.var array array;
  root : Lp.Model.var array;
  live : Lp.Model.var array array;  (* live_{v,t}, [||] for constants *)
}

let is_const g v =
  match Ir.Cdfg.op g v with Ir.Op.Const _ -> true | _ -> false

let is_source g v =
  match Ir.Cdfg.op g v with
  | Ir.Op.Input _ | Ir.Op.Const _ -> true
  | _ -> false

let is_black_box g v =
  match Ir.Cdfg.op g v with Ir.Op.Black_box _ -> true | _ -> false

let forced_root g v =
  is_source g v || is_black_box g v || Ir.Cdfg.is_output g v

let build (cfg : Formulation.config) g cuts =
  let n = Ir.Cdfg.num_nodes g in
  let period = Fpga.Device.usable_period cfg.device in
  let m_lat = cfg.max_latency in
  let maxdist =
    Ir.Cdfg.fold
      (fun nd acc ->
        Array.fold_left (fun acc (e : Ir.Cdfg.edge) -> max acc e.dist) acc
          nd.preds)
      g 0
  in
  let m_live = m_lat + (cfg.ii * maxdist) in
  let d_op v = cfg.cut_delay g cuts.(v).(0) in
  let lat v = int_of_float (floor (d_op v /. period)) in
  let model = Lp.Model.create ~name:"mams-exact" () in
  let onehot =
    Array.init n (fun v ->
        Array.init (m_lat + 1) (fun t ->
            Lp.Model.bool_var model
              (lazy (Printf.sprintf "s_%s_%d" (Ir.Cdfg.node_name g v) t))))
  in
  let s_cycle =
    Array.init n (fun v ->
        Lp.Model.add_var model ~lb:0.0 ~ub:(float_of_int m_lat)
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
  let live =
    Array.init n (fun v ->
        if is_const g v then [||]
        else
          Array.init (m_live + 1) (fun t ->
              Lp.Model.bool_var model
                (lazy (Printf.sprintf "live_%s_%d" (Ir.Cdfg.node_name g v) t))))
  in
  (* Eq. (5)–(6): one cycle per operation, S_v = Σ t·s_{v,t}. *)
  for v = 0 to n - 1 do
    Lp.Model.add_eq model
      ~name:(lazy (Printf.sprintf "onehot_%d" v))
      (Array.to_list (Array.map (fun x -> (1.0, x)) onehot.(v)))
      1.0;
    Lp.Model.add_eq model
      ~name:(lazy (Printf.sprintf "slink_%d" v))
      ((-1.0, s_cycle.(v))
      :: Array.to_list (Array.mapi (fun t x -> (float_of_int t, x)) onehot.(v)))
      0.0;
    if is_source g v then begin
      Lp.Model.fix model onehot.(v).(0) 1.0;
      Lp.Model.fix model l_start.(v) 0.0
    end;
    (* multi-cycle operations start at the cycle boundary *)
    if lat v >= 1 then Lp.Model.fix model l_start.(v) 0.0
  done;
  (* Eq. (2)–(3): cover structure. *)
  for v = 0 to n - 1 do
    Lp.Model.add_eq model
      ~name:(lazy (Printf.sprintf "cover_%d" v))
      ((-1.0, root.(v))
      :: Array.to_list (Array.map (fun c -> (1.0, c)) c_cut.(v)))
      0.0;
    if forced_root g v then Lp.Model.fix model root.(v) 1.0
  done;
  (* Eq. (7): dependence constraints per CDFG edge, with the register-read
     correction for loop-carried edges (the paper's form would allow
     reading a register in the cycle it is written). *)
  Ir.Cdfg.iter
    (fun nd ->
      Array.iter
        (fun (e : Ir.Cdfg.edge) ->
          let margin =
            if e.dist = 0 then float_of_int (-(lat e.src))
            else float_of_int ((cfg.ii * e.dist) - 1 - lat e.src)
          in
          Lp.Model.add_le model
            ~name:(lazy (Printf.sprintf "dep_%d_%d" e.src nd.id))
            [ (1.0, s_cycle.(e.src)); (-1.0, s_cycle.(nd.id)) ]
            margin)
        nd.preds)
    g;
  (* Eq. (8): cycle-time fit. *)
  for v = 0 to n - 1 do
    if lat v = 0 then
      Lp.Model.add_le model
        ~name:(lazy (Printf.sprintf "fit_%d" v))
        [ (1.0, l_start.(v)) ]
        (period -. d_op v)
  done;
  (* Eq. (9), as printed: for u in CUT_v[i] entering with distance d,
     (S_u - S_v - II*d)*T + (L_u - L_v + c_{v,i} * d_u) <= 0. *)
  let infos = Array.map (Array.map (Formulation.leaf_infos g)) cuts in
  for v = 0 to n - 1 do
    Array.iteri
      (fun i leaves ->
        List.iter
          (fun (u, (info : Formulation.leaf_info)) ->
            let emit dist =
              if not (is_source g u) then
                Lp.Model.add_le model
                  ~name:(lazy (Printf.sprintf "chain_%d_%d_%d_%d" v i u dist))
                  [
                    (period, s_cycle.(u));
                    (-.period, s_cycle.(v));
                    (1.0, l_start.(u));
                    (-1.0, l_start.(v));
                    (d_op u, c_cut.(v).(i));
                  ]
                  (period *. float_of_int (cfg.ii * dist))
            in
            if info.Formulation.has_comb then emit 0;
            (match info.Formulation.min_reg_dist with
            | Some d -> emit d
            | None -> ());
            (* Eq. (4): leaves of a selected cut are roots. *)
            if not (forced_root g u) then
              Lp.Model.add_le model
                ~name:(lazy (Printf.sprintf "leafroot_%d_%d_%d" v i u))
                [ (1.0, c_cut.(v).(i)); (-1.0, root.(u)) ]
                0.0)
          leaves)
      infos.(v)
  done;
  (* Eq. (10)–(12): def/kill/live. For each selected cut i of v and each
     leaf u entering with distance d:
       def_{u,t} - kill_{v, t - II*d} - (1 - c_{v,i}) <= live_{u,t}. *)
  for v = 0 to n - 1 do
    Array.iteri
      (fun i leaves ->
        List.iter
          (fun (u, (info : Formulation.leaf_info)) ->
            let max_dist = info.Formulation.max_dist in
            if not (is_const g u) then
              for t = 0 to m_live do
                let def_terms =
                  let hi = min (t - lat u) m_lat in
                  if hi < 0 then []
                  else
                    List.init (hi + 1) (fun z -> (1.0, onehot.(u).(z)))
                in
                let kill_terms =
                  let hi = min (t - (cfg.ii * max_dist)) m_lat in
                  if hi < 0 then []
                  else
                    List.init (hi + 1) (fun z -> (-1.0, onehot.(v).(z)))
                in
                if def_terms <> [] then
                  Lp.Model.add_le model
                    ~name:(lazy (Printf.sprintf "live_%d_%d_%d_%d" v i u t))
                    (((-1.0), live.(u).(t))
                    :: (1.0, c_cut.(v).(i))
                    :: (def_terms @ kill_terms))
                    1.0
              done)
          leaves)
      infos.(v)
  done;
  (* Eq. (14): modulo resources. *)
  List.iter
    (fun r ->
      match Fpga.Resource.limit cfg.resources r with
      | None -> ()
      | Some lim ->
          for phase = 0 to cfg.ii - 1 do
            let terms = ref [] in
            for v = 0 to n - 1 do
              match Ir.Cdfg.op g v with
              | Ir.Op.Black_box { resource; _ } when String.equal resource r ->
                  Array.iteri
                    (fun t x ->
                      if t mod cfg.ii = phase then terms := (1.0, x) :: !terms)
                    onehot.(v)
              | _ -> ()
            done;
            if !terms <> [] then
              Lp.Model.add_le model
                ~name:(lazy (Printf.sprintf "res_%s_%d" r phase))
                !terms (float_of_int lim)
          done)
    (Fpga.Resource.classes cfg.resources);
  (* Eq. (13) + (15): α·Σ Bits·root + β·Σ Bits·live. *)
  let obj = ref [] in
  for v = 0 to n - 1 do
    if not (is_source g v || is_black_box g v) then
      obj := (cfg.alpha *. float_of_int (Ir.Cdfg.width g v), root.(v)) :: !obj;
    Array.iter
      (fun lv ->
        obj := (cfg.beta *. float_of_int (Ir.Cdfg.width g v), lv) :: !obj)
      live.(v)
  done;
  Lp.Model.set_objective model !obj;
  ignore s_cycle;
  ignore m_live;
  { g; cfg; cuts; model; onehot; l_start; c_cut; root; live }

let model t = t.model

let extract t (r : Lp.Milp.result) =
  let n = Ir.Cdfg.num_nodes t.g in
  let cycle =
    Array.init n (fun v ->
        let c = ref 0 in
        Array.iteri
          (fun ti x -> if Lp.Milp.int_value r x = 1 then c := ti)
          t.onehot.(v);
        !c)
  in
  let start = Array.init n (fun v -> Lp.Milp.value r t.l_start.(v)) in
  let selections = ref [] in
  for v = 0 to n - 1 do
    Array.iteri
      (fun i c ->
        if Lp.Milp.int_value r c = 1 then
          selections := (v, t.cuts.(v).(i)) :: !selections)
      t.c_cut.(v)
  done;
  let sched =
    Sched.Schedule.make ~ii:t.cfg.Formulation.ii ~cycle ~start
  in
  (sched, Sched.Cover.make t.g !selections)

let objective_breakdown t (r : Lp.Milp.result) ~lut_bits ~reg_bits =
  let n = Ir.Cdfg.num_nodes t.g in
  for v = 0 to n - 1 do
    if
      (not (is_source t.g v || is_black_box t.g v))
      && Lp.Milp.int_value r t.root.(v) = 1
    then lut_bits := !lut_bits + Ir.Cdfg.width t.g v;
    Array.iter
      (fun lv ->
        if Lp.Milp.int_value r lv = 1 then
          reg_bits := !reg_bits + Ir.Cdfg.width t.g v)
      t.live.(v)
  done
