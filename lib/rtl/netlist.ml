type signal = { name : string; width : int }

type expr =
  | Ref of signal
  | Lit of { width : int; value : int64 }
  | App of Ir.Op.t * expr list * int

type instance = { kind : string; args : expr list; out : signal }
type reg = { q : signal; d : expr; init : int64 }

type t = {
  module_name : string;
  inputs : signal list;
  wires : (signal * [ `Expr of expr | `Instance of instance ]) list;
  regs : reg list;
  fill : signal option;
  outputs : (signal * expr) list;
}

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    s

let mask ~width v =
  if width >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

(* Bits needed to hold the unsigned value [n]. *)
let rec bits_for n = if n < 2 then 1 else 1 + bits_for (n lsr 1)

let of_design ?(module_name = "pipeline") g cover (sched : Sched.Schedule.t) =
  (match Sched.Cover.validate g cover with
  | Ok () -> ()
  | Error e -> invalid_arg ("Netlist.of_design: invalid cover: " ^ e));
  let n = Ir.Cdfg.num_nodes g in
  let width = Ir.Cdfg.width g in
  let is_const v =
    match Ir.Cdfg.op g v with Ir.Op.Const _ -> true | _ -> false
  in
  (* Every read that crosses a register boundary: a non-constant operand
     of a chosen cone that is loop-carried or produced outside the cone,
     with the cycle of the cone's root, which is when it is read. *)
  let iter_reads f =
    Array.iteri
      (fun v c ->
        match c with
        | None -> ()
        | Some cut ->
            Cuts.iter_inputs g cut (fun _ e ->
                if not (is_const e.src) then f ~cons_cycle:sched.cycle.(v) e))
      cover.Sched.Cover.chosen
  in
  let delay_of ~cons_cycle (e : Ir.Cdfg.edge) =
    cons_cycle + (sched.ii * e.dist) - sched.cycle.(e.src)
  in
  (* Register stages per root (lifetime), and the reset value carried by
     loop-carried edges out of the root. *)
  let stages = Array.make n 0 in
  let init_of = Array.make n 0L in
  iter_reads (fun ~cons_cycle e ->
      let delay = delay_of ~cons_cycle e in
      if delay > stages.(e.src) then stages.(e.src) <- delay;
      if e.dist > 0 then init_of.(e.src) <- e.init);
  (* Iteration k < dist of a loop-carried read must see [e.init] in every
     consumer cycle c < S(cons) + II·dist. The source's delay registers
     reset to [init_of], which covers only c < delay = S(cons) + II·dist
     - S(src): once the source sits in a later stage, the first S(src)
     such reads would see pipeline-fill values. Those reads are gated to
     [e.init] while a saturating fill counter is below S(cons) + II·dist;
     so are reads whose init differs from the registers' reset value. *)
  let gate_threshold ~cons_cycle (e : Ir.Cdfg.edge) =
    if
      e.dist > 0
      && (not (is_const e.src))
      && (sched.cycle.(e.src) > 0 || not (Int64.equal e.init init_of.(e.src)))
    then Some (cons_cycle + (sched.ii * e.dist))
    else None
  in
  let fill_max = ref 0 in
  iter_reads (fun ~cons_cycle e ->
      Option.iter
        (fun thr -> fill_max := max !fill_max thr)
        (gate_threshold ~cons_cycle e));
  let input_names =
    List.map (fun v -> sanitize (Ir.Cdfg.node_name g v)) (Ir.Cdfg.inputs g)
  in
  let fill =
    if !fill_max = 0 then None
    else
      let rec fresh s = if List.mem s input_names then fresh (s ^ "_") else s in
      Some { name = fresh "fill"; width = bits_for !fill_max }
  in
  let fill_lit (f : signal) v = Lit { width = f.width; value = Int64.of_int v } in
  (* Every signal of [v], each named once: its combinational value, then
     the output of each of its register stages. *)
  let signals =
    Array.init n (fun v ->
        let base =
          Printf.sprintf "n%d_%s" v (sanitize (Ir.Cdfg.node_name g v))
        in
        Array.init
          (stages.(v) + 1)
          (fun d ->
            let name =
              if d = 0 then base ^ "_c" else Printf.sprintf "%s_d%d" base d
            in
            { name; width = width v }))
  in
  let sig_of v ~delay = signals.(v).(Int.max 0 delay) in
  let ref_value u ~delay =
    match Ir.Cdfg.op g u with
    | Ir.Op.Const c -> Lit { width = width u; value = c }
    | _ -> Ref (sig_of u ~delay)
  in
  (* A register-crossing read of [e] by a root in [cons_cycle]. *)
  let read ~cons_cycle (e : Ir.Cdfg.edge) =
    let v = ref_value e.src ~delay:(delay_of ~cons_cycle e) in
    match (gate_threshold ~cons_cycle e, fill) with
    | Some thr, Some f ->
        let w = width e.src in
        App
          ( Ir.Op.Mux,
            [
              App (Ir.Op.Cmp Ir.Op.Lt, [ Ref f; fill_lit f thr ], 1);
              Lit { width = w; value = mask ~width:w e.init };
              v;
            ],
            w )
    | _ -> v
  in
  let rec expr_of cut root_cycle w =
    let nd = Ir.Cdfg.node g w in
    let operand i =
      let e = nd.preds.(i) in
      if Cuts.is_input cut e then read ~cons_cycle:root_cycle e
      else expr_of cut root_cycle e.src
    in
    match nd.op with
    | Ir.Op.Input _ | Ir.Op.Black_box _ -> ref_value w ~delay:0
    | Ir.Op.Const c -> Lit { width = nd.width; value = c }
    | op ->
        let arity = Option.value (Ir.Op.arity op) ~default:0 in
        App (op, List.init arity operand, nd.width)
  in
  let wires = ref [] and regs = ref [] in
  List.iter
    (fun v ->
      match Sched.Cover.chosen cover v with
      | None -> ()
      | Some (cut : Cuts.cut) ->
          (match Ir.Cdfg.op g v with
          | Ir.Op.Const _ -> () (* hardwired; no signal *)
          | Ir.Op.Input _ ->
              wires :=
                ( sig_of v ~delay:0,
                  `Expr
                    (Ref
                       {
                         name = sanitize (Ir.Cdfg.node_name g v);
                         width = width v;
                       }) )
                :: !wires
          | Ir.Op.Black_box { kind; _ } ->
              let args =
                Array.to_list
                  (Array.map (read ~cons_cycle:sched.cycle.(v))
                     (Ir.Cdfg.preds g v))
              in
              wires :=
                ( sig_of v ~delay:0,
                  `Instance
                    { kind = sanitize kind; args; out = sig_of v ~delay:0 } )
                :: !wires
          | _ ->
              wires :=
                (sig_of v ~delay:0, `Expr (expr_of cut sched.cycle.(v) v))
                :: !wires);
          for d = 1 to stages.(v) do
            regs :=
              {
                q = sig_of v ~delay:d;
                d = ref_value v ~delay:(d - 1);
                init = init_of.(v);
              }
              :: !regs
          done)
    (Ir.Cdfg.topo_order g);
  let inputs =
    List.map2
      (fun v name -> { name; width = width v })
      (Ir.Cdfg.inputs g) input_names
  in
  (* the fill counter counts cycles since reset and holds at [fill_max] *)
  let fill_reg =
    Option.map
      (fun f ->
        {
          q = f;
          d =
            App
              ( Ir.Op.Mux,
                [
                  App (Ir.Op.Cmp Ir.Op.Lt, [ Ref f; fill_lit f !fill_max ], 1);
                  App (Ir.Op.Add, [ Ref f; fill_lit f 1 ], f.width);
                  Ref f;
                ],
                f.width );
          init = 0L;
        })
      fill
  in
  let outputs =
    List.mapi
      (fun i v ->
        ( {
            name = Printf.sprintf "out%d_%s" i (sanitize (Ir.Cdfg.node_name g v));
            width = width v;
          },
          ref_value v ~delay:0 ))
      (Ir.Cdfg.outputs g)
  in
  {
    module_name;
    inputs;
    wires = List.rev !wires;
    regs = Option.to_list fill_reg @ List.rev !regs;
    fill;
    outputs;
  }

let register_bits t =
  List.fold_left
    (fun acc r -> if Some r.q = t.fill then acc else acc + r.q.width)
    0 t.regs

let lut_expressions t =
  List.fold_left
    (fun acc (_, w) ->
      match w with
      | `Expr (App _) -> acc + 1
      | `Expr (Ref _ | Lit _) | `Instance _ -> acc)
    0 t.wires

type sim_result = { cycles : int; outputs : (string * int64 array) list }

let no_black_box ~kind _ =
  invalid_arg ("Netlist.simulate: no handler for black box kind " ^ kind)

let simulate ?(black_box = no_black_box) t ~cycles ~inputs =
  let env : (string, int64) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace env r.q.name (mask ~width:r.q.width r.init)) t.regs;
  let rec eval = function
    | Lit { width; value } -> mask ~width value
    | Ref s -> (
        match Hashtbl.find_opt env s.name with
        | Some v -> v
        | None -> 0L (* uninitialized wire before first drive *))
    | App (op, args, width) -> (
        let vals = Array.of_list (List.map eval args) in
        match op with
        | Ir.Op.Concat ->
            (* low operand width = total - high width *)
            let high_w =
              match args with
              | [ h; _ ] -> (
                  match h with
                  | Ref s -> s.width
                  | Lit { width; _ } -> width
                  | App (_, _, w) -> w)
              | _ -> invalid_arg "Netlist.simulate: concat arity"
            in
            let low_w = width - high_w in
            mask ~width
              (Int64.logor (Int64.shift_left vals.(0) low_w) vals.(1))
        | _ -> Ir.Op.eval op ~width ~black_box:(fun ~kind _ -> black_box ~kind [||]) vals)
  in
  let out_arrays =
    List.map (fun (s, _) -> (s.name, Array.make cycles 0L)) t.outputs
  in
  for cycle = 0 to cycles - 1 do
    (* input ports *)
    List.iter
      (fun s ->
        Hashtbl.replace env s.name
          (mask ~width:s.width (inputs ~cycle ~name:s.name)))
      t.inputs;
    (* combinational settle, in dependency order *)
    List.iter
      (fun (s, w) ->
        let v =
          match w with
          | `Expr e -> eval e
          | `Instance { kind; args; _ } ->
              black_box ~kind (Array.of_list (List.map eval args))
        in
        Hashtbl.replace env s.name (mask ~width:s.width v))
      t.wires;
    (* sample outputs *)
    List.iter2
      (fun (_, e) (_, arr) -> arr.(cycle) <- eval e)
      t.outputs out_arrays;
    (* clock edge: all registers update simultaneously *)
    let next = List.map (fun r -> (r.q, eval r.d)) t.regs in
    List.iter
      (fun ((q : signal), v) -> Hashtbl.replace env q.name (mask ~width:q.width v))
      next
  done;
  { cycles; outputs = out_arrays }
