type value = Node of int | Cell of int

type proto = {
  p_op : Op.t;
  p_width : int;
  p_preds : value array;
  p_name : string option;
}

type cell = {
  c_width : int;
  c_init : int64;
  c_dist : int;
  mutable c_driver : int option;
}

type t = {
  mutable nodes : proto list;  (* reversed *)
  mutable n_nodes : int;
  mutable cells : cell list;  (* reversed *)
  mutable n_cells : int;
  mutable outs : int list;  (* reversed *)
}

let create () = { nodes = []; n_nodes = 0; cells = []; n_cells = 0; outs = [] }

let cell_info b i = List.nth b.cells (b.n_cells - 1 - i)

let width_of b = function
  | Node i -> (List.nth b.nodes (b.n_nodes - 1 - i)).p_width
  | Cell i -> (cell_info b i).c_width

let add_node b ?name ~op ~width preds =
  let id = b.n_nodes in
  b.nodes <- { p_op = op; p_width = width; p_preds = Array.of_list preds;
               p_name = name } :: b.nodes;
  b.n_nodes <- id + 1;
  Node id

let infer b ?name op preds =
  let operand_widths = List.map (width_of b) preds in
  let width = Op.result_width op ~operand_widths in
  add_node b ?name ~op ~width preds

let input b ?name ~width nm =
  add_node b ?name:(Some (Option.value name ~default:nm))
    ~op:(Op.Input nm) ~width []

let const b ~width v =
  if width < 64 && Int64.unsigned_compare v (Int64.shift_left 1L width) >= 0
  then invalid_arg "Builder.const: value does not fit width";
  add_node b ~op:(Op.Const v) ~width []

let feedback b ~width ~init ~dist =
  if dist < 1 then invalid_arg "Builder.feedback: dist < 1";
  let id = b.n_cells in
  b.cells <- { c_width = width; c_init = init; c_dist = dist; c_driver = None }
             :: b.cells;
  b.n_cells <- id + 1;
  Cell id

let drive b ~cell v =
  match (cell, v) with
  | Cell i, Node j ->
      let c = cell_info b i in
      if c.c_driver <> None then invalid_arg "Builder.drive: already driven";
      if width_of b v <> c.c_width then
        invalid_arg "Builder.drive: width mismatch";
      c.c_driver <- Some j
  | Cell _, Cell _ -> invalid_arg "Builder.drive: driver must be a node"
  | Node _, _ -> invalid_arg "Builder.drive: not a feedback cell"

let not_ b ?name v = infer b ?name Op.Not [ v ]
let and_ b ?name x y = infer b ?name (Op.Bitwise Op.And) [ x; y ]
let or_ b ?name x y = infer b ?name (Op.Bitwise Op.Or) [ x; y ]
let xor_ b ?name x y = infer b ?name (Op.Bitwise Op.Xor) [ x; y ]
let shl b ?name v s = infer b ?name (Op.Shl s) [ v ]
let shr b ?name v s = infer b ?name (Op.Shr s) [ v ]
let slice b ?name v ~lo ~hi = infer b ?name (Op.Slice { lo; hi }) [ v ]
let concat b ?name high low = infer b ?name Op.Concat [ high; low ]
let add b ?name x y = infer b ?name Op.Add [ x; y ]
let sub b ?name x y = infer b ?name Op.Sub [ x; y ]
let cmp b ?name c x y = infer b ?name (Op.Cmp c) [ x; y ]
let mux b ?name ~cond x y = infer b ?name Op.Mux [ cond; x; y ]

let black_box b ?name ~kind ~resource ~width preds =
  add_node b ?name ~op:(Op.Black_box { kind; resource }) ~width preds

let rec reduce b ?name f = function
  | [] -> invalid_arg "Builder.reduce: empty"
  | [ v ] -> v
  | vs ->
      let rec pair = function
        | x :: y :: rest -> f b x y :: pair rest
        | ([ _ ] | []) as rest -> rest
      in
      reduce b ?name f (pair vs)

let output b v =
  match v with
  | Node i -> b.outs <- i :: b.outs
  | Cell _ -> invalid_arg "Builder.output: cannot output a feedback cell"

let finish b =
  let cells = Array.of_list (List.rev b.cells) in
  let resolve = function
    | Node i -> Cdfg.{ src = i; dist = 0; init = 0L }
    | Cell i -> (
        let c = cells.(i) in
        match c.c_driver with
        | None -> invalid_arg "Builder.finish: undriven feedback cell"
        | Some j -> Cdfg.{ src = j; dist = c.c_dist; init = c.c_init })
  in
  let protos = List.rev b.nodes in
  let nodes =
    List.mapi
      (fun id p ->
        Cdfg.{ id; op = p.p_op; width = p.p_width;
               preds = Array.map resolve p.p_preds; name = p.p_name })
      protos
  in
  Cdfg.create ~nodes ~outputs:(List.rev b.outs)
