type bitwise = And | Or | Xor
type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Input of string
  | Const of int64
  | Not
  | Bitwise of bitwise
  | Shl of int
  | Shr of int
  | Slice of { lo : int; hi : int }
  | Concat
  | Add
  | Sub
  | Cmp of cmp
  | Mux
  | Black_box of { kind : string; resource : string }

let arity = function
  | Input _ | Const _ -> Some 0
  | Not | Shl _ | Shr _ | Slice _ -> Some 1
  | Bitwise _ | Concat | Add | Sub | Cmp _ -> Some 2
  | Mux -> Some 3
  | Black_box _ -> None

let classify = function
  | Input _ | Const _ | Shl _ | Shr _ | Slice _ | Concat -> Fpga.Op_class.Wire
  | Not | Bitwise _ | Mux -> Fpga.Op_class.Logic
  | Add | Sub | Cmp _ -> Fpga.Op_class.Arith
  | Black_box { resource; _ } -> Fpga.Op_class.Black_box resource

let validate_widths op ~operand_widths =
  let fail fmt = Fmt.kstr (fun s -> Error s) fmt in
  let arity_ok =
    match arity op with
    | Some n when n <> List.length operand_widths ->
        fail "arity mismatch: expected %d operands, got %d" n
          (List.length operand_widths)
    | Some _ | None -> Ok ()
  in
  match arity_ok with
  | Error _ as e -> e
  | Ok () -> (
      match (op, operand_widths) with
      | (Input _ | Const _), [] -> Ok ()
      | (Not | Shl _ | Shr _), [ w ] when w > 0 -> Ok ()
      | Slice { lo; hi }, [ w ] ->
          if lo < 0 || hi < lo then fail "bad slice bounds [%d:%d]" hi lo
          else if hi >= w then fail "slice [%d:%d] exceeds width %d" hi lo w
          else Ok ()
      | (Bitwise _ | Add | Sub | Cmp _), [ w1; w2 ] ->
          if w1 <> w2 then fail "operand widths differ: %d vs %d" w1 w2
          else if w1 <= 0 then fail "non-positive width"
          else Ok ()
      | Concat, [ w1; w2 ] ->
          if w1 <= 0 || w2 <= 0 then fail "non-positive width" else Ok ()
      | Mux, [ wc; w1; w2 ] ->
          if wc <> 1 then fail "mux condition must be 1 bit, got %d" wc
          else if w1 <> w2 then fail "mux arm widths differ: %d vs %d" w1 w2
          else Ok ()
      | Black_box _, ws ->
          if List.exists (fun w -> w <= 0) ws then fail "non-positive width"
          else Ok ()
      | (Input _ | Const _ | Not | Shl _ | Shr _ | Slice _), _ ->
          fail "arity mismatch"
      | (Bitwise _ | Add | Sub | Cmp _ | Concat | Mux), _ ->
          fail "arity mismatch")

let result_width op ~operand_widths =
  (match validate_widths op ~operand_widths with
  | Error msg -> invalid_arg ("Op.result_width: " ^ msg)
  | Ok () -> ());
  match (op, operand_widths) with
  | (Not | Shl _ | Shr _), [ w ] -> w
  | Slice { lo; hi }, [ _ ] -> hi - lo + 1
  | (Bitwise _ | Add | Sub), w :: _ -> w
  | Cmp _, _ -> 1
  | Concat, [ w1; w2 ] -> w1 + w2
  | Mux, [ _; w; _ ] -> w
  | (Input _ | Const _ | Black_box _ | Not | Shl _ | Shr _ | Slice _), _ ->
      invalid_arg "Op.result_width: width must be given explicitly"
  | (Bitwise _ | Add | Sub | Concat | Mux), _ -> assert false

let mask ~width v =
  if width >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let bool_to_i64 b = if b then 1L else 0L

let eval op ~width ~black_box operands =
  let nth i =
    if i < Array.length operands then operands.(i)
    else invalid_arg "Op.eval: arity mismatch"
  in
  let v =
    match op with
    | Input name -> invalid_arg ("Op.eval: unresolved input " ^ name)
    | Const c -> c
    | Not -> Int64.lognot (nth 0)
    | Bitwise And -> Int64.logand (nth 0) (nth 1)
    | Bitwise Or -> Int64.logor (nth 0) (nth 1)
    | Bitwise Xor -> Int64.logxor (nth 0) (nth 1)
    | Shl s -> if s >= 64 then 0L else Int64.shift_left (nth 0) s
    | Shr s -> if s >= 64 then 0L else Int64.shift_right_logical (nth 0) s
    | Slice { lo; hi = _ } -> Int64.shift_right_logical (nth 0) lo
    | Concat ->
        (* operands are [high; low]; low width = width - high width is not
           recoverable here, so the simulator pre-shifts: we instead receive
           the low operand width via the mask of operand 1 being exact. The
           simulator calls a dedicated path for Concat. *)
        invalid_arg "Op.eval: Concat is evaluated by the simulator"
    | Add -> Int64.add (nth 0) (nth 1)
    | Sub -> Int64.sub (nth 0) (nth 1)
    | Cmp c ->
        let r = Int64.unsigned_compare (nth 0) (nth 1) in
        bool_to_i64
          (match c with
          | Eq -> r = 0
          | Ne -> r <> 0
          | Lt -> r < 0
          | Le -> r <= 0
          | Gt -> r > 0
          | Ge -> r >= 0)
    | Mux -> if Int64.equal (nth 0) 0L then nth 2 else nth 1
    | Black_box { kind; _ } -> black_box ~kind operands
  in
  mask ~width v

let to_string = function
  | Input name -> Printf.sprintf "input(%s)" name
  | Const c -> Printf.sprintf "const(%Ld)" c
  | Not -> "not"
  | Bitwise And -> "and"
  | Bitwise Or -> "or"
  | Bitwise Xor -> "xor"
  | Shl s -> Printf.sprintf "shl(%d)" s
  | Shr s -> Printf.sprintf "shr(%d)" s
  | Slice { lo; hi } -> Printf.sprintf "slice[%d:%d]" hi lo
  | Concat -> "concat"
  | Add -> "add"
  | Sub -> "sub"
  | Cmp Eq -> "cmp.eq"
  | Cmp Ne -> "cmp.ne"
  | Cmp Lt -> "cmp.lt"
  | Cmp Le -> "cmp.le"
  | Cmp Gt -> "cmp.gt"
  | Cmp Ge -> "cmp.ge"
  | Mux -> "mux"
  | Black_box { kind; resource } -> Printf.sprintf "bb.%s@%s" kind resource

