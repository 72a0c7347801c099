let mask ~width v =
  Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let eq_zero b ~chunk v =
  let width = Ir.Builder.width_of b v in
  let rec chunks lo acc =
    if lo >= width then List.rev acc
    else
      let hi = min (width - 1) (lo + chunk - 1) in
      let part = Ir.Builder.slice b v ~lo ~hi in
      let zero = Ir.Builder.const b ~width:(hi - lo + 1) 0L in
      let test = Ir.Builder.cmp b Ir.Op.Eq part zero in
      chunks (hi + 1) (test :: acc)
  in
  match chunks 0 [] with
  | [] -> invalid_arg "Bench_util.eq_zero: zero width"
  | [ t ] -> t
  | tests -> Ir.Builder.reduce b (fun b x y -> Ir.Builder.and_ b x y) tests

let mux_const b ~width ~cond if_true if_false =
  let t = Ir.Builder.const b ~width if_true in
  let f = Ir.Builder.const b ~width if_false in
  Ir.Builder.mux b ~cond t f

let xor_reduce b values =
  Ir.Builder.reduce b (fun b x y -> Ir.Builder.xor_ b x y) values

(* Classic SWAR population count: sum adjacent 1-bit fields, then 2-bit
   fields, and so on up to the full width. *)
let swar_masks =
  [
    (1, 0x5555555555555555L);
    (2, 0x3333333333333333L);
    (4, 0x0f0f0f0f0f0f0f0fL);
    (8, 0x00ff00ff00ff00ffL);
    (16, 0x0000ffff0000ffffL);
  ]

let popcount b v ~width =
  if width land (width - 1) <> 0 || width > 32 then
    invalid_arg "Bench_util.popcount: width must be a power of two <= 32";
  let steps = List.filter (fun (s, _) -> s < width) swar_masks in
  List.fold_left
    (fun acc (shift, m) ->
      let m = Ir.Builder.const b ~width (mask ~width m) in
      let low = Ir.Builder.and_ b acc m in
      let shifted = Ir.Builder.shr b acc shift in
      let high = Ir.Builder.and_ b shifted m in
      Ir.Builder.add b low high)
    v steps

let popcount_ref ~width v =
  let v = mask ~width v in
  let steps = List.filter (fun (s, _) -> s < width) swar_masks in
  List.fold_left
    (fun acc (shift, m) ->
      let m = mask ~width m in
      let low = Int64.logand acc m in
      let high = Int64.logand (Int64.shift_right_logical acc shift) m in
      mask ~width (Int64.add low high))
    v steps
