type t = Logic | Wire | Arith | Black_box of string

let equal a b =
  match (a, b) with
  | Logic, Logic | Wire, Wire | Arith, Arith -> true
  | Black_box x, Black_box y -> String.equal x y
  | (Logic | Wire | Arith | Black_box _), _ -> false

let is_black_box = function
  | Black_box _ -> true
  | Logic | Wire | Arith -> false

let is_mappable = function
  | Logic | Wire | Arith -> true
  | Black_box _ -> false
