type t = { ii : int; cycle : int array; start : float array }

let make ~ii ~cycle ~start =
  if ii < 1 then invalid_arg "Schedule.make: ii < 1";
  if Array.length cycle <> Array.length start then
    invalid_arg "Schedule.make: length mismatch";
  Array.iter (fun c -> if c < 0 then invalid_arg "Schedule.make: negative cycle") cycle;
  Array.iter
    (fun l -> if l < -1e-9 || Float.is_nan l then invalid_arg "Schedule.make: bad start")
    start;
  { ii; cycle; start = Array.map (fun l -> Float.max 0.0 l) start }

let latency s = Array.fold_left max 0 s.cycle
let phase s v = s.cycle.(v) mod s.ii

let shift_to_zero s =
  let lo = Array.fold_left min max_int s.cycle in
  if lo = 0 then s else { s with cycle = Array.map (fun c -> c - lo) s.cycle }

let pp_detailed g ppf s =
  Fmt.pf ppf "@[<v>II=%d latency=%d@," s.ii (latency s);
  Array.iteri
    (fun v c ->
      Fmt.pf ppf "  %-12s cycle %2d  t=%.2fns@," (Ir.Cdfg.node_name g v) c
        s.start.(v))
    s.cycle;
  Fmt.pf ppf "@]"
