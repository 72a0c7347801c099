type t = {
  k : int;
  lut_delay : float;
  t_clk : float;
  clock_uncertainty : float;
}

let make ?(k = 4) ?(lut_delay = 0.9) ?(clock_uncertainty = 0.0) ~t_clk () =
  if k < 2 then invalid_arg "Device.make: k < 2";
  if lut_delay < 0.0 || clock_uncertainty < 0.0 || t_clk <= 0.0 then
    invalid_arg "Device.make: negative delay";
  if t_clk -. clock_uncertainty <= lut_delay then
    invalid_arg "Device.make: clock period too short for a single LUT";
  { k; lut_delay; t_clk; clock_uncertainty }

let default = make ~t_clk:10.0 ()
let figure1 = make ~lut_delay:2.0 ~t_clk:5.0 ()
let usable_period d = d.t_clk -. d.clock_uncertainty

let levels_per_cycle d =
  let n = int_of_float (floor (usable_period d /. d.lut_delay)) in
  max 1 n
