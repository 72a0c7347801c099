type t = {
  logic : float;
  arith_base : float;
  arith_per_bit : float;
  black_box : (string * float) list;
}

let make ?(logic = 1.37) ?(arith_base = 1.0) ?(arith_per_bit = 0.07)
    ?(black_box = []) () =
  let neg f = f < 0.0 in
  if
    neg logic || neg arith_base || neg arith_per_bit
    || List.exists (fun (_, d) -> neg d) black_box
  then invalid_arg "Delays.make: negative delay";
  { logic; arith_base; arith_per_bit; black_box }

(* "bram_port" models a synchronous block-RAM read; "dsp" a DSP48 multiply;
   "io" a streamed input/output port. *)
let default =
  make ~black_box:[ ("bram_port", 2.8); ("dsp", 4.2); ("io", 0.6) ] ()

let with_logic t ~logic =
  if logic < 0.0 then invalid_arg "Delays.with_logic: negative delay";
  { t with logic }

let additive t ~cls ~width =
  match (cls : Op_class.t) with
  | Op_class.Wire -> 0.0
  | Op_class.Logic -> t.logic
  | Op_class.Arith -> t.arith_base +. (t.arith_per_bit *. float_of_int width)
  | Op_class.Black_box r -> (
      match List.assoc_opt r t.black_box with
      | Some d -> d
      | None -> t.logic)

let latency_cycles t ~device ~cls ~width =
  let d = additive t ~cls ~width in
  let period = Device.usable_period device in
  int_of_float (floor (d /. period))
