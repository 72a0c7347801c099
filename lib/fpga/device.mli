(** FPGA device model: K-input LUTs, delay characterization, and resource
    classes for black-box operations.

    This module stands in for the combination of a real device database and
    the delay back-annotation the paper extracts from the commercial HLS
    tool's schedule reports. All delays are in nanoseconds. *)

type t = {
  k : int;  (** LUT input count (paper uses K <= 6; figures use K = 4) *)
  lut_delay : float;
      (** Delay of one LUT level including local routing, ns *)
  t_clk : float;  (** Target clock period [T_cp], ns *)
  clock_uncertainty : float;
      (** Margin subtracted from [t_clk] when checking chains, ns *)
}

val make :
  ?k:int -> ?lut_delay:float -> ?clock_uncertainty:float -> t_clk:float ->
  unit -> t
(** [make ~t_clk ()] builds a device. Defaults: [k = 4],
    [lut_delay = 0.9] ns, [clock_uncertainty = 0.0] ns.
    @raise Invalid_argument if [k < 2], or any delay is negative, or
    [t_clk <= lut_delay] (no operation could ever be scheduled). *)

val default : t
(** The device used by the Table 1 experiments: [k = 4],
    [lut_delay = 0.9] ns, [t_clk = 10.0] ns — the paper's 10 ns target. *)

val figure1 : t
(** The device of the paper's Figures 1–2: [k = 4], [lut_delay = 2.0] ns,
    [t_clk = 5.0] ns. *)

val usable_period : t -> float
(** [t_clk - clock_uncertainty]: budget available to combinational chains. *)

val levels_per_cycle : t -> int
(** Maximum number of LUT levels that fit in one clock cycle. At least 1. *)

