(** Cover-aware ASAP modulo scheduling: given a fixed LUT cover, schedule
    the cover's roots with chaining under the mapped delay model.

    This is the scalable {e map-first} heuristic the paper proposes as
    future work (Sec. 5): choose the mapping up front (area-flow), then
    schedule the mapped netlist — no MILP. It is used both as a flow of
    its own and as the strongest warm start for the MILP-map solve. *)

val schedule :
  device:Fpga.Device.t ->
  delays:Fpga.Delays.t ->
  resources:Fpga.Resource.budget ->
  ii:int ->
  Ir.Cdfg.t ->
  Cover.t ->
  (Schedule.t, Heuristic.error) result
(** {!Heuristic.modulo} over the mapped view: roots are placed ASAP in
    topological order behind their cones' inputs ({!Cuts.iter_inputs}),
    with combinational chaining of cut delays; cone-interior nodes then
    inherit their owner's slot; {!Heuristic.check} gives the verdict. *)
