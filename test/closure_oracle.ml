(* The reference closure of [Bitdep.dep]: the boundary-bit support of
   every output bit of a cone's root, closed transitively from scratch as
   [Bitpos.Set] unions, memoised per (node, bit). Expansion goes through
   the cone's nodes and stops at nodes outside it; registered
   ([dist > 0]) reads always stop, even if the producer is in the cone.
   The tests hold [Bitdep.compose] (what cut enumeration runs) and the
   cut oracle against it. *)

module Bitpos = Bitdep.Bitpos
module Int_set = Bitdep.Int_set

type bit_support = {
  bits : Bitpos.Set.t;  (** boundary bits feeding this output bit *)
  pure_wire : bool;
      (** the bit is a plain copy of a single boundary bit (or a constant)
          routed only through wiring — it needs no LUT *)
}

(* The support of every output bit of [root] within [cone]. *)
let supports g ~root ~cone =
  if not (Int_set.mem root cone) then
    invalid_arg "Closure_oracle: root not in cone";
  let memo = Hashtbl.create 64 in
  let rec go node bit =
    match Hashtbl.find_opt memo (node, bit) with
    | Some r -> r
    | None ->
        let step = Bitdep.dep g ~node ~bit in
        let r =
          List.fold_left
            (fun acc (p : Bitpos.t) ->
              if p.dist > 0 || not (Int_set.mem p.node cone) then
                { acc with bits = Bitpos.Set.add p acc.bits }
              else
                let sub = go p.node p.bit in
                {
                  bits = Bitpos.Set.union sub.bits acc.bits;
                  pure_wire = acc.pure_wire && sub.pure_wire;
                })
            { bits = Bitpos.Set.empty; pure_wire = step.passthrough }
            step.reads
        in
        Hashtbl.replace memo (node, bit) r;
        r
  in
  Array.init (Ir.Cdfg.width g root) (go root)

let measure sups : Bitdep.cone_support =
  Array.fold_left
    (fun (s : Bitdep.cone_support) b ->
      let n = Bitpos.Set.cardinal b.bits in
      {
        max_support = max s.max_support n;
        lut_bits =
          (if n >= 2 || (n = 1 && not b.pure_wire) then s.lut_bits + 1
           else s.lut_bits);
      })
    { max_support = 0; lut_bits = 0 }
    sups

(* The root's (max support, LUT bits); [None] iff some output bit's
   support exceeds [bound] (default unbounded). *)
let closure ?(bound = max_int) g ~root ~cone =
  let s = measure (supports g ~root ~cone) in
  if s.max_support > bound then None else Some s

(* Output bit [bit]'s support. *)
let support g ~root ~cone ~bit =
  if bit < 0 || bit >= Ir.Cdfg.width g root then
    invalid_arg "Closure_oracle.support: bit outside the root's width";
  (supports g ~root ~cone).(bit)

let max_support_width g ~root ~cone =
  (measure (supports g ~root ~cone)).max_support

let lut_bits g ~root ~cone = (measure (supports g ~root ~cone)).lut_bits
