(* Exact dyadic-rational arithmetic for the certificate audit.

   Every number the solver touches — model coefficients, bounds, duals,
   objectives — is an IEEE-754 double, i.e. a dyadic rational m·2^e with
   |m| < 2^53. The audit only ever needs ring operations on such numbers
   (sums of products: row evaluations, Neumaier–Shcherbina safe bounds,
   Farkas aggregation) plus comparisons, so a dyadic representation with
   an arbitrary-precision integer mantissa is closed under everything we
   do: no division, no gcd, no rounding, ever. This keeps the checker
   self-contained — no zarith, per the no-new-dependencies rule.

   The mantissa is a sign-magnitude bignum in base 2^24 (products of two
   limbs fit comfortably in OCaml's 63-bit native ints). *)

let base_bits = 24
let base = 1 lsl base_bits
let mask = base - 1

(* Little-endian limbs, no high zero limbs. [||] encodes zero. *)
type mag = int array

type t = { sg : int; mg : mag; ex : int }
(* value = sg · (Σ mg.(i)·2^(24·i)) · 2^ex,  sg ∈ {-1,0,+1}, sg = 0 ⇔ mg = [||] *)

let zero = { sg = 0; mg = [||]; ex = 0 }

(* ---------------- magnitude primitives ---------------- *)

let mnorm (a : mag) : mag =
  let k = ref (Array.length a) in
  while !k > 0 && a.(!k - 1) = 0 do
    decr k
  done;
  if !k = Array.length a then a else Array.sub a 0 !k

let mcmp (a : mag) (b : mag) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let madd (a : mag) (b : mag) : mag =
  let la = Array.length a and lb = Array.length b in
  let l = max la lb + 1 in
  let r = Array.make l 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  mnorm r

(* requires a >= b *)
let msub (a : mag) (b : mag) : mag =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  mnorm r

let mmul (a : mag) (b : mag) : mag =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          (* ai·bj < 2^48; + r + carry stays well under 2^62 *)
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land mask;
          carry := s lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land mask;
          carry := s lsr base_bits;
          incr k
        done
      end
    done;
    mnorm r
  end

(* a · 2^k, k >= 0 *)
let mshift (a : mag) k : mag =
  if Array.length a = 0 || k = 0 then a
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) lsl bits) lor !carry in
      r.(i + limbs) <- s land mask;
      carry := s lsr base_bits
    done;
    r.(la + limbs) <- !carry;
    mnorm r
  end

(* strip low zero limbs into the exponent to keep numbers short *)
let canon sg mg ex =
  let mg = mnorm mg in
  if Array.length mg = 0 then zero
  else begin
    let z = ref 0 in
    while mg.(!z) = 0 do
      incr z
    done;
    if !z = 0 then { sg; mg; ex }
    else
      { sg; mg = Array.sub mg !z (Array.length mg - !z); ex = ex + (base_bits * !z) }
  end

(* ---------------- constructors ---------------- *)

let mag_of_abs_int v =
  if v = 0 then [||]
  else begin
    let rec count v acc = if v = 0 then acc else count (v lsr base_bits) (acc + 1) in
    let l = count v 0 in
    Array.init l (fun i -> (v lsr (base_bits * i)) land mask)
  end

let of_int v =
  if v = 0 then zero
  else canon (if v < 0 then -1 else 1) (mag_of_abs_int (abs v)) 0

let two_pow_53 = 9007199254740992.0

let of_float f =
  if f = 0.0 then zero
  else if not (Float.is_finite f) then invalid_arg "Qd.of_float: non-finite"
  else begin
    let m, e = Float.frexp (Float.abs f) in
    (* m ∈ [0.5, 1); m·2^53 is an exact integer < 2^53 *)
    let mi = Int64.to_int (Int64.of_float (m *. two_pow_53)) in
    canon (if f < 0.0 then -1 else 1) (mag_of_abs_int mi) (e - 53)
  end

(* ---------------- ring operations ---------------- *)

let neg a = if a.sg = 0 then a else { a with sg = -a.sg }

(* align two numbers to a common exponent *)
let aligned a b =
  if a.sg = 0 then (a.mg, b.mg, b.ex)
  else if b.sg = 0 then (a.mg, b.mg, a.ex)
  else begin
    let e = min a.ex b.ex in
    (mshift a.mg (a.ex - e), mshift b.mg (b.ex - e), e)
  end

let add a b =
  if a.sg = 0 then b
  else if b.sg = 0 then a
  else begin
    let ma, mb, e = aligned a b in
    if a.sg = b.sg then canon a.sg (madd ma mb) e
    else begin
      match mcmp ma mb with
      | 0 -> zero
      | c when c > 0 -> canon a.sg (msub ma mb) e
      | _ -> canon b.sg (msub mb ma) e
    end
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sg = 0 || b.sg = 0 then zero
  else canon (a.sg * b.sg) (mmul a.mg b.mg) (a.ex + b.ex)

let sign a = a.sg
let is_zero a = a.sg = 0

let compare a b =
  if a.sg <> b.sg then compare a.sg b.sg
  else if a.sg = 0 then 0
  else begin
    let ma, mb, _ = aligned a b in
    a.sg * mcmp ma mb
  end

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let geq a b = compare a b >= 0

(* Is the value an integer? True iff no fractional bits survive. *)
let is_integer a =
  a.sg = 0 || a.ex >= 0
  ||
  let frac_bits = -a.ex in
  let full = frac_bits / base_bits and rest = frac_bits mod base_bits in
  let l = Array.length a.mg in
  let ok = ref true in
  for i = 0 to Stdlib.min full l - 1 do
    if a.mg.(i) <> 0 then ok := false
  done;
  if !ok && rest > 0 && full < l then
    if a.mg.(full) land ((1 lsl rest) - 1) <> 0 then ok := false;
  !ok && full <= l

(* Approximate float for messages only; may overflow to infinity. *)
let to_float a =
  if a.sg = 0 then 0.0
  else begin
    let l = Array.length a.mg in
    (* top three limbs carry >= 53 significant bits *)
    let acc = ref 0.0 in
    let lo = Stdlib.max 0 (l - 3) in
    for i = l - 1 downto lo do
      acc := (!acc *. float_of_int base) +. float_of_int a.mg.(i)
    done;
    float_of_int a.sg *. Float.ldexp !acc (a.ex + (base_bits * lo))
  end

let pp ppf a = Fmt.pf ppf "%.17g" (to_float a)

(* Exact dot-product accumulator: fold of add/mul without intermediate
   rounding. [dot f n] sums f i for i in [0, n). *)
let sum n f =
  let acc = ref zero in
  for i = 0 to n - 1 do
    acc := add !acc (f i)
  done;
  !acc

(* ---------------- exact accumulator ---------------- *)

(* A Kulisch register: one fixed-point integer, in signed limbs of 26
   bits, wide enough for any sum of double×double×double products. Every
   double is [m·2^e] with [m < 2^53] and [e >= -1074]; putting bit 0 of
   the register at 2^(26·-130) makes each double an integer on it, and a
   double's mantissa, shifted onto the 26-bit grid, splits into exactly
   three limbs. A product of two doubles is then nine limb products of
   at most 52 bits each, added into five register limbs with no shifting.

   Carries are deferred: a write adds less than 3·2^52 to any limb, so
   up to [max_pending] writes fit in a 63-bit limb before the register
   is normalized. Normalizing propagates carries over the touched range
   [lo, hi] and leaves the register in sign-magnitude form (every limb in
   [0, 2^26), the sign in [neg]); reads normalize first. *)
module Acc = struct
  let w = 26
  let lmask = (1 lsl w) - 1
  let off = 130 (* register index of the limb of weight 2^0 *)
  let size = 264
  let max_pending = 200

  type nonrec t = {
    l : int array;
    mutable lo : int;  (** lowest touched limb; [lo > hi] when empty *)
    mutable hi : int;
    mutable neg : bool;  (** value = (neg ? -1 : 1) · Σ l.(k)·2^(w·(k - off)) *)
    mutable pending : int;  (** writes since the last normalization *)
  }

  let create () = { l = Array.make size 0; lo = size; hi = -1; neg = false; pending = 0 }

  let clear a =
    if a.lo <= a.hi then Array.fill a.l a.lo (a.hi - a.lo + 1) 0;
    a.lo <- size;
    a.hi <- -1;
    a.neg <- false;
    a.pending <- 0

  let normalize a =
    if a.pending > 0 then begin
      let l = a.l in
      let carry = ref 0 in
      for k = a.lo to a.hi do
        let v = Array.unsafe_get l k + !carry in
        Array.unsafe_set l k (v land lmask);
        carry := v asr w
      done;
      let k = ref a.hi in
      while !carry <> 0 && !carry <> -1 do
        incr k;
        let v = l.(!k) + !carry in
        l.(!k) <- v land lmask;
        carry := v asr w
      done;
      a.hi <- !k;
      if !carry = -1 then begin
        (* the limbs hold 2^(w·(hi+1)) + value: negate in two's
           complement and flip the sign *)
        let c = ref 1 in
        for k = a.lo to a.hi do
          let v = lmask - l.(k) + !c in
          l.(k) <- v land lmask;
          c := v lsr w
        done;
        if !c <> 0 then begin
          a.hi <- a.hi + 1;
          l.(a.hi) <- !c
        end;
        a.neg <- not a.neg
      end;
      while a.hi >= a.lo && l.(a.hi) = 0 do
        a.hi <- a.hi - 1
      done;
      while a.lo <= a.hi && l.(a.lo) = 0 do
        a.lo <- a.lo + 1
      done;
      if a.lo > a.hi then begin
        a.lo <- size;
        a.hi <- -1;
        a.neg <- false
      end;
      a.pending <- 0
    end

  (* Room for one more write: normalize every [max_pending] writes. *)
  let[@inline] reserve a =
    if a.pending >= max_pending then normalize a;
    a.pending <- a.pending + 1

  (* The IEEE-754 bits of [f] but its sign (which [Int64.to_int] drops):
     biased exponent above bit 52, stored mantissa below. *)
  let[@inline] bits f = Int64.to_int (Int64.bits_of_float f)

  let non_finite () = invalid_arg "Qd.Acc: non-finite"

  (* [f = mant·2^(pos - 1092)]: [pos] is the biased exponent (1 for a
     subnormal) plus 17, and 1092 = 42·26 is the smallest multiple of 26
     at or above 1074, so [f]'s three limbs start at register limb
     [pos / 26 - 42 + off], shifted up by [pos mod 26] bits. *)
  let[@inline] mant b = if b lsr 52 = 0 then b else (b land 0xf_ffff_ffff_ffff) lor (1 lsl 52)
  let[@inline] pos b = (let e = b lsr 52 in if e = 0 then 1 else e) + 17

  let[@inline] deposit a k v =
    if v <> 0 then Array.unsafe_set a.l k (Array.unsafe_get a.l k + v)

  let[@inline] add_prod a x y =
    let bx = bits x and by = bits y in
    if bx lsr 52 = 0x7ff || by lsr 52 = 0x7ff then non_finite ();
    if bx <> 0 && by <> 0 then begin
      reserve a;
      let mx = mant bx and px = pos bx in
      let my = mant by and py = pos by in
      let sx = px mod w and sy = py mod w in
      let x0 = (mx lsl sx) land lmask
      and x1 = (mx lsr (w - sx)) land lmask
      and x2 = mx lsr ((2 * w) - sx) in
      let y0 = (my lsl sy) land lmask
      and y1 = (my lsr (w - sy)) land lmask
      and y2 = my lsr ((2 * w) - sy) in
      (* limbs 46 to 208 for any two finite doubles *)
      let k = (px / w) + (py / w) + off - 84 in
      let negp = (x < 0.0) <> (y < 0.0) <> a.neg in
      let s = if negp then -1 else 1 in
      deposit a k (s * (x0 * y0));
      deposit a (k + 1) (s * ((x0 * y1) + (x1 * y0)));
      deposit a (k + 2) (s * ((x0 * y2) + (x1 * y1) + (x2 * y0)));
      deposit a (k + 3) (s * ((x1 * y2) + (x2 * y1)));
      deposit a (k + 4) (s * (x2 * y2));
      if k < a.lo then a.lo <- k;
      if k + 4 > a.hi then a.hi <- k + 4
    end

  (* Limbs outside the touched range are zero. *)
  let[@inline] limb l i = if i < 0 then 0 else Array.unsafe_get l i

  let add_scaled a src f =
    let bf = bits f in
    if bf lsr 52 = 0x7ff then non_finite ();
    normalize src;
    if bf <> 0 && src.lo <= src.hi then begin
      reserve a;
      let mf = mant bf and pf = pos bf in
      let sf = pf mod w in
      let f0 = (mf lsl sf) land lmask
      and f1 = (mf lsr (w - sf)) land lmask
      and f2 = mf lsr ((2 * w) - sf) in
      (* src limb k times f's limb j lands in limb k + j + shift *)
      let shift = (pf / w) - 42 in
      let klo = src.lo + shift and khi = src.hi + shift + 2 in
      if klo < 0 || khi >= size then invalid_arg "Qd.Acc: out of range";
      let negp = src.neg <> (f < 0.0) <> a.neg in
      let s = if negp then -1 else 1 in
      let sl = src.l in
      for k = klo to khi do
        let i = k - shift in
        deposit a k (s * ((limb sl i * f0) + (limb sl (i - 1) * f1) + (limb sl (i - 2) * f2)))
      done;
      if klo < a.lo then a.lo <- klo;
      if khi > a.hi then a.hi <- khi
    end

  let is_zero a =
    normalize a;
    a.lo > a.hi

  let sign a =
    normalize a;
    if a.lo > a.hi then 0 else if a.neg then -1 else 1

  let is_integer a =
    normalize a;
    a.lo > a.hi || a.lo >= off

  let no_floor = min_int

  let floor_int a =
    normalize a;
    if a.lo > a.hi then 0
    else if a.hi >= off + 3 || (a.hi = off + 2 && a.l.(a.hi) > 2) then no_floor
    else begin
      (* magnitude's integer part, below 3·2^52 *)
      let ip = ref 0 in
      for k = a.hi downto off do
        ip := (!ip lsl w) + a.l.(k)
      done;
      let f = if a.neg then -(!ip + if a.lo < off then 1 else 0) else !ip in
      if f >= -(1 lsl 53) && f < 1 lsl 53 then f else no_floor
    end

  let floor a =
    let f = floor_int a in
    if f = no_floor then None else Some (float_of_int f)

  let bit_length v =
    let rec go v n = if v = 0 then n else go (v lsr 1) (n + 1) in
    go v 0

  (* Round to nearest, ties to even, on the magnitude's top bits: the
     result's last bit has weight 2^r with r = max(p - 52, -1074), where
     2^p is the leading bit; two guard bits and a sticky bit decide. *)
  let to_float a =
    normalize a;
    if a.lo > a.hi then 0.0
    else begin
      let l = a.l and h = a.hi in
      let p = (w * (h - off)) + bit_length l.(h) - 1 in
      let r = Stdlib.max (p - 52) (-1074) in
      let base = r - 2 in
      let g = ref 0 and sticky = ref false in
      let k = ref h in
      while !k >= a.lo do
        let lk = l.(!k) and sh = (w * (!k - off)) - base in
        if sh >= 0 then g := !g + (lk lsl sh)
        else if sh > -w then begin
          g := !g + (lk lsr (-sh));
          if lk land ((1 lsl (-sh)) - 1) <> 0 then sticky := true
        end
        else begin
          (* every limb from here down lies below the guard bits, and
             limb [lo] is nonzero *)
          sticky := true;
          k := a.lo
        end;
        decr k
      done;
      let q = !g lsr 2 and rest = !g land 3 in
      let q = if rest > 2 || (rest = 2 && (!sticky || q land 1 = 1)) then q + 1 else q in
      let v = Float.ldexp (float_of_int q) r in
      if a.neg then -.v else v
    end

  let to_qd a =
    normalize a;
    let acc = ref zero in
    for k = a.lo to a.hi do
      if a.l.(k) <> 0 then
        acc := add !acc (canon 1 (mag_of_abs_int a.l.(k)) (w * (k - off)))
    done;
    if a.neg then neg !acc else !acc
end
