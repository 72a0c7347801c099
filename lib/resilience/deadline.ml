(* Absolute expiry instants on the monotonized wall clock
   ([Obs.Clock.wall]) plus an optional external cancellation cell.
   Everything here must stay allocation-light: [expired] is polled from
   simplex pivot loops. The record is two words; the common [none] case
   short-circuits on both fields. *)

type cell = bool Atomic.t

type t = { expiry : float option; cancel : cell option }

let none = { expiry = None; cancel = None }
let now () = Obs.Clock.wall ()
let of_budget b = { expiry = Some (now () +. Float.max 0.0 b); cancel = None }

let clip t ~budget =
  let e = now () +. Float.max 0.0 budget in
  let expiry =
    match t.expiry with None -> Some e | Some e' -> Some (Float.min e e')
  in
  { t with expiry }

let new_cell () = Atomic.make false
let with_cancel t cell = { t with cancel = Some cell }
let cancel cell = Atomic.set cell true
let clear_cell cell = Atomic.set cell false

let cancelled t =
  match t.cancel with None -> false | Some c -> Atomic.get c

let remaining t =
  match t.expiry with None -> infinity | Some e -> e -. now ()

let expired t =
  cancelled t
  || match t.expiry with None -> false | Some e -> e -. now () <= 0.0

let is_none t = t.expiry = None && t.cancel = None

let split t weights =
  match t.expiry with
  | None -> List.map (fun (name, _) -> (name, { t with expiry = None })) weights
  | Some e ->
      let t0 = now () in
      let rem = Float.max 0.0 (e -. t0) in
      let total =
        List.fold_left (fun acc (_, w) -> acc +. Float.max 0.0 w) 0.0 weights
      in
      let total = if total <= 0.0 then 1.0 else total in
      let acc = ref 0.0 in
      List.map
        (fun (name, w) ->
          acc := !acc +. Float.max 0.0 w;
          ( name,
            { t with
              expiry = Some (Float.min e (t0 +. (rem *. (!acc /. total))));
            } ))
        weights
