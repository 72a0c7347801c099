(* Machine-speed reference.

   On shared hosts the whole machine slows down for minutes at a time when
   neighbouring tenants are busy: every job, big or small, then runs
   1.25-1.5x slower, so no statistic over one run's wall times can tell a
   slow commit from a slow minute. This fixed kernel is timed right before
   and right after every job, on the same core and heap state, and slows
   down with the jobs: the job's time divided by the reference's cancels
   most of the machine's speed. The kernel is the benchmark's own code and
   calls nothing in the library, so a change to the library cannot move
   it.

   Its work mixes what the jobs do most: row updates on a dense float
   matrix (as in a simplex pivot) and allocation-heavy hash-table and list
   work (as in the graph passes). *)

(* The kernel's time on a 2-core x86-64 host in a quiet moment; scaled job
   times are in seconds at that speed. *)
let nominal_s = 0.0025

let n = 400

let matrix =
  Array.init n (fun i ->
      Array.init n (fun j -> float_of_int (((i * 7) + (j * 13)) mod 101) +. 1.0))

let kernel () =
  let pivot = matrix.(0) in
  for i = 1 to n - 1 do
    let row = matrix.(i) in
    let f = row.(0) *. 1e-12 in
    for j = 0 to n - 1 do
      row.(j) <- row.(j) -. (f *. pivot.(j))
    done
  done;
  let tbl = Hashtbl.create 16 in
  for i = 1 to 20_000 do
    Hashtbl.replace tbl (i mod 8000) (List.init 4 (fun k -> k + i))
  done;
  ignore (Sys.opaque_identity tbl)

(* Wall seconds of one kernel run, from a compacted heap. *)
let measure () =
  Gc.compact ();
  let t0 = Obs.Clock.wall () in
  kernel ();
  Obs.Clock.wall () -. t0
