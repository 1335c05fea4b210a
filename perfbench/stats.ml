(* Order statistics shared by the workloads, the replay and [diff]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (Hyndman–Fan type 7, the
   numpy default). [nan] on an empty sample. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = float_of_int (n - 1) *. p in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] computes
   them (its default "exclusive" method), so [diff] agrees with spreads
   computed by Python tooling. Needs two values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Division that reads 0 when nothing was measured, for ratios whose base
   a workload never exercises. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
