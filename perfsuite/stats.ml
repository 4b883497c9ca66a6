(* Order statistics shared by the suite and the noise-model tool. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank: the smallest sample with at least [q] of the data at or
   below it. For 50 samples, [percentile 0.8] leaves 10 beyond it. *)
let percentile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

(* First and third quartile by Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so spreads printed here match the
   ones a reader recomputes from the same values. Needs two samples. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then (nan, nan)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

(* JSON numbers with all their digits; non-finite values have no JSON
   spelling and are a harness bug, so they print as null and fail the
   presence check downstream. *)
let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
