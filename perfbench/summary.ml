(* Order statistics for the benchmark's reports.

   Quartiles follow Python's [statistics.quantiles(data, n=4)] (its
   default "exclusive" method), so a spread computed here agrees with
   one computed from the printed values.  Percentiles use the
   nearest-rank rule. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: empty"
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [quartiles xs] = (q1, q2, q3), as [statistics.quantiles(xs, n=4)]. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Summary.quartiles: fewer than two samples";
  let m = n + 1 in
  let cut i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
  in
  (cut 1, cut 2, cut 3)

(* Nearest rank of the [p]-th percentile among [n] samples (1-based);
   the epsilon absorbs the rounding in products like 99.9 * 10000. *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

(* Nearest-rank percentile: the smallest sample with at least [p] % of
   the samples at or below it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  a.(max 0 (min (n - 1) (rank n p - 1)))

(* Samples strictly above the [p]-th nearest-rank position. *)
let beyond n p = n - rank n p

let ladder = [ 50.; 90.; 99.; 99.9; 99.99; 99.999 ]

(* The highest percentile of [ladder] that still has at least ten samples
   beyond it — the tail a sample of size [n] can honestly report. *)
let reportable_percentile n =
  List.fold_left
    (fun best p -> if beyond n p >= 10 then Some p else best)
    None ladder

(* "median 12.3 ms, quartiles 11.9..12.8, p90 14.1 ms, n=240" *)
let describe ~unit_ xs =
  let n = List.length xs in
  let quarts =
    if n < 2 then ""
    else
      let q1, _, q3 = quartiles xs in
      Printf.sprintf ", quartiles %.4g..%.4g" q1 q3
  in
  let tail =
    match reportable_percentile n with
    | Some p -> Printf.sprintf ", p%g %.4g %s" p (percentile xs p) unit_
    | None -> ""
  in
  Printf.sprintf "median %.4g %s%s%s, n=%d" (median xs) unit_ quarts tail n
