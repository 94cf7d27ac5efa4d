(* Order statistics for the benchmark's timed units. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  match sorted l with
  | [||] -> invalid_arg "Quantile.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles data ~n] with its default 'exclusive'
   method: the cut points the acceptance check of a benchmark run is
   computed with, so the spreads the benchmark reports match it. *)
let quantiles ~n l =
  let a = sorted l in
  let ld = Array.length a in
  if n < 1 then invalid_arg "Quantile.quantiles: n < 1";
  if ld < 2 then invalid_arg "Quantile.quantiles: need two samples";
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n)

(* Nearest-rank percentile ([p] in [0, 100]). *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantile.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

(* Samples strictly beyond the low-tail percentile [p]: the ones a
   reader can trust it with. The benchmark names a tail percentile only
   when at least ten samples lie beyond it. *)
let samples_below p l =
  let v = percentile p l in
  List.length (List.filter (fun x -> x < v) l)
