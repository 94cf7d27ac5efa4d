let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev = function
  | [] | [ _ ] -> 0.0
  | l ->
    let m = mean l in
    sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) l))

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let min_max = function
  | [] -> (0.0, 0.0)
  | x :: rest ->
    List.fold_left (fun (lo, hi) v -> (Stdlib.min lo v, Stdlib.max hi v)) (x, x) rest

