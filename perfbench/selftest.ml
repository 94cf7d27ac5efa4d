(* Self-tests for the benchmark's own arithmetic. Expected quantiles are
   what Python's [statistics.quantiles(data, n=4)] returns, since the
   benchmark's steadiness is judged with it. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let close_list a b = List.length a = List.length b && List.for_all2 close a b

let span ~id ~parent start stop = { Span.id; parent; name = "s"; start; stop }

let () =
  (* median and quartiles *)
  check "median odd" (close (Quantile.median [ 3.0; 1.0; 2.0 ]) 2.0);
  check "median even" (close (Quantile.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  check "quartiles 1..10"
    (close_list
       (Quantile.quantiles ~n:4 (List.init 10 (fun i -> float_of_int (i + 1))))
       [ 2.75; 5.5; 8.25 ]);
  check "quartiles of three"
    (close_list (Quantile.quantiles ~n:4 [ 3.0; 1.0; 2.0 ]) [ 1.0; 2.0; 3.0 ]);
  check "quartiles of seven"
    (close_list
       (Quantile.quantiles ~n:4 [ 5.0; 1.0; 4.0; 2.0; 3.0; 9.0; 7.0 ])
       [ 2.0; 4.0; 7.0 ]);
  check "quartiles of two extrapolate"
    (close_list (Quantile.quantiles ~n:4 [ 1.5; 2.5 ]) [ 1.25; 2.0; 2.75 ]);
  (* percentiles and the samples beyond them *)
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  check "p10 of 1..100" (close (Quantile.percentile 10.0 hundred) 10.0);
  check "p50 of 1..100" (close (Quantile.percentile 50.0 hundred) 50.0);
  check "p100 is the max" (close (Quantile.percentile 100.0 hundred) 100.0);
  check "p0 is the min" (close (Quantile.percentile 0.0 hundred) 1.0);
  check "9 samples below p10 of 100" (Quantile.samples_below 10.0 hundred = 9);
  check "10 samples below p10 of 110"
    (Quantile.samples_below 10.0 (List.init 110 (fun i -> float_of_int i)) = 10);
  check "ties are not below" (Quantile.samples_below 10.0 [ 1.0; 1.0; 1.0; 2.0 ] = 0);
  (* span self time *)
  let parent = span ~id:0 ~parent:(-1) 0.0 10.0 in
  check "no children" (close (Span.self_time parent ~children:[]) 10.0);
  check "nested children"
    (close
       (Span.self_time parent
          ~children:[ span ~id:1 ~parent:0 1.0 3.0; span ~id:2 ~parent:0 5.0 6.0 ])
       7.0);
  check "overlapping children count once"
    (close
       (Span.self_time parent
          ~children:[ span ~id:1 ~parent:0 1.0 4.0; span ~id:2 ~parent:0 3.0 6.0 ])
       5.0);
  check "contained child counts once"
    (close
       (Span.self_time parent
          ~children:[ span ~id:1 ~parent:0 1.0 8.0; span ~id:2 ~parent:0 2.0 3.0 ])
       3.0);
  check "children clipped to the parent"
    (close
       (Span.self_time parent
          ~children:[ span ~id:1 ~parent:0 (-2.0) 1.0; span ~id:2 ~parent:0 9.0 12.0 ])
       8.0);
  (* recorded spans: a grandchild is charged to its own parent only *)
  let t = Span.create ~run:"selftest" in
  t.on <- true;
  Span.with_span t "outer" (fun () ->
      Span.with_span t "inner" (fun () -> Span.with_span t "leaf" ignore));
  let spans = Span.spans t in
  check "three spans" (List.length spans = 3);
  let by name = List.find (fun (s : Span.span) -> s.name = name) spans in
  check "parent links"
    ((by "inner").parent = (by "outer").id && (by "leaf").parent = (by "inner").id);
  let summary = Span.summarize spans in
  List.iter
    (fun (name, (n, total, self)) ->
      check ("summary " ^ name) (n = 1 && self <= total +. 1e-12 && self >= 0.0))
    summary;
  let off = Span.create ~run:"off" in
  check "recording off records nothing"
    (Span.with_span off "x" (fun () -> 42) = 42 && Span.spans off = []);
  if !failures > 0 then exit 1 else print_endline "perfbench selftest: ok"
