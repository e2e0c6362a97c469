(* Tests for the sequential sketches: CountMin guarantees, Count sketch,
   Morris, Space-Saving, Quantiles, HyperLogLog, batched counter, and the
   exact oracle they are all measured against. *)

let feed_stream sketch_update stream = Array.iter sketch_update stream

(* ------------------------- CountMin ------------------------- *)

let test_cm_agrees_with_spec () =
  (* The runnable sketch and the persistent spec must be extensionally
     equal: same coins, same stream, same answers. *)
  let family = Hashing.Family.seeded ~seed:42L ~rows:3 ~width:64 in
  let cm = Sketches.Countmin.create ~family in
  let spec = ref (Spec.Countmin_spec.init family) in
  let stream = Workload.Stream.generate ~seed:1L (Workload.Stream.Zipf (100, 1.2)) ~length:2000 in
  Array.iter
    (fun a ->
      Sketches.Countmin.update cm a;
      spec := Spec.Countmin_spec.apply_update !spec a)
    stream;
  for a = 0 to 99 do
    Alcotest.(check int)
      (Printf.sprintf "element %d" a)
      (Spec.Countmin_spec.eval_query !spec a)
      (Sketches.Countmin.query cm a)
  done

let test_cm_never_underestimates () =
  let cm = Sketches.Countmin.create ~family:(Hashing.Family.seeded ~seed:2L ~rows:4 ~width:32) in
  let exact = Sketches.Exact.create () in
  let stream = Workload.Stream.generate ~seed:3L (Workload.Stream.Zipf (200, 1.0)) ~length:5000 in
  Array.iter
    (fun a ->
      Sketches.Countmin.update cm a;
      Sketches.Exact.update exact a)
    stream;
  for a = 0 to 199 do
    Alcotest.(check bool)
      (Printf.sprintf "f̂_%d ≥ f_%d" a a)
      true
      (Sketches.Countmin.query cm a >= Sketches.Exact.frequency exact a)
  done

let test_cm_epsilon_delta_bound () =
  (* Corollary of Cormode–Muthukrishnan: with w = ⌈e/α⌉ and d = ⌈ln 1/δ⌉,
     P[f̂ > f + αn] ≤ δ. Run many independent sketches and count violations;
     with δ = 0.1 and 100 trials we allow up to 20 (generous slack over the
     binomial tail). *)
  let alpha = 0.05 and delta = 0.1 in
  let trials = 100 in
  let violations = ref 0 in
  for t = 1 to trials do
    let cm = Sketches.Countmin.create_for_error ~seed:(Int64.of_int (1000 + t)) ~alpha ~delta in
    let exact = Sketches.Exact.create () in
    let stream =
      Workload.Stream.generate ~seed:(Int64.of_int t) (Workload.Stream.Zipf (500, 1.1))
        ~length:2000
    in
    Array.iter
      (fun a ->
        Sketches.Countmin.update cm a;
        Sketches.Exact.update exact a)
      stream;
    let n = Sketches.Exact.total exact in
    let bound = alpha *. float_of_int n in
    (* Check a fixed probe element, as the analysis is per-query. *)
    let probe = 7 in
    let err =
      Sketches.Countmin.query cm probe - Sketches.Exact.frequency exact probe
    in
    if float_of_int err > bound then incr violations
  done;
  Alcotest.(check bool)
    (Printf.sprintf "violations=%d ≤ 20" !violations)
    true (!violations <= 20)

let test_cm_sizing () =
  let cm = Sketches.Countmin.create_for_error ~seed:1L ~alpha:0.01 ~delta:0.01 in
  Alcotest.(check int) "w = ⌈e/0.01⌉" 272 (Sketches.Countmin.width cm);
  Alcotest.(check int) "d = ⌈ln 100⌉" 5 (Sketches.Countmin.rows cm);
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Countmin.create_for_error: alpha must be positive") (fun () ->
      ignore (Sketches.Countmin.create_for_error ~seed:1L ~alpha:0.0 ~delta:0.1))

let test_cm_updates_and_error_bound () =
  let cm = Sketches.Countmin.create ~family:(Hashing.Family.seeded ~seed:9L ~rows:2 ~width:27) in
  for _ = 1 to 100 do
    Sketches.Countmin.update cm 5
  done;
  Alcotest.(check int) "n tracked" 100 (Sketches.Countmin.updates cm);
  let expected = Float.exp 1.0 /. 27.0 *. 100.0 in
  Alcotest.(check (float 1e-9)) "αn" expected (Sketches.Countmin.error_bound cm)

let test_cm_reset () =
  let cm = Sketches.Countmin.create ~family:(Hashing.Family.seeded ~seed:9L ~rows:2 ~width:8) in
  Sketches.Countmin.update cm 1;
  Sketches.Countmin.reset cm;
  Alcotest.(check int) "count cleared" 0 (Sketches.Countmin.updates cm);
  Alcotest.(check int) "cells cleared" 0 (Sketches.Countmin.query cm 1)

(* iter_nonzero lists exactly the nonzero counters, row-major, and
   of_nonzero rebuilds the same sketch from them. *)
let test_cm_nonzero_roundtrip () =
  let family = Hashing.Family.seeded ~seed:9L ~rows:3 ~width:16 in
  let cm = Sketches.Countmin.create ~family in
  List.iter (Sketches.Countmin.update cm) [ 4; 8; 15; 16; 23; 42; 42 ];
  let seen = ref [] in
  Sketches.Countmin.iter_nonzero cm (fun i c -> seen := (i, c) :: !seen);
  let seen = List.rev !seen in
  let expect = ref [] in
  for i = (3 * 16) - 1 downto 0 do
    let c = Sketches.Countmin.cell cm ~row:(i / 16) ~col:(i mod 16) in
    if c <> 0 then expect := (i, c) :: !expect
  done;
  Alcotest.(check (list (pair int int))) "nonzero cells, row-major" !expect seen;
  let back =
    Sketches.Countmin.of_nonzero ~family ~n:7 (fun set ->
        List.iter (fun (i, c) -> set i c) seen)
  in
  Alcotest.(check int) "n" 7 (Sketches.Countmin.updates back);
  for i = 0 to (3 * 16) - 1 do
    let row = i / 16 and col = i mod 16 in
    Alcotest.(check int) "cell"
      (Sketches.Countmin.cell cm ~row ~col)
      (Sketches.Countmin.cell back ~row ~col)
  done;
  Alcotest.check_raises "index past the matrix"
    (Invalid_argument "Countmin.of_nonzero: index out of range") (fun () ->
      ignore (Sketches.Countmin.of_nonzero ~family ~n:0 (fun set -> set 48 1)))

(* ------------------------- Count sketch ------------------------- *)

let test_count_sketch_unbiased_ballpark () =
  let cs = Sketches.Count_sketch.create ~seed:11L ~rows:5 ~width:128 in
  let exact = Sketches.Exact.create () in
  let stream = Workload.Stream.generate ~seed:12L (Workload.Stream.Zipf (100, 1.3)) ~length:10000 in
  Array.iter
    (fun a ->
      Sketches.Count_sketch.update cs a;
      Sketches.Exact.update exact a)
    stream;
  (* Head elements should be estimated within a loose band. *)
  for a = 0 to 4 do
    let f = Sketches.Exact.frequency exact a in
    let est = Sketches.Count_sketch.query cs a in
    let slack = max 50 (f / 4) in
    Alcotest.(check bool)
      (Printf.sprintf "element %d: |%d − %d| ≤ %d" a est f slack)
      true
      (abs (est - f) <= slack)
  done

let test_count_sketch_shape () =
  let cs = Sketches.Count_sketch.create ~seed:13L ~rows:3 ~width:16 in
  Alcotest.(check int) "rows" 3 (Sketches.Count_sketch.rows cs);
  Alcotest.(check int) "width" 16 (Sketches.Count_sketch.width cs);
  Sketches.Count_sketch.update cs 1;
  Alcotest.(check int) "n" 1 (Sketches.Count_sketch.updates cs);
  Alcotest.check_raises "rows must be positive"
    (Invalid_argument "Count_sketch.create: rows must be positive") (fun () ->
      ignore (Sketches.Count_sketch.create ~seed:1L ~rows:0 ~width:4))

(* ------------------------- Morris ------------------------- *)

let test_morris_exact_small () =
  (* With base 2 the first event always bumps the exponent to 1 → estimate 1. *)
  let m = Sketches.Morris.create ~seed:5L () in
  Alcotest.(check (float 0.0)) "empty" 0.0 (Sketches.Morris.estimate m);
  Sketches.Morris.update m;
  Alcotest.(check (float 0.0)) "one event" 1.0 (Sketches.Morris.estimate m)

let test_morris_unbiased () =
  (* Average over many independent counters ≈ true count. *)
  let n = 1000 and trials = 300 in
  let sum = ref 0.0 in
  for t = 1 to trials do
    let m = Sketches.Morris.create ~seed:(Int64.of_int t) () in
    for _ = 1 to n do
      Sketches.Morris.update m
    done;
    sum := !sum +. Sketches.Morris.estimate m
  done;
  let mean = !sum /. float_of_int trials in
  (* stddev of the mean ≈ n/√(2·trials) ≈ 41; allow ±4σ. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean=%.0f within [%d,%d]" mean (n - 170) (n + 170))
    true
    (mean > float_of_int (n - 170) && mean < float_of_int (n + 170))

let test_morris_small_base_tightens () =
  let n = 2000 and trials = 100 in
  let spread base =
    let acc = ref 0.0 in
    for t = 1 to trials do
      let m = Sketches.Morris.create ~base ~seed:(Int64.of_int (300 + t)) () in
      for _ = 1 to n do
        Sketches.Morris.update m
      done;
      let e = Sketches.Morris.estimate m in
      acc := !acc +. abs_float (e -. float_of_int n)
    done;
    !acc /. float_of_int trials
  in
  let tight = spread 1.1 and loose = spread 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean abs error: base1.1=%.0f < base2=%.0f" tight loose)
    true (tight < loose)

let test_morris_create_for_error () =
  let m = Sketches.Morris.create_for_error ~seed:1L ~epsilon:0.1 ~delta:0.25 in
  Alcotest.(check (float 1e-9)) "base formula" (1.0 +. (2.0 *. 0.1 *. 0.1 *. 0.25))
    (Sketches.Morris.base m)

(* ------------------------- Space-Saving ------------------------- *)

let test_space_saving_exact_when_under_capacity () =
  let ss = Sketches.Space_saving.create ~capacity:100 in
  let stream = Workload.Stream.generate ~seed:21L (Workload.Stream.Uniform 50) ~length:2000 in
  let exact = Sketches.Exact.create () in
  Array.iter
    (fun a ->
      Sketches.Space_saving.update ss a;
      Sketches.Exact.update exact a)
    stream;
  for a = 0 to 49 do
    Alcotest.(check int)
      (Printf.sprintf "element %d exact" a)
      (Sketches.Exact.frequency exact a)
      (Sketches.Space_saving.query ss a)
  done;
  Alcotest.(check int) "no eviction error" 0 (Sketches.Space_saving.guaranteed_error ss)

let test_space_saving_bounds () =
  let capacity = 20 in
  let ss = Sketches.Space_saving.create ~capacity in
  let exact = Sketches.Exact.create () in
  let stream = Workload.Stream.generate ~seed:22L (Workload.Stream.Zipf (500, 1.2)) ~length:5000 in
  Array.iter
    (fun a ->
      Sketches.Space_saving.update ss a;
      Sketches.Exact.update exact a)
    stream;
  let n = Sketches.Space_saving.total ss in
  Alcotest.(check int) "stream length" 5000 n;
  (* Tracked estimates over-estimate by at most n/capacity, never under. *)
  List.iter
    (fun (elt, est) ->
      let f = Sketches.Exact.frequency exact elt in
      Alcotest.(check bool) (Printf.sprintf "%d: est ≥ f" elt) true (est >= f);
      Alcotest.(check bool)
        (Printf.sprintf "%d: est − f ≤ n/k" elt)
        true
        (est - f <= n / capacity))
    (Sketches.Space_saving.top ss);
  (* Every true heavy hitter above n/capacity must be tracked. *)
  let tracked = List.map fst (Sketches.Space_saving.top ss) in
  List.iter
    (fun (elt, f) ->
      if f > n / capacity then
        Alcotest.(check bool) (Printf.sprintf "heavy %d tracked" elt) true
          (List.mem elt tracked))
    (Sketches.Exact.to_assoc exact)

let test_space_saving_capacity_respected () =
  let ss = Sketches.Space_saving.create ~capacity:5 in
  for a = 0 to 99 do
    Sketches.Space_saving.update ss a
  done;
  Alcotest.(check bool) "at most 5 tracked" true
    (List.length (Sketches.Space_saving.top ss) <= 5)


let test_space_saving_copy_independent () =
  let a = Sketches.Space_saving.create ~capacity:10 in
  List.iter (Sketches.Space_saving.update a) [ 1; 1; 2 ];
  let b = Sketches.Space_saving.copy a in
  Sketches.Space_saving.update a 1;
  Alcotest.(check int) "original advanced" 3 (Sketches.Space_saving.query a 1);
  Alcotest.(check int) "copy frozen" 2 (Sketches.Space_saving.query b 1);
  Alcotest.(check int) "copy total" 3 (Sketches.Space_saving.total b)

let test_space_saving_merge_exact_case () =
  (* Under capacity on both sides the merge is exact addition. *)
  let a = Sketches.Space_saving.create ~capacity:10 in
  let b = Sketches.Space_saving.create ~capacity:10 in
  List.iter (Sketches.Space_saving.update a) [ 1; 1; 2 ];
  List.iter (Sketches.Space_saving.update b) [ 1; 3; 3; 3 ];
  let m = Sketches.Space_saving.merge ~capacity:10 a b in
  Alcotest.(check int) "common element adds" 3 (Sketches.Space_saving.query m 1);
  Alcotest.(check int) "a-only kept" 1 (Sketches.Space_saving.query m 2);
  Alcotest.(check int) "b-only kept" 3 (Sketches.Space_saving.query m 3);
  Alcotest.(check int) "n adds" 7 (Sketches.Space_saving.total m)

let test_space_saving_merge_preserves_bounds () =
  (* Merged estimates never under-estimate the true combined counts. *)
  let capacity = 16 in
  let a = Sketches.Space_saving.create ~capacity in
  let b = Sketches.Space_saving.create ~capacity in
  let exact = Sketches.Exact.create () in
  let sa = Workload.Stream.generate ~seed:61L (Workload.Stream.Zipf (200, 1.2)) ~length:3000 in
  let sb = Workload.Stream.generate ~seed:62L (Workload.Stream.Zipf (200, 1.2)) ~length:3000 in
  Array.iter (fun x -> Sketches.Space_saving.update a x; Sketches.Exact.update exact x) sa;
  Array.iter (fun x -> Sketches.Space_saving.update b x; Sketches.Exact.update exact x) sb;
  let m = Sketches.Space_saving.merge ~capacity a b in
  List.iter
    (fun (elt, est) ->
      let f = Sketches.Exact.frequency exact elt in
      Alcotest.(check bool) (Printf.sprintf "merged %d: est >= f" elt) true (est >= f))
    (Sketches.Space_saving.top m);
  (* The head element must be tracked and roughly correct. *)
  let head_est = Sketches.Space_saving.query m 0 in
  let head_f = Sketches.Exact.frequency exact 0 in
  Alcotest.(check bool)
    (Printf.sprintf "head tracked: %d >= %d" head_est head_f)
    true (head_est >= head_f)

(* ------------------------- Quantiles ------------------------- *)

let test_quantiles_exact_small () =
  let q = Sketches.Quantiles.create ~k:64 ~seed:31L () in
  for x = 1 to 50 do
    Sketches.Quantiles.update q x
  done;
  (* Below capacity nothing is compacted: ranks are exact. *)
  Alcotest.(check int) "rank(25)" 25 (Sketches.Quantiles.rank q 25);
  Alcotest.(check int) "rank(0)" 0 (Sketches.Quantiles.rank q 0);
  Alcotest.(check int) "rank(50)" 50 (Sketches.Quantiles.rank q 50)

let test_quantiles_rank_error () =
  let n = 20000 in
  let q = Sketches.Quantiles.create ~k:256 ~seed:32L () in
  let stream = Workload.Stream.generate ~seed:33L (Workload.Stream.Uniform 10000) ~length:n in
  let exact = Sketches.Exact.create () in
  Array.iter
    (fun x ->
      Sketches.Quantiles.update q x;
      Sketches.Exact.update exact x)
    stream;
  Alcotest.(check int) "n" n (Sketches.Quantiles.total q);
  (* Rank estimates within 2% of n at several probe points. *)
  List.iter
    (fun x ->
      let est = Sketches.Quantiles.rank q x and tru = Sketches.Exact.rank exact x in
      Alcotest.(check bool)
        (Printf.sprintf "rank(%d): |%d−%d| ≤ %d" x est tru (n / 50))
        true
        (abs (est - tru) <= n / 50))
    [ 1000; 2500; 5000; 7500; 9000 ];
  (* The sketch actually compresses. *)
  Alcotest.(check bool) "sublinear space" true (Sketches.Quantiles.retained q < n / 4)

let test_quantiles_quantile_query () =
  let q = Sketches.Quantiles.create ~k:128 ~seed:34L () in
  for x = 1 to 10000 do
    Sketches.Quantiles.update q x
  done;
  let med = Sketches.Quantiles.quantile q 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "median=%d near 5000" med)
    true
    (med > 4500 && med < 5500);
  Alcotest.check_raises "phi out of range"
    (Invalid_argument "Quantiles.quantile: phi must lie in [0,1]") (fun () ->
      ignore (Sketches.Quantiles.quantile q 1.5))


let test_quantiles_copy_independent () =
  let q = Sketches.Quantiles.create ~k:32 ~seed:90L () in
  for x = 1 to 100 do
    Sketches.Quantiles.update q x
  done;
  let c = Sketches.Quantiles.copy q in
  Alcotest.(check int) "copy preserves n" 100 (Sketches.Quantiles.total c);
  Alcotest.(check int) "copy preserves ranks" (Sketches.Quantiles.rank q 50)
    (Sketches.Quantiles.rank c 50);
  for x = 101 to 200 do
    Sketches.Quantiles.update q x
  done;
  Alcotest.(check int) "original advanced" 200 (Sketches.Quantiles.total q);
  Alcotest.(check int) "copy unchanged" 100 (Sketches.Quantiles.total c)

let test_quantiles_merge_accuracy () =
  let a = Sketches.Quantiles.create ~k:256 ~seed:91L () in
  let b = Sketches.Quantiles.create ~k:256 ~seed:92L () in
  let exact = Sketches.Exact.create () in
  let sa = Workload.Stream.generate ~seed:93L (Workload.Stream.Uniform 10_000) ~length:8_000 in
  let sb = Workload.Stream.generate ~seed:94L (Workload.Stream.Uniform 10_000) ~length:12_000 in
  Array.iter
    (fun x ->
      Sketches.Quantiles.update a x;
      Sketches.Exact.update exact x)
    sa;
  Array.iter
    (fun x ->
      Sketches.Quantiles.update b x;
      Sketches.Exact.update exact x)
    sb;
  let m = Sketches.Quantiles.merge a b in
  Alcotest.(check int) "merged n" 20_000 (Sketches.Quantiles.total m);
  (* Inputs untouched. *)
  Alcotest.(check int) "a untouched" 8_000 (Sketches.Quantiles.total a);
  List.iter
    (fun x ->
      let est = Sketches.Quantiles.rank m x and tru = Sketches.Exact.rank exact x in
      Alcotest.(check bool)
        (Printf.sprintf "merged rank(%d): |%d-%d| <= 600" x est tru)
        true
        (abs (est - tru) <= 600))
    [ 1000; 5000; 9000 ]

let test_quantiles_merge_empty () =
  let a = Sketches.Quantiles.create ~k:16 ~seed:95L () in
  let b = Sketches.Quantiles.create ~k:16 ~seed:96L () in
  Sketches.Quantiles.update a 5;
  let m = Sketches.Quantiles.merge a b in
  Alcotest.(check int) "n" 1 (Sketches.Quantiles.total m);
  Alcotest.(check int) "rank" 1 (Sketches.Quantiles.rank m 10)

(* ------------------------- HyperLogLog ------------------------- *)

let test_hll_distinct_estimate () =
  let h = Sketches.Hyperloglog.create ~p:12 ~seed:41L () in
  let true_distinct = 50_000 in
  for x = 1 to true_distinct do
    (* Repeat updates: cardinality must ignore duplicates. *)
    Sketches.Hyperloglog.update h x;
    if x mod 3 = 0 then Sketches.Hyperloglog.update h x
  done;
  let est = Sketches.Hyperloglog.estimate h in
  let rel = abs_float (est -. float_of_int true_distinct) /. float_of_int true_distinct in
  Alcotest.(check bool) (Printf.sprintf "relative error %.3f < 0.05" rel) true (rel < 0.05)

let test_hll_small_range () =
  let h = Sketches.Hyperloglog.create ~p:10 ~seed:42L () in
  for x = 1 to 100 do
    Sketches.Hyperloglog.update h x
  done;
  let est = Sketches.Hyperloglog.estimate h in
  Alcotest.(check bool)
    (Printf.sprintf "small-range est=%.1f near 100" est)
    true
    (est > 85.0 && est < 115.0)

let test_hll_merge () =
  let a = Sketches.Hyperloglog.create ~p:11 ~seed:43L () in
  let b = Sketches.Hyperloglog.create ~p:11 ~seed:43L () in
  for x = 1 to 10_000 do
    Sketches.Hyperloglog.update a x
  done;
  for x = 5_001 to 15_000 do
    Sketches.Hyperloglog.update b x
  done;
  let m = Sketches.Hyperloglog.merge a b in
  let est = Sketches.Hyperloglog.estimate m in
  let rel = abs_float (est -. 15_000.0) /. 15_000.0 in
  Alcotest.(check bool) (Printf.sprintf "merged rel err %.3f < 0.08" rel) true (rel < 0.08);
  (* Merge is register-wise max: estimate(m) ≥ max of parts (monotone). *)
  Alcotest.(check bool) "merge dominates parts" true
    (est >= Sketches.Hyperloglog.estimate a *. 0.99)

let test_hll_merge_requires_same_params () =
  let a = Sketches.Hyperloglog.create ~p:10 ~seed:1L () in
  let b = Sketches.Hyperloglog.create ~p:11 ~seed:1L () in
  Alcotest.check_raises "p mismatch"
    (Invalid_argument "Hyperloglog.merge: sketches must share parameters and seed")
    (fun () -> ignore (Sketches.Hyperloglog.merge a b))


(* ------------------------- Exponential Histogram ------------------------- *)

let test_eh_exact_small () =
  let eh = Sketches.Exp_histogram.create ~epsilon:0.1 ~window:100 () in
  for _ = 1 to 5 do
    Sketches.Exp_histogram.add eh true
  done;
  (* 5 ones, all in window, few enough that no merging happened. *)
  let lo, hi = Sketches.Exp_histogram.true_count_bounds eh in
  Alcotest.(check bool) "bounds contain 5" true (lo <= 5 && 5 <= hi);
  Alcotest.(check bool) "estimate within bounds" true
    (let e = Sketches.Exp_histogram.estimate eh in
     e >= lo && e <= hi)

let test_eh_window_expiry () =
  let eh = Sketches.Exp_histogram.create ~epsilon:0.1 ~window:10 () in
  for _ = 1 to 5 do
    Sketches.Exp_histogram.add eh true
  done;
  (* Push the ones out with 10 zeros. *)
  for _ = 1 to 10 do
    Sketches.Exp_histogram.add eh false
  done;
  Alcotest.(check int) "expired" 0 (Sketches.Exp_histogram.estimate eh)

let test_eh_relative_error () =
  let epsilon = 0.1 in
  let window = 1000 in
  let eh = Sketches.Exp_histogram.create ~epsilon ~window () in
  let g = Rng.Splitmix.create 5L in
  let recent = Queue.create () in
  let true_count = ref 0 in
  let worst = ref 0.0 in
  for step = 1 to 20_000 do
    let one = Rng.Splitmix.next_float g < 0.4 in
    Sketches.Exp_histogram.add eh one;
    Queue.push one recent;
    if one then incr true_count;
    if Queue.length recent > window then begin
      let old = Queue.pop recent in
      if old then decr true_count
    end;
    if step mod 500 = 0 && !true_count > 0 then begin
      let est = Sketches.Exp_histogram.estimate eh in
      let rel = abs_float (float_of_int (est - !true_count)) /. float_of_int !true_count in
      if rel > !worst then worst := rel
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "worst relative error %.3f <= epsilon %.2f" !worst epsilon)
    true (!worst <= epsilon);
  (* Space stays logarithmic-ish: far fewer buckets than ones in window. *)
  Alcotest.(check bool)
    (Printf.sprintf "buckets %d < 120" (Sketches.Exp_histogram.buckets eh))
    true
    (Sketches.Exp_histogram.buckets eh < 120)

let test_eh_bounds_always_contain_truth () =
  let eh = Sketches.Exp_histogram.create ~epsilon:0.2 ~window:64 () in
  let g = Rng.Splitmix.create 6L in
  let recent = Queue.create () in
  let true_count = ref 0 in
  for _ = 1 to 2_000 do
    let one = Rng.Splitmix.next_float g < 0.5 in
    Sketches.Exp_histogram.add eh one;
    Queue.push one recent;
    if one then incr true_count;
    if Queue.length recent > 64 then begin
      let old = Queue.pop recent in
      if old then decr true_count
    end;
    let lo, hi = Sketches.Exp_histogram.true_count_bounds eh in
    if not (lo <= !true_count && !true_count <= hi) then
      Alcotest.failf "bounds [%d,%d] exclude true %d" lo hi !true_count
  done

(* ------------------------- KMV ------------------------- *)

let test_kmv_exact_below_k () =
  let s = Sketches.Kmv.create ~k:64 ~seed:7L () in
  for x = 1 to 40 do
    Sketches.Kmv.update s x;
    Sketches.Kmv.update s x (* duplicates are free *)
  done;
  Alcotest.(check (float 0.0)) "exact below k" 40.0 (Sketches.Kmv.estimate s);
  Alcotest.(check int) "retained" 40 (Sketches.Kmv.retained s)

let test_kmv_estimate_accuracy () =
  let s = Sketches.Kmv.create ~k:512 ~seed:8L () in
  let true_distinct = 100_000 in
  for x = 1 to true_distinct do
    Sketches.Kmv.update s x
  done;
  let est = Sketches.Kmv.estimate s in
  let rel = abs_float (est -. float_of_int true_distinct) /. float_of_int true_distinct in
  (* RSE ~ 1/sqrt(510) ~ 4.4%; accept 4 sigma. *)
  Alcotest.(check bool) (Printf.sprintf "relative error %.3f < 0.18" rel) true (rel < 0.18)

let test_kmv_monotone_estimates () =
  let s = Sketches.Kmv.create ~k:32 ~seed:9L () in
  let prev = ref 0.0 in
  for x = 1 to 5_000 do
    Sketches.Kmv.update s x;
    let e = Sketches.Kmv.estimate s in
    Alcotest.(check bool) "estimate never decreases" true (e >= !prev -. 1e-9);
    prev := e
  done

let test_kmv_merge_union () =
  let a = Sketches.Kmv.create ~k:256 ~seed:10L () in
  let b = Sketches.Kmv.create ~k:256 ~seed:10L () in
  for x = 1 to 30_000 do
    Sketches.Kmv.update a x
  done;
  for x = 15_001 to 45_000 do
    Sketches.Kmv.update b x
  done;
  let m = Sketches.Kmv.merge a b in
  let est = Sketches.Kmv.estimate m in
  let rel = abs_float (est -. 45_000.0) /. 45_000.0 in
  Alcotest.(check bool) (Printf.sprintf "merged union error %.3f < 0.25" rel) true
    (rel < 0.25);
  Alcotest.check_raises "merge requires same params"
    (Invalid_argument "Kmv.merge: sketches must share k and seed") (fun () ->
      ignore (Sketches.Kmv.merge a (Sketches.Kmv.create ~k:128 ~seed:10L ())))

(* ------------------------- Batched counter / Exact ------------------------- *)

let test_batched_counter () =
  let c = Sketches.Batched_counter.create () in
  Alcotest.(check int) "init" 0 (Sketches.Batched_counter.read c);
  Sketches.Batched_counter.update c 5;
  Sketches.Batched_counter.update c 0;
  Sketches.Batched_counter.update c 7;
  Alcotest.(check int) "sum" 12 (Sketches.Batched_counter.read c);
  Sketches.Batched_counter.reset c;
  Alcotest.(check int) "reset" 0 (Sketches.Batched_counter.read c);
  Alcotest.check_raises "negative batch"
    (Invalid_argument "Batched_counter.update: batch must be non-negative") (fun () ->
      Sketches.Batched_counter.update c (-1))

let test_exact_oracle () =
  let e = Sketches.Exact.create () in
  List.iter (Sketches.Exact.update e) [ 5; 5; 3; 5; 9; 3 ];
  Alcotest.(check int) "total" 6 (Sketches.Exact.total e);
  Alcotest.(check int) "distinct" 3 (Sketches.Exact.distinct e);
  Alcotest.(check int) "f_5" 3 (Sketches.Exact.frequency e 5);
  Alcotest.(check int) "rank(4)" 2 (Sketches.Exact.rank e 4);
  Alcotest.(check (list (pair int int)))
    "heavy hitters ≥ 1/3"
    [ (5, 3); (3, 2) ]
    (Sketches.Exact.heavy_hitters e ~threshold:0.33)

(* ------------------------- merge algebra ------------------------- *)

(* Agarwal et al.'s mergeable-summaries algebra: merge is commutative and
   associative with the empty sketch as identity — the property that lets
   the sharded pipeline fold shard deltas in whatever order the merger
   receives them. CountMin, Count-sketch, KMV and HLL merges are exact
   (cell-wise sums / set union / register max), so the laws hold on the
   full state; quantiles compaction is randomized, so associativity is
   checked on the rank-error guarantee instead. *)

let merge_family = Hashing.Family.seeded ~seed:77L ~rows:3 ~width:16

let alg_cm_of xs =
  let t = Sketches.Countmin.create ~family:merge_family in
  List.iter (Sketches.Countmin.update t) xs;
  t

let cm_state t =
  ( Sketches.Countmin.updates t,
    List.init (Sketches.Countmin.rows t) (fun r ->
        List.init (Sketches.Countmin.width t) (fun c ->
            Sketches.Countmin.cell t ~row:r ~col:c)) )

let alg_hll_of xs =
  let t = Sketches.Hyperloglog.create ~p:5 ~seed:77L () in
  List.iter (Sketches.Hyperloglog.update t) xs;
  t

let alg_kmv_of xs =
  let t = Sketches.Kmv.create ~k:8 ~seed:77L () in
  List.iter (Sketches.Kmv.update t) xs;
  t

let two_streams = QCheck.(pair (small_list (int_bound 40)) (small_list (int_bound 40)))

let three_streams =
  QCheck.(
    triple (small_list (int_bound 40)) (small_list (int_bound 40))
      (small_list (int_bound 40)))

let merge_algebra_tests =
  let open QCheck in
  List.map QCheck_alcotest.to_alcotest
    [
      Test.make ~name:"CM merge commutes" ~count:60 two_streams (fun (xs, ys) ->
          let a = alg_cm_of xs and b = alg_cm_of ys in
          cm_state (Sketches.Countmin.merge a b)
          = cm_state (Sketches.Countmin.merge b a));
      Test.make ~name:"CM merge associates" ~count:60 three_streams
        (fun (xs, ys, zs) ->
          let a = alg_cm_of xs and b = alg_cm_of ys and c = alg_cm_of zs in
          cm_state
            (Sketches.Countmin.merge (Sketches.Countmin.merge a b) c)
          = cm_state
              (Sketches.Countmin.merge a (Sketches.Countmin.merge b c)));
      Test.make ~name:"CM merge identity" ~count:60
        (small_list (int_bound 40))
        (fun xs ->
          let a = alg_cm_of xs in
          cm_state (Sketches.Countmin.merge a (alg_cm_of [])) = cm_state a
          && cm_state (Sketches.Countmin.merge (alg_cm_of []) a) = cm_state a);
      Test.make ~name:"CM merge = concatenated stream" ~count:60 two_streams
        (fun (xs, ys) ->
          cm_state (Sketches.Countmin.merge (alg_cm_of xs) (alg_cm_of ys))
          = cm_state (alg_cm_of (xs @ ys)));
      Test.make ~name:"KMV merge commutes/associates" ~count:60 three_streams
        (fun (xs, ys, zs) ->
          let st t = (Sketches.Kmv.hashes t, Sketches.Kmv.retained t) in
          let a = alg_kmv_of xs and b = alg_kmv_of ys and c = alg_kmv_of zs in
          st (Sketches.Kmv.merge a b) = st (Sketches.Kmv.merge b a)
          && st (Sketches.Kmv.merge (Sketches.Kmv.merge a b) c)
             = st (Sketches.Kmv.merge a (Sketches.Kmv.merge b c))
          && st (Sketches.Kmv.merge a (alg_kmv_of [])) = st a
          && st (Sketches.Kmv.merge a b) = st (alg_kmv_of (xs @ ys)));
      Test.make ~name:"HLL merge commutes/associates" ~count:60 three_streams
        (fun (xs, ys, zs) ->
          let st = Sketches.Hyperloglog.registers in
          let a = alg_hll_of xs and b = alg_hll_of ys and c = alg_hll_of zs in
          st (Sketches.Hyperloglog.merge a b)
          = st (Sketches.Hyperloglog.merge b a)
          && st
               (Sketches.Hyperloglog.merge (Sketches.Hyperloglog.merge a b) c)
             = st
                 (Sketches.Hyperloglog.merge a
                    (Sketches.Hyperloglog.merge b c))
          && st (Sketches.Hyperloglog.merge a (alg_hll_of [])) = st a
          && st (Sketches.Hyperloglog.merge a b) = st (alg_hll_of (xs @ ys)));
      Test.make ~name:"quantiles merge keeps rank guarantee in any order"
        ~count:40
        (triple
           (list_of_size (Gen.int_range 1 120) (int_bound 500))
           (list_of_size (Gen.int_range 1 120) (int_bound 500))
           (list_of_size (Gen.int_range 1 120) (int_bound 500)))
        (fun (xs, ys, zs) ->
          let q_of l =
            let t = Sketches.Quantiles.create ~k:64 ~seed:77L () in
            List.iter (Sketches.Quantiles.update t) l;
            t
          in
          let a = q_of xs and b = q_of ys and c = q_of zs in
          let m1 =
            Sketches.Quantiles.merge (Sketches.Quantiles.merge a b) c
          in
          let m2 =
            Sketches.Quantiles.merge a (Sketches.Quantiles.merge b c)
          in
          let all = xs @ ys @ zs in
          let n = List.length all in
          let true_rank x = List.length (List.filter (fun v -> v <= x) all) in
          (* Totals are exact under any association; ranks stay within a
             generous KLL error budget for both fold orders. *)
          Sketches.Quantiles.total m1 = n
          && Sketches.Quantiles.total m2 = n
          && List.for_all
               (fun x ->
                 let tol = max 6 (n / 8) in
                 abs (Sketches.Quantiles.rank m1 x - true_rank x) <= tol
                 && abs (Sketches.Quantiles.rank m2 x - true_rank x) <= tol)
               [ 0; 125; 250; 375; 500 ]);
    ]

(* ------------------------- Count sketch merge ------------------------- *)

let test_count_sketch_merge_exact () =
  (* Count-sketch cells are linear in the stream, so merge must equal the
     sketch of the concatenated stream — including every signed cell. *)
  let mk xs =
    let t = Sketches.Count_sketch.create ~seed:5L ~rows:5 ~width:32 in
    List.iter (Sketches.Count_sketch.update t) xs;
    t
  in
  let xs = List.init 300 (fun i -> i * 7 mod 50)
  and ys = List.init 200 (fun i -> i * 13 mod 50) in
  let m = Sketches.Count_sketch.merge (mk xs) (mk ys) in
  let seq = mk (xs @ ys) in
  Alcotest.(check int) "updates add" 500 (Sketches.Count_sketch.updates m);
  for a = 0 to 49 do
    Alcotest.(check int)
      (Printf.sprintf "query %d" a)
      (Sketches.Count_sketch.query seq a)
      (Sketches.Count_sketch.query m a)
  done

let test_count_sketch_merge_requires_same_params () =
  let a = Sketches.Count_sketch.create ~seed:5L ~rows:3 ~width:16 in
  Alcotest.check_raises "different seed"
    (Invalid_argument
       "Count_sketch.merge: sketches must share seed, rows and width \
        (compatible hash families)") (fun () ->
      ignore
        (Sketches.Count_sketch.merge a
           (Sketches.Count_sketch.create ~seed:6L ~rows:3 ~width:16)));
  Alcotest.check_raises "different width"
    (Invalid_argument
       "Count_sketch.merge: sketches must share seed, rows and width \
        (compatible hash families)") (fun () ->
      ignore
        (Sketches.Count_sketch.merge a
           (Sketches.Count_sketch.create ~seed:5L ~rows:3 ~width:32)))

let test_cm_merge_requires_compatible_family () =
  let a = alg_cm_of [ 1; 2; 3 ] in
  let other =
    Sketches.Countmin.create
      ~family:(Hashing.Family.seeded ~seed:78L ~rows:3 ~width:16)
  in
  Alcotest.check_raises "different coins"
    (Invalid_argument "Countmin.merge: sketches must share a compatible hash family")
    (fun () -> ignore (Sketches.Countmin.merge a other))

(* ------------------------- properties ------------------------- *)

let qcheck_tests =
  merge_algebra_tests
  @ [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"CM query ≥ true frequency" ~count:60
         QCheck.(pair int64 (list_of_size (Gen.int_range 0 200) (int_bound 30)))
         (fun (seed, stream) ->
           let family = Hashing.Family.seeded ~seed ~rows:3 ~width:16 in
           let cm = Sketches.Countmin.create ~family in
           let exact = Sketches.Exact.create () in
           List.iter
             (fun a ->
               Sketches.Countmin.update cm a;
               Sketches.Exact.update exact a)
             stream;
           List.for_all
             (fun a -> Sketches.Countmin.query cm a >= Sketches.Exact.frequency exact a)
             (List.init 31 Fun.id)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"quantiles rank is monotone" ~count:40
         QCheck.(pair int64 (list_of_size (Gen.int_range 1 300) (int_bound 1000)))
         (fun (seed, stream) ->
           let q = Sketches.Quantiles.create ~k:32 ~seed () in
           List.iter (Sketches.Quantiles.update q) stream;
           let ranks = List.map (Sketches.Quantiles.rank q) [ 0; 250; 500; 750; 1000 ] in
           let rec mono = function
             | a :: (b :: _ as rest) -> a <= b && mono rest
             | _ -> true
           in
           mono ranks));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"space-saving never under-estimates tracked" ~count:40
         QCheck.(pair int64 (list_of_size (Gen.int_range 1 300) (int_bound 50)))
         (fun (_seed, stream) ->
           let ss = Sketches.Space_saving.create ~capacity:10 in
           let exact = Sketches.Exact.create () in
           List.iter
             (fun a ->
               Sketches.Space_saving.update ss a;
               Sketches.Exact.update exact a)
             stream;
           List.for_all
             (fun (elt, est) -> est >= Sketches.Exact.frequency exact elt)
             (Sketches.Space_saving.top ss)));
  ]

let () =
  ignore feed_stream;
  Alcotest.run "sketches"
    [
      ( "countmin",
        [
          Alcotest.test_case "agrees with spec" `Quick test_cm_agrees_with_spec;
          Alcotest.test_case "never under-estimates" `Quick test_cm_never_underestimates;
          Alcotest.test_case "(ε,δ) bound" `Quick test_cm_epsilon_delta_bound;
          Alcotest.test_case "sizing" `Quick test_cm_sizing;
          Alcotest.test_case "updates and error bound" `Quick
            test_cm_updates_and_error_bound;
          Alcotest.test_case "reset" `Quick test_cm_reset;
          Alcotest.test_case "nonzero cells round-trip" `Quick
            test_cm_nonzero_roundtrip;
          Alcotest.test_case "merge family check" `Quick
            test_cm_merge_requires_compatible_family;
        ] );
      ( "count sketch",
        [
          Alcotest.test_case "ballpark estimates" `Quick
            test_count_sketch_unbiased_ballpark;
          Alcotest.test_case "shape" `Quick test_count_sketch_shape;
          Alcotest.test_case "merge = concatenated stream" `Quick
            test_count_sketch_merge_exact;
          Alcotest.test_case "merge parameter check" `Quick
            test_count_sketch_merge_requires_same_params;
        ] );
      ( "morris",
        [
          Alcotest.test_case "exact small" `Quick test_morris_exact_small;
          Alcotest.test_case "unbiased" `Quick test_morris_unbiased;
          Alcotest.test_case "small base tightens" `Quick test_morris_small_base_tightens;
          Alcotest.test_case "create_for_error" `Quick test_morris_create_for_error;
        ] );
      ( "space-saving",
        [
          Alcotest.test_case "exact under capacity" `Quick
            test_space_saving_exact_when_under_capacity;
          Alcotest.test_case "error bounds" `Quick test_space_saving_bounds;
          Alcotest.test_case "capacity respected" `Quick
            test_space_saving_capacity_respected;
          Alcotest.test_case "copy independent" `Quick test_space_saving_copy_independent;
          Alcotest.test_case "merge exact case" `Quick test_space_saving_merge_exact_case;
          Alcotest.test_case "merge preserves bounds" `Quick
            test_space_saving_merge_preserves_bounds;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "exact small" `Quick test_quantiles_exact_small;
          Alcotest.test_case "rank error" `Quick test_quantiles_rank_error;
          Alcotest.test_case "quantile query" `Quick test_quantiles_quantile_query;
          Alcotest.test_case "copy independent" `Quick test_quantiles_copy_independent;
          Alcotest.test_case "merge accuracy" `Quick test_quantiles_merge_accuracy;
          Alcotest.test_case "merge empty" `Quick test_quantiles_merge_empty;
        ] );
      ( "hyperloglog",
        [
          Alcotest.test_case "distinct estimate" `Quick test_hll_distinct_estimate;
          Alcotest.test_case "small range" `Quick test_hll_small_range;
          Alcotest.test_case "merge" `Quick test_hll_merge;
          Alcotest.test_case "merge params" `Quick test_hll_merge_requires_same_params;
        ] );
      ( "exponential histogram",
        [
          Alcotest.test_case "exact small" `Quick test_eh_exact_small;
          Alcotest.test_case "window expiry" `Quick test_eh_window_expiry;
          Alcotest.test_case "relative error" `Quick test_eh_relative_error;
          Alcotest.test_case "bounds contain truth" `Quick
            test_eh_bounds_always_contain_truth;
        ] );
      ( "kmv",
        [
          Alcotest.test_case "exact below k" `Quick test_kmv_exact_below_k;
          Alcotest.test_case "estimate accuracy" `Quick test_kmv_estimate_accuracy;
          Alcotest.test_case "monotone estimates" `Quick test_kmv_monotone_estimates;
          Alcotest.test_case "merge union" `Quick test_kmv_merge_union;
        ] );
      ( "counter and oracle",
        [
          Alcotest.test_case "batched counter" `Quick test_batched_counter;
          Alcotest.test_case "exact oracle" `Quick test_exact_oracle;
        ] );
      ("properties", qcheck_tests);
    ]
