open Es_util
module Heap = Es_oracle.Heap

let qtest ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* ---------- Prng ---------- *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_copy_independent () =
  let a = Prng.create 7 in
  let _ = Prng.bits64 a in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b);
  let _ = Prng.bits64 a in
  ()

let test_prng_split_differs () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let xa = Prng.bits64 a and xb = Prng.bits64 b in
  Alcotest.(check bool) "split stream differs" true (xa <> xb)

let test_prng_int_bounds () =
  let r = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_prng_int_rejects_bad_bound () =
  let r = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int r 0))

let test_prng_float_bounds () =
  let r = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_int_in () =
  let r = Prng.create 9 in
  for _ = 1 to 500 do
    let v = Prng.int_in r (-3) 3 in
    Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_prng_exponential_mean () =
  let r = Prng.create 11 in
  let n = 20000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Prng.exponential r 4.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f within 5%% of 0.25" mean)
    true
    (Float.abs (mean -. 0.25) < 0.0125)

let test_prng_normal_moments () =
  let r = Prng.create 13 in
  let n = 20000 in
  let s = Stats.create () in
  for _ = 1 to n do
    Stats.add s (Prng.normal r ~mu:5.0 ~sigma:2.0)
  done;
  Alcotest.(check bool) "mean close" true (Float.abs (Stats.mean s -. 5.0) < 0.1);
  Alcotest.(check bool) "stddev close" true (Float.abs (sqrt (Stats.variance s) -. 2.0) < 0.1)

let test_prng_weighted_choice () =
  let r = Prng.create 17 in
  let counts = Hashtbl.create 3 in
  let items = [| ("a", 1.0); ("b", 3.0); ("c", 0.0) |] in
  for _ = 1 to 10000 do
    let k = Prng.weighted_choice r items in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check int) "zero-weight item never drawn" 0 (get "c");
  Alcotest.(check bool) "b ~3x a" true (float_of_int (get "b") /. float_of_int (get "a") > 2.5)

let test_prng_shuffle_permutation () =
  let r = Prng.create 23 in
  let a = Array.init 50 (fun i -> i) in
  Es_oracle.Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_sample_without_replacement () =
  let r = Prng.create 29 in
  let s = Prng.sample_without_replacement r 10 30 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let seen = Hashtbl.create 10 in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "in range" true (x >= 0 && x < 30);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem seen x);
      Hashtbl.add seen x ())
    s

let prng_nonnegative_int =
  qtest "Prng.int is within bounds for arbitrary seeds/bounds"
    QCheck.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Prng.create seed in
      let v = Prng.int r bound in
      v >= 0 && v < bound)

(* ---------- Stats ---------- *)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  Alcotest.(check bool) "mean is nan" true (Float.is_nan (Stats.mean s))

let test_stats_known_values () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Stats.variance s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max s);
  Alcotest.(check (float 1e-9)) "sum" 40.0 (Stats.sum s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  let xs = [ 1.0; 2.0; 3.0 ] and ys = [ 10.0; 20.0; 30.0; 40.0 ] in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  List.iter (Stats.add whole) (xs @ ys);
  let m = Stats.merge a b in
  Alcotest.(check (float 1e-9)) "merged mean" (Stats.mean whole) (Stats.mean m);
  Alcotest.(check (float 1e-9)) "merged variance" (Stats.variance whole) (Stats.variance m);
  Alcotest.(check int) "merged count" (Stats.count whole) (Stats.count m)

let test_percentiles () =
  let xs = [| 15.0; 20.0; 35.0; 40.0; 50.0 |] in
  Alcotest.(check (float 1e-9)) "p0 = min" 15.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 50.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "median" 35.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p25 lands on an order statistic" 20.0 (Stats.percentile xs 25.0);
  Alcotest.(check (float 1e-9)) "p37.5 interpolated" 27.5 (Stats.percentile xs 37.5)

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "bad p" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.percentile [| 1.0 |] 101.0))

let test_histogram () =
  let xs = [| 0.0; 0.1; 0.9; 1.0; 2.0 |] in
  let h = Stats.histogram xs ~bins:2 in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 h in
  Alcotest.(check int) "all samples binned" 5 total

let test_jain_index () =
  Alcotest.(check (float 1e-9)) "equal allocation" 1.0 (Stats.jain_index [| 2.0; 2.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "maximal skew -> 1/n" (1.0 /. 3.0)
    (Stats.jain_index [| 6.0; 0.0; 0.0 |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.jain_index [||]));
  Alcotest.(check (float 1e-9)) "all zeros treated as fair" 1.0 (Stats.jain_index [| 0.0; 0.0 |]);
  Alcotest.check_raises "negative rejected" (Invalid_argument "Stats.jain_index: negative entry")
    (fun () -> ignore (Stats.jain_index [| 1.0; -1.0 |]))

let stats_percentile_monotone =
  qtest "percentiles are monotone in p"
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.)) (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let xs = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let stats_merge_matches_sequential =
  qtest "merge equals a single pass"
    QCheck.(pair (list (float_range (-50.) 50.)) (list (float_range (-50.) 50.)))
    (fun (xs, ys) ->
      let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
      List.iter (Stats.add a) xs;
      List.iter (Stats.add b) ys;
      List.iter (Stats.add whole) (xs @ ys);
      let m = Stats.merge a b in
      (* equal within an absolute or relative tolerance *)
      let close eps a b =
        let diff = Float.abs (a -. b) in
        diff <= eps || diff <= eps *. Float.max (Float.abs a) (Float.abs b)
      in
      Stats.count m = Stats.count whole
      && (Stats.count m = 0
         || close 1e-9 (Stats.mean m) (Stats.mean whole)
            && close 1e-6 (Stats.variance m) (Stats.variance whole)))

(* ---------- Heap (the reference queue) ---------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p p) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.map fst (Heap.to_sorted_list h) in
  Alcotest.(check (list (float 1e-9))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order;
  Alcotest.(check int) "non-destructive" 5 (Heap.length h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h 1.0 "first";
  Heap.push h 1.0 "second";
  Heap.push h 1.0 "third";
  Alcotest.(check string) "tie order 1" "first" (snd (Heap.pop_exn h));
  Alcotest.(check string) "tie order 2" "second" (snd (Heap.pop_exn h));
  Alcotest.(check string) "tie order 3" "third" (snd (Heap.pop_exn h))

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop None" true (Heap.pop h = None);
  Alcotest.check_raises "pop_exn raises" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 ();
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.length h)

let heap_pops_sorted =
  qtest "pops come out sorted for arbitrary pushes"
    QCheck.(list (float_range (-1000.) 1000.))
    (fun ps ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p ()) ps;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some (p, ()) -> p >= last && drain p
      in
      drain neg_infinity)

let heap_interleaved =
  qtest "interleaved push/pop maintains the invariant"
    QCheck.(list (pair bool (float_range 0. 100.)))
    (fun ops ->
      let h = Heap.create () in
      let ok = ref true in
      let last_popped = ref neg_infinity in
      List.iter
        (fun (is_pop, p) ->
          if is_pop then begin
            match Heap.pop h with
            | None -> last_popped := neg_infinity
            | Some (v, ()) ->
                (* Within a monotone drain the values must not decrease. *)
                if v < !last_popped then ok := false;
                last_popped := v
          end
          else begin
            Heap.push h p ();
            last_popped := neg_infinity
          end)
        ops;
      !ok)

(* ---------- Calendar_queue ---------- *)

let test_cq_fifo_ties () =
  let c = Calendar_queue.create () in
  Calendar_queue.push c 1.0 1;
  Calendar_queue.push c 1.0 2;
  Calendar_queue.push c 1.0 3;
  Alcotest.(check int) "tie order 1" 1 (snd (Calendar_queue.pop_exn c));
  Alcotest.(check int) "tie order 2" 2 (snd (Calendar_queue.pop_exn c));
  Alcotest.(check int) "tie order 3" 3 (snd (Calendar_queue.pop_exn c))

let test_cq_empty () =
  let c = Calendar_queue.create () in
  Alcotest.(check bool) "is_empty" true (Calendar_queue.is_empty c);
  Alcotest.(check bool) "pop None" true (Calendar_queue.pop c = None);
  Alcotest.check_raises "pop_exn raises"
    (Invalid_argument "Calendar_queue.pop_exn: empty") (fun () ->
      ignore (Calendar_queue.pop_exn c))

let test_cq_push_validation () =
  let c = Calendar_queue.create () in
  let expect p =
    Alcotest.check_raises "rejected"
      (Invalid_argument "Calendar_queue.push: priority must be finite and >= 0")
      (fun () -> Calendar_queue.push c p 0)
  in
  expect (-1.0);
  expect nan;
  expect infinity;
  Alcotest.check_raises "negative payload rejected"
    (Invalid_argument "Calendar_queue.push: negative payload") (fun () ->
      Calendar_queue.push c 1.0 (-1));
  Alcotest.(check int) "nothing entered" 0 (Calendar_queue.length c)

(* [pop_before] as an option, for comparison with the heap oracle. *)
let cq_pop_before c horizon =
  let at = [| nan |] in
  let v = Calendar_queue.pop_before c horizon at in
  if v < 0 then None else Some (at.(0), v)

let test_cq_pop_before () =
  let c = Calendar_queue.create () in
  Calendar_queue.push c 5.0 1;
  Calendar_queue.push c 10.0 2;
  Alcotest.(check bool) "nothing due" true (cq_pop_before c 4.0 = None);
  Alcotest.(check int) "still pending" 2 (Calendar_queue.length c);
  Alcotest.(check bool) "due at horizon" true (cq_pop_before c 5.0 = Some (5.0, 1));
  Alcotest.(check bool) "rest" true (cq_pop_before c infinity = Some (10.0, 2))

let test_cq_clear () =
  let c = Calendar_queue.create () in
  Calendar_queue.push c 1.0 0;
  Calendar_queue.clear c;
  Alcotest.(check int) "cleared" 0 (Calendar_queue.length c);
  Calendar_queue.push c 2.0 0;
  Alcotest.(check bool) "usable after clear" true (Calendar_queue.pop c = Some (2.0, 0))

(* A one-deep event chain — push one, pop it, push the next — drains the
   queue at every pop; once warm it allocates nothing.  (The priorities
   are boxed up front: a float passed to a function is boxed.) *)
let test_cq_pop_push_zero_alloc () =
  let c = Calendar_queue.create () and at = [| 0.0 |] in
  let prios = List.init 100 (fun i -> float_of_int (i + 1)) in
  let rec chain i = function
    | [] -> ()
    | p :: rest ->
        Calendar_queue.push c p i;
        if Calendar_queue.pop_before c infinity at <> i then failwith "wrong payload";
        chain (i + 1) rest
  in
  let chain () = chain 0 prios in
  Alcotest.(check (float 0.0)) "push + pop allocate nothing" 0.0 (Alloc_probe.minor_words chain)

let test_cq_reserved_seq () =
  let c = Calendar_queue.create () in
  Calendar_queue.push c 1.0 0;
  let base = Calendar_queue.reserve c 2 in
  Calendar_queue.push c 1.0 3;
  Calendar_queue.push_seq c 1.0 ~seq:(base + 1) 2;
  Calendar_queue.push_seq c 1.0 ~seq:base 1;
  Alcotest.(check (list int)) "reserved numbers pop where they were reserved" [ 0; 1; 2; 3 ]
    (List.map snd (Calendar_queue.to_sorted_list c));
  let rejected seq =
    Alcotest.check_raises "not reserved"
      (Invalid_argument "Calendar_queue.push_seq: sequence number not reserved") (fun () ->
        Calendar_queue.push_seq c 1.0 ~seq 9)
  in
  rejected (-1);
  rejected (base + 3);
  Alcotest.check_raises "negative count" (Invalid_argument "Calendar_queue.reserve: negative count")
    (fun () -> ignore (Calendar_queue.reserve c (-1)))

(* A sorted run handed over one entry at a time, each at a number reserved
   up front, pops exactly like the run pushed whole: [pre] entries go in
   first, then the run [times] (payload 2i for entry i), and popping
   entry i pushes a follow-up (payload 2i + 1) [delays.(i)] later — with
   zeros among the delays, follow-ups tie with later run entries. *)
let cq_reserved_run_matches_eager =
  qtest ~count:300 "reserved hand-over pops like pushing the run up front"
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 5) (int_range 0 40))
        (list_of_size Gen.(0 -- 40) (int_range 0 40))
        (list_of_size Gen.(40 -- 40) (int_range 0 3)))
    (fun (pre, raw_times, raw_delays) ->
      let times = Array.of_list (List.sort Int.compare raw_times) in
      let n = Array.length times in
      let delays = Array.of_list raw_delays in
      let at i = float_of_int times.(i) *. 0.5 in
      let drain c ~lazily base =
        let out = ref [] and buf = [| 0.0 |] in
        let rec go () =
          let v = Calendar_queue.pop_before c infinity buf in
          if v >= 0 then begin
            out := (buf.(0), v) :: !out;
            if v land 1 = 0 && v < 2 * n then begin
              let i = v / 2 in
              Calendar_queue.push c (buf.(0) +. float_of_int delays.(i)) (v + 1);
              if lazily && i + 1 < n then
                Calendar_queue.push_seq c (at (i + 1)) ~seq:(base + i + 1) (v + 2)
            end;
            go ()
          end
        in
        go ();
        List.rev !out
      in
      let run ~lazily =
        let c = Calendar_queue.create () in
        List.iteri
          (fun j p -> Calendar_queue.push c (float_of_int p *. 0.5) (2 * (n + j)))
          pre;
        let base = Calendar_queue.reserve c n in
        if lazily then (if n > 0 then Calendar_queue.push_seq c (at 0) ~seq:base 0)
        else Array.iteri (fun i _ -> Calendar_queue.push_seq c (at i) ~seq:(base + i) (2 * i)) times;
        drain c ~lazily base
      in
      run ~lazily:true = run ~lazily:false)

(* Heap-oracle interpreter: one op program applied to both queues must
   behave identically, including FIFO order within a tie (the payload is a
   per-push stamp).  Push flavors cover the calendar's hard cases — runs of
   discrete tied timestamps, spread-out values, and far-future jumps that
   force the fruitless-lap direct search; pops cover both plain [pop] and
   bounded [pop_before]. *)
let cq_program =
  QCheck.(list (pair (int_range 0 5) (int_range 0 1000)))

let cq_apply_op (h, c, stamp, ok) (op, raw) =
  match op with
  | 0 | 1 | 2 ->
      let prio =
        match op with
        | 0 -> float_of_int (raw mod 4) (* tie-heavy *)
        | 1 -> float_of_int raw *. 0.1 (* spread *)
        | _ -> 1e9 +. float_of_int raw (* far-future jump *)
      in
      incr stamp;
      Heap.push h prio !stamp;
      Calendar_queue.push c prio !stamp
  | 3 | 4 -> if Heap.pop h <> Calendar_queue.pop c then ok := false
  | _ ->
      let horizon = float_of_int (raw mod 12) in
      let from_heap =
        match Heap.peek h with
        | Some (p, _) when p <= horizon -> Some (Heap.pop_exn h)
        | _ -> None
      in
      if from_heap <> cq_pop_before c horizon then ok := false

let cq_matches_heap =
  qtest ~count:500 "calendar queue matches heap oracle on op programs" cq_program
    (fun program ->
      let h = Heap.create () and c = Calendar_queue.create () in
      let stamp = ref 0 and ok = ref true in
      List.iter (fun op -> cq_apply_op (h, c, stamp, ok) op) program;
      !ok
      && Calendar_queue.length c = Heap.length h
      && Calendar_queue.to_sorted_list c = Heap.to_sorted_list h)

let cq_drain_matches_heap =
  qtest ~count:200 "full drain equals heap order after arbitrary pushes"
    QCheck.(list (pair (int_range 0 2) (int_range 0 1000)))
    (fun pushes ->
      let h = Heap.create () and c = Calendar_queue.create () in
      let stamp = ref 0 and ok = ref true in
      List.iter (fun (flavor, raw) -> cq_apply_op (h, c, stamp, ok) (flavor, raw)) pushes;
      let rec drain () =
        let a = Heap.pop h and b = Calendar_queue.pop c in
        if a <> b then false else match a with None -> true | Some _ -> drain ()
      in
      !ok && drain ())

(* ---------- Maxflow ---------- *)

module Maxflow = Es_oracle.Maxflow

let test_maxflow_diamond () =
  (* s -> a (3), s -> b (2), a -> t (2), b -> t (3), a -> b (10). *)
  let net = Maxflow.create ~n:4 in
  let s = 0 and a = 1 and b = 2 and t = 3 in
  Maxflow.add_edge net ~src:s ~dst:a ~capacity:3.0;
  Maxflow.add_edge net ~src:s ~dst:b ~capacity:2.0;
  Maxflow.add_edge net ~src:a ~dst:t ~capacity:2.0;
  Maxflow.add_edge net ~src:b ~dst:t ~capacity:3.0;
  Maxflow.add_edge net ~src:a ~dst:b ~capacity:10.0;
  Alcotest.(check (float 1e-9)) "flow value" 5.0 (Maxflow.max_flow net ~source:s ~sink:t);
  let side = Maxflow.min_cut_side net ~source:s in
  Alcotest.(check bool) "source on source side" true side.(s);
  Alcotest.(check bool) "sink on sink side" false side.(t)

let test_maxflow_classic () =
  (* CLRS figure: max flow 23. *)
  let net = Maxflow.create ~n:6 in
  let edges =
    [ (0, 1, 16.); (0, 2, 13.); (1, 2, 10.); (2, 1, 4.); (1, 3, 12.); (3, 2, 9.);
      (2, 4, 14.); (4, 3, 7.); (3, 5, 20.); (4, 5, 4.) ]
  in
  List.iter (fun (src, dst, capacity) -> Maxflow.add_edge net ~src ~dst ~capacity) edges;
  Alcotest.(check (float 1e-9)) "CLRS max flow" 23.0 (Maxflow.max_flow net ~source:0 ~sink:5)

let test_maxflow_disconnected () =
  let net = Maxflow.create ~n:3 in
  Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:5.0;
  Alcotest.(check (float 0.0)) "no path, no flow" 0.0 (Maxflow.max_flow net ~source:0 ~sink:2)

let test_maxflow_infinite_edge () =
  let net = Maxflow.create ~n:3 in
  Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:infinity;
  Maxflow.add_edge net ~src:1 ~dst:2 ~capacity:7.0;
  Alcotest.(check (float 1e-9)) "bounded by the finite edge" 7.0
    (Maxflow.max_flow net ~source:0 ~sink:2)

let test_maxflow_validation () =
  let net = Maxflow.create ~n:2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Maxflow.add_edge: self-loop") (fun () ->
      Maxflow.add_edge net ~src:0 ~dst:0 ~capacity:1.0);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Maxflow.add_edge: negative capacity") (fun () ->
      Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:(-1.0))

(* ---------- Pareto ---------- *)

let test_dominates () =
  Alcotest.(check bool) "strict" true (Pareto.dominates [| 1.0; 1.0 |] [| 2.0; 2.0 |]);
  Alcotest.(check bool) "partial" true (Pareto.dominates [| 1.0; 2.0 |] [| 2.0; 2.0 |]);
  Alcotest.(check bool) "equal does not dominate" false
    (Pareto.dominates [| 1.0; 1.0 |] [| 1.0; 1.0 |]);
  Alcotest.(check bool) "incomparable" false (Pareto.dominates [| 1.0; 3.0 |] [| 2.0; 2.0 |])

let test_frontier_basic () =
  let pts = [ (1.0, 5.0); (2.0, 4.0); (3.0, 3.0); (2.5, 4.5); (1.0, 5.0) ] in
  let f = Pareto.frontier (fun (a, b) -> [| a; b |]) pts in
  Alcotest.(check int) "dominated and duplicate removed" 3 (List.length f);
  Alcotest.(check bool) "keeps the diagonal" true
    (List.mem (1.0, 5.0) f && List.mem (2.0, 4.0) f && List.mem (3.0, 3.0) f)

let pareto_frontier_sound =
  qtest ~count:100 "frontier members are mutually non-dominated and cover the input"
    QCheck.(list_of_size (Gen.int_range 0 40) (pair (float_range 0. 10.) (float_range 0. 10.)))
    (fun pts ->
      let key (a, b) = [| a; b |] in
      let f = Pareto.frontier key pts in
      let non_dominated_inside =
        List.for_all
          (fun x -> not (List.exists (fun y -> Pareto.dominates (key y) (key x)) f))
          f
      in
      let covers =
        List.for_all
          (fun x ->
            List.exists (fun y -> key y = key x || Pareto.dominates (key y) (key x)) f)
          pts
      in
      non_dominated_inside && covers)

(* Law: the sort-based skyline must reproduce the naive O(n²) frontier
   exactly — same members, same (input) order.  Small integer-valued floats
   force heavy ties and duplicates, the cases where the two dedup paths
   could diverge. *)
let pareto_skyline_matches_oracle_2d =
  qtest ~count:500 "sorted skyline = naive frontier (2-d, duplicate-heavy)"
    QCheck.(list_of_size (Gen.int_range 0 60) (pair (int_range 0 6) (int_range 0 6)))
    (fun pts ->
      let key (a, b) = [| float_of_int a; float_of_int b |] in
      Pareto.frontier key pts = Es_oracle.Pareto.frontier key pts)

let pareto_skyline_matches_oracle_4d =
  qtest ~count:300 "sorted skyline = naive frontier (4-d)"
    QCheck.(
      list_of_size (Gen.int_range 0 40)
        (quad (int_range 0 4) (int_range 0 4) (int_range 0 4) (int_range 0 4)))
    (fun pts ->
      let key (a, b, c, d) =
        [| float_of_int a; float_of_int b; float_of_int c; float_of_int d |]
      in
      Pareto.frontier key pts = Es_oracle.Pareto.frontier key pts)

(* ---------- Par ---------- *)

let par_map_matches_sequential =
  qtest ~count:60 "parallel_map ~jobs:k f = List.map f for arbitrary k"
    QCheck.(pair (int_range 0 6) (list (int_range (-1000) 1000)))
    (fun (jobs, xs) ->
      let f x = (x * 31) lxor (x asr 2) in
      Par.parallel_map ~jobs f xs = List.map f xs)

let test_par_map_array () =
  let arr = Array.init 101 (fun i -> i) in
  Alcotest.(check (array int))
    "array variant, order preserved"
    (Array.map (fun x -> x * x) arr)
    (Par.parallel_map_array ~jobs:4 (fun x -> x * x) arr)

let test_par_nested () =
  (* A parallel call inside a pool task degrades to sequential instead of
     deadlocking on the queue. *)
  let out =
    Par.parallel_map ~jobs:3
      (fun x -> Par.parallel_map ~jobs:3 (fun y -> x + y) [ 1; 2; 3 ])
      [ 10; 20 ]
  in
  Alcotest.(check (list (list int))) "nested result" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] out

let test_par_exception () =
  Alcotest.check_raises "worker exception re-raised in caller" (Failure "boom") (fun () ->
      ignore
        (Par.parallel_map ~jobs:4
           (fun x -> if x = 7 then failwith "boom" else x)
           (List.init 20 Fun.id)))

let test_par_iter_covers () =
  let hits = Array.make 50 0 in
  Par.parallel_iter ~jobs:4 (fun i -> hits.(i) <- hits.(i) + 1) (List.init 50 Fun.id);
  Alcotest.(check bool) "each element visited exactly once" true
    (Array.for_all (fun c -> c = 1) hits)

let test_par_default_jobs () =
  Alcotest.(check bool) "default_jobs >= 1" true (Par.default_jobs () >= 1);
  Alcotest.(check bool) "not inside pool at top level" false (Par.inside_pool ())

(* ---------- Once ---------- *)

(* A build slow enough that racing callers find its [Building] marker. *)
let counted_build builds v () =
  Atomic.incr builds;
  let acc = ref 0 in
  for i = 1 to 2_000_000 do
    acc := !acc + (i land 7)
  done;
  ignore (Sys.opaque_identity !acc);
  v

let test_once_builds_once () =
  let t = Once.create () and builds = Atomic.make 0 in
  let got =
    Par.parallel_map ~jobs:4
      (fun _ -> Once.find_or_build t 0 (counted_build builds 7))
      (List.init 16 Fun.id)
  in
  Alcotest.(check int) "one build for 16 racing callers" 1 (Atomic.get builds);
  Alcotest.(check (list int)) "every caller sees the value" (List.init 16 (fun _ -> 7)) got

let test_once_failed_build_withdrawn () =
  let t = Once.create () and builds = Atomic.make 0 in
  Alcotest.check_raises "the build's exception reaches the caller" (Failure "boom") (fun () ->
      ignore (Once.find_or_build t 0 (fun () -> Atomic.incr builds; failwith "boom")));
  Alcotest.(check int) "next call builds again" 5 (Once.find_or_build t 0 (counted_build builds 5));
  Alcotest.(check int) "two builds" 2 (Atomic.get builds)

let test_once_clear () =
  let t = Once.create () and builds = Atomic.make 0 in
  let get () = ignore (Once.find_or_build t 0 (counted_build builds 1)) in
  get ();
  get ();
  Alcotest.(check int) "hit after the first build" 1 (Atomic.get builds);
  Once.clear t;
  get ();
  Alcotest.(check int) "rebuilt after clear" 2 (Atomic.get builds)

(* ---------- Numeric ---------- *)

let test_clamp () =
  Alcotest.(check (float 0.0)) "below" 1.0 (Numeric.clamp ~lo:1.0 ~hi:2.0 0.0);
  Alcotest.(check (float 0.0)) "above" 2.0 (Numeric.clamp ~lo:1.0 ~hi:2.0 3.0);
  Alcotest.(check (float 0.0)) "inside" 1.5 (Numeric.clamp ~lo:1.0 ~hi:2.0 1.5)

let test_interp1 () =
  let knots = [| (0.0, 0.0); (1.0, 10.0); (2.0, 20.0) |] in
  Alcotest.(check (float 1e-9)) "midpoint" 5.0 (Numeric.interp1 knots 0.5);
  Alcotest.(check (float 1e-9)) "clamp left" 0.0 (Numeric.interp1 knots (-1.0));
  Alcotest.(check (float 1e-9)) "clamp right" 20.0 (Numeric.interp1 knots 5.0);
  Alcotest.(check (float 1e-9)) "knot exact" 10.0 (Numeric.interp1 knots 1.0)

let test_argmin_argmax () =
  Alcotest.(check (option int)) "argmin" (Some 3) (Numeric.argmin_by float_of_int [ 5; 3; 4 ]);
  Alcotest.(check (option int)) "argmax" (Some 5) (Numeric.argmax_by float_of_int [ 5; 3; 4 ]);
  Alcotest.(check (option int)) "empty" None (Numeric.argmin_by float_of_int [])

let test_units () =
  Alcotest.(check (float 1e-9)) "mbps" 125000.0 (Numeric.mbps 1.0);
  Alcotest.(check (float 1e-9)) "gflops" 2e9 (Numeric.gflops 2.0);
  Alcotest.(check (float 1e-9)) "ms" 0.25 (Numeric.ms 250.0)

(* ---------- Table ---------- *)

let test_table_render () =
  let out = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + rule + 2 rows + trailing" 5 (List.length lines);
  (* All rows align to the same width. *)
  let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
  List.iter (fun w -> Alcotest.(check int) "aligned" (List.hd widths) w) widths

let test_table_formats () =
  Alcotest.(check string) "fmt_f" "1.500" (Table.fmt_f 1.5);
  Alcotest.(check string) "fmt_f nan" "-" (Table.fmt_f nan);
  Alcotest.(check string) "fmt_ms" "12.30" (Table.fmt_ms 0.0123);
  Alcotest.(check string) "fmt_pct" "97.5" (Table.fmt_pct 0.975)

(* ---------- Scratch ---------- *)

let test_scratch_reuse () =
  Alcotest.(check bool) "balanced at start" true (Scratch.live () = (0, 0));
  let a = Scratch.borrow_floats 64 in
  Scratch.release_floats a;
  let b = Scratch.borrow_floats 32 in
  Alcotest.(check bool) "smaller re-borrow reuses the same buffer" true (a == b);
  Scratch.release_floats b;
  let i = Scratch.borrow_ints 16 in
  Scratch.release_ints i;
  let j = Scratch.borrow_ints 16 in
  Alcotest.(check bool) "int buffer reused" true (i == j);
  Scratch.release_ints j;
  Alcotest.(check bool) "balanced at end" true (Scratch.live () = (0, 0))

let test_scratch_nested_distinct () =
  let a = Scratch.borrow_floats 8 in
  let b = Scratch.borrow_floats 8 in
  Alcotest.(check bool) "nested borrows never alias" true (not (a == b));
  Alcotest.(check bool) "two floats live" true (Scratch.live () = (2, 0));
  Scratch.release_floats b;
  Scratch.release_floats a

let test_scratch_misuse () =
  let a = Scratch.borrow_floats 8 in
  let b = Scratch.borrow_floats 8 in
  (match Scratch.release_floats a with
  | () -> Alcotest.fail "non-LIFO release must raise Misuse"
  | exception Scratch.Misuse _ -> ());
  Scratch.release_floats b;
  Scratch.release_floats a;
  (match Scratch.release_floats a with
  | () -> Alcotest.fail "release with nothing borrowed must raise Misuse"
  | exception Scratch.Misuse _ -> ());
  Alcotest.check_raises "negative length"
    (Invalid_argument "Scratch.borrow_floats: negative length") (fun () ->
      ignore (Scratch.borrow_floats (-1)))

let test_scratch_with_brackets () =
  (match Scratch.with_floats 4 (fun _ -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "released on exception" true (Scratch.live () = (0, 0));
  let sum =
    Scratch.with_ints 3 (fun b ->
        b.(0) <- 1;
        b.(1) <- 2;
        b.(2) <- 3;
        b.(0) + b.(1) + b.(2))
  in
  Alcotest.(check int) "with_ints returns the closure's result" 6 sum

let test_scratch_canary () =
  Fun.protect
    ~finally:(fun () -> Scratch.set_debug false)
    (fun () ->
      Scratch.set_debug true;
      let buf = Scratch.borrow_floats 4 in
      buf.(0) <- 1.0;
      Scratch.release_floats buf;
      (* Writing past the requested length clobbers a canary. *)
      let buf = Scratch.borrow_floats 4 in
      buf.(4) <- 0.0;
      (match Scratch.release_floats buf with
      | () -> Alcotest.fail "clobbered canary must be detected"
      | exception Scratch.Misuse _ -> ());
      (* The failed release leaves the borrow live; pop it with the canary
         check disabled to restore balance for the tests that follow. *)
      Scratch.set_debug false;
      Scratch.release_floats buf;
      Alcotest.(check bool) "balanced after cleanup" true (Scratch.live () = (0, 0)))

(* ---------- Alloc_probe ---------- *)

let test_alloc_probe_sees_allocation () =
  (* A float array of n elements is n words plus a header.  Small arrays
     land on the minor heap; a large one goes straight to the major heap,
     which [words] counts and [minor_words] does not. *)
  let array n () = ignore (Sys.opaque_identity (Array.make n 0.0)) in
  Alcotest.(check (float 0.0)) "32 floats" 33.0 (Alloc_probe.minor_words (array 32));
  Alcotest.(check (float 0.0)) "96 floats" 97.0 (Alloc_probe.words (array 96));
  Alcotest.(check (float 0.0)) "large block: no minor words" 0.0
    (Alloc_probe.minor_words (array 100_000));
  Alcotest.(check (float 0.0)) "large block: major words" 100_001.0
    (Alloc_probe.words (array 100_000))

(* [List.init n] allocates exactly n cons cells of 3 words each, all on the
   minor heap; at n = 100,000 minor collections land mid-call, and the
   promoted cells must not be counted twice. *)
let test_alloc_probe_exact () =
  List.iter
    (fun n ->
      let thunk () = ignore (Sys.opaque_identity (List.init n Fun.id)) in
      let want = float_of_int (3 * n) in
      Alcotest.(check (float 0.0)) (Printf.sprintf "minor words, n = %d" n) want
        (Alloc_probe.minor_words thunk);
      Alcotest.(check (float 0.0)) (Printf.sprintf "words, n = %d" n) want
        (Alloc_probe.words thunk))
    [ 10; 1000; 100_000 ]

let test_alloc_probe_pure_loop_zero () =
  let buf = Array.make 64 1.5 in
  let thunk () =
    let acc = ref 0.0 in
    for i = 0 to Array.length buf - 1 do
      acc := !acc +. buf.(i)
    done;
    buf.(0) <- !acc
  in
  Alcotest.(check (float 0.0)) "pure float-array loop allocates nothing" 0.0
    (Alloc_probe.minor_words thunk)

let test_stats_add_zero_alloc () =
  let s = Stats.create () and xs = List.init 64 (fun i -> float_of_int (i * 7 mod 13)) in
  let rec add = function
    | [] -> ()
    | x :: rest ->
        Stats.add s x;
        add rest
  in
  let thunk () = add xs in
  Alcotest.(check (float 0.0)) "Stats.add allocates nothing" 0.0 (Alloc_probe.minor_words thunk)

let test_scratch_steady_state_zero_alloc () =
  Alcotest.(check bool) "debug must be off" false (Scratch.debug ());
  let thunk () =
    let f = Scratch.borrow_floats 48 in
    let i = Scratch.borrow_ints 48 in
    f.(0) <- f.(0) +. 1.0;
    i.(0) <- i.(0) + 1;
    Scratch.release_ints i;
    Scratch.release_floats f
  in
  Alcotest.(check (float 0.0)) "steady-state borrow/release allocates nothing" 0.0
    (Alloc_probe.minor_words thunk)

let () =
  Alcotest.run "es_util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "split" `Quick test_prng_split_differs;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_prng_int_rejects_bad_bound;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "int_in" `Quick test_prng_int_in;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_prng_normal_moments;
          Alcotest.test_case "weighted choice" `Quick test_prng_weighted_choice;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick test_prng_sample_without_replacement;
          prng_nonnegative_int;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "jain index" `Quick test_jain_index;
          stats_percentile_monotone;
          stats_merge_matches_sequential;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          heap_pops_sorted;
          heap_interleaved;
        ] );
      ( "calendar_queue",
        [
          Alcotest.test_case "FIFO ties" `Quick test_cq_fifo_ties;
          Alcotest.test_case "empty" `Quick test_cq_empty;
          Alcotest.test_case "push validation" `Quick test_cq_push_validation;
          Alcotest.test_case "pop_before" `Quick test_cq_pop_before;
          Alcotest.test_case "clear" `Quick test_cq_clear;
          Alcotest.test_case "pop + push zero alloc" `Quick test_cq_pop_push_zero_alloc;
          Alcotest.test_case "reserved sequence numbers" `Quick test_cq_reserved_seq;
          cq_reserved_run_matches_eager;
          cq_matches_heap;
          cq_drain_matches_heap;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "diamond" `Quick test_maxflow_diamond;
          Alcotest.test_case "classic 23" `Quick test_maxflow_classic;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          Alcotest.test_case "infinite edge" `Quick test_maxflow_infinite_edge;
          Alcotest.test_case "validation" `Quick test_maxflow_validation;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "frontier basic" `Quick test_frontier_basic;
          pareto_frontier_sound;
          pareto_skyline_matches_oracle_2d;
          pareto_skyline_matches_oracle_4d;
        ] );
      ( "par",
        [
          par_map_matches_sequential;
          Alcotest.test_case "map_array" `Quick test_par_map_array;
          Alcotest.test_case "nested" `Quick test_par_nested;
          Alcotest.test_case "exception" `Quick test_par_exception;
          Alcotest.test_case "iter covers" `Quick test_par_iter_covers;
          Alcotest.test_case "default_jobs" `Quick test_par_default_jobs;
        ] );
      ( "once",
        [
          Alcotest.test_case "one build under racing callers" `Quick test_once_builds_once;
          Alcotest.test_case "failed build withdrawn" `Quick test_once_failed_build_withdrawn;
          Alcotest.test_case "clear" `Quick test_once_clear;
        ] );
      ( "numeric",
        [
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "interp1" `Quick test_interp1;
          Alcotest.test_case "argmin/argmax" `Quick test_argmin_argmax;
          Alcotest.test_case "units" `Quick test_units;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "reuse" `Quick test_scratch_reuse;
          Alcotest.test_case "nested distinct" `Quick test_scratch_nested_distinct;
          Alcotest.test_case "misuse" `Quick test_scratch_misuse;
          Alcotest.test_case "with_ brackets" `Quick test_scratch_with_brackets;
          Alcotest.test_case "canary" `Quick test_scratch_canary;
        ] );
      ( "alloc-probe",
        [
          Alcotest.test_case "sees allocation" `Quick test_alloc_probe_sees_allocation;
          Alcotest.test_case "exact on List.init" `Quick test_alloc_probe_exact;
          Alcotest.test_case "pure loop zero" `Quick test_alloc_probe_pure_loop_zero;
          Alcotest.test_case "stats add zero" `Quick test_stats_add_zero_alloc;
          Alcotest.test_case "scratch steady state zero" `Quick
            test_scratch_steady_state_zero_alloc;
        ] );
    ]
