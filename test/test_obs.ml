open Es_obs

let qtest ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* ---------- Json ---------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\nline");
        ("i", Json.Int (-42));
        ("f", Json.Float 0.125);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "" ]);
        ("o", Json.Obj [ ("nested", Json.Bool false) ]);
      ]
  in
  match Json.of_string (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "tree round-trips" true (j = j')
  | Error e -> Alcotest.fail e

let test_json_rejects_garbage () =
  let bad s =
    match Json.of_string s with Ok _ -> Alcotest.fail ("accepted " ^ s) | Error _ -> ()
  in
  bad "{";
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "nul"

let test_json_nonfinite_floats () =
  (* JSON has no inf/nan: they serialize as null. *)
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string) "inf is null" "null" (Json.to_string (Json.Float infinity))

(* ---------- Histogram ---------- *)

let exact_rank_value xs p =
  (* The order statistic the histogram quantile targets: position
     floor(p/100·(n−1)) of the sorted sample. *)
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (Array.length xs - 1) in
  sorted.(int_of_float (Float.floor rank))

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (Histogram.quantile h 50.0));
  List.iter (Histogram.observe h) [ 0.010; 0.020; 0.030; 0.040; 0.050 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check (float 1e-12)) "sum" 0.150 (Histogram.sum h);
  Alcotest.(check (float 1e-12)) "min" 0.010 (Histogram.min_observed h);
  Alcotest.(check (float 1e-12)) "max" 0.050 (Histogram.max_observed h);
  let q50 = Histogram.quantile h 50.0 in
  Alcotest.(check bool) "p50 within one bucket of 0.030"
    true
    (Float.abs (q50 -. 0.030) <= Histogram.bucket_width_at 0.030);
  Alcotest.(check bool) "p0 within one bucket of min" true
    (Float.abs (Histogram.quantile h 0.0 -. 0.010) <= Histogram.bucket_width_at 0.010);
  Alcotest.(check bool) "p100 within one bucket of max" true
    (Float.abs (Histogram.quantile h 100.0 -. 0.050) <= Histogram.bucket_width_at 0.050)

let test_histogram_underflow_overflow () =
  let h = Histogram.create () in
  (* Range covered: [1e-9, 1e-9 * 2^64); below and above land in dedicated
     buckets. *)
  List.iter (Histogram.observe h) [ -3.0; 5e-10; 2.0; 1e20 ];
  Alcotest.(check int) "all counted" 4 (Histogram.count h);
  let buckets = Histogram.nonempty_buckets h in
  Alcotest.(check int) "three populated buckets" 3 (List.length buckets);
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 buckets in
  Alcotest.(check int) "bucket counts add up" 4 total;
  Alcotest.(check (float 0.0)) "quantile never exceeds observed max" 1e20
    (Histogram.quantile h 100.0)

let positive_samples =
  QCheck.(list_of_size (Gen.int_range 1 80) (float_range 1e-6 1e5))

let histogram_of xs =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) xs;
  h

let histogram_quantile_monotone =
  qtest "histogram quantile monotone in p"
    QCheck.(pair positive_samples (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (xs, (p1, p2)) ->
      let h = histogram_of xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Histogram.quantile h lo <= Histogram.quantile h hi +. 1e-12)

let histogram_quantile_near_exact =
  qtest "histogram quantile within one bucket of the exact order statistic"
    QCheck.(pair positive_samples (float_range 0.0 100.0))
    (fun (xs, p) ->
      let h = histogram_of xs in
      let v = exact_rank_value (Array.of_list xs) p in
      Float.abs (Histogram.quantile h p -. v) <= Histogram.bucket_width_at v +. 1e-12)

let histogram_merge_count_preserved =
  qtest "merge preserves count and sum"
    QCheck.(pair positive_samples positive_samples)
    (fun (xs, ys) ->
      let m = Histogram.merge (histogram_of xs) (histogram_of ys) in
      Histogram.count m = List.length xs + List.length ys
      && Float.abs (Histogram.sum m -. (List.fold_left ( +. ) 0.0 xs +. List.fold_left ( +. ) 0.0 ys))
         <= 1e-6)

let histogram_merge_quantiles_bounded =
  qtest "merge quantiles bounded by input quantiles"
    QCheck.(pair positive_samples (pair positive_samples (float_range 0.0 100.0)))
    (fun (xs, (ys, p)) ->
      let ha = histogram_of xs and hb = histogram_of ys in
      let m = Histogram.merge ha hb in
      let qm = Histogram.quantile m p in
      (* Every merged quantile is clamped to the pooled observed range,
         which is exactly the union of the inputs' ranges.  (The tighter
         per-p sandwich between the inputs' quantiles does not hold under
         the floor-rank convention: pooling shifts order-statistic
         positions, e.g. p70 of [1;2] ⊎ [1;2] lands on 2 while each input
         alone lands on 1.) *)
      let lo = Float.min (Histogram.min_observed ha) (Histogram.min_observed hb) in
      let hi = Float.max (Histogram.max_observed ha) (Histogram.max_observed hb) in
      qm >= lo -. 1e-12 && qm <= hi +. 1e-12)

(* ---------- Metric registry ---------- *)

(* The value of the instrument registered as [(name, labels)], read from
   the export snapshot, where labels are sorted. *)
let find_labelled reg labels name =
  List.find_map
    (fun (s : Metric.sample) ->
      if s.Metric.name = name && s.Metric.labels = labels then Some s.Metric.value else None)
    (Metric.snapshot reg)

let test_metric_registry () =
  let reg = Metric.create () in
  let c = Metric.counter reg "hits" in
  for _ = 1 to 5 do
    Metric.inc c
  done;
  Alcotest.(check int) "counter accrues" 5 (Metric.counter_value c);
  (* Get-or-create: same (name, labels) in any label order is one instrument. *)
  let c2 = Metric.counter reg "hits" in
  Metric.inc c2;
  Alcotest.(check int) "same instrument" 6 (Metric.counter_value c);
  let g = Metric.gauge reg ~labels:[ ("b", "2"); ("a", "1") ] "depth" in
  Metric.set g 3.0;
  Metric.add g 0.5;
  (match find_labelled reg [ ("a", "1"); ("b", "2") ] "depth" with
  | Some (Metric.Gauge v) -> Alcotest.(check (float 1e-12)) "labels normalized" 3.5 v
  | _ -> Alcotest.fail "gauge not found under sorted labels");
  let h = Metric.histogram reg "lat" in
  Histogram.observe h 0.25;
  let names = List.map (fun (s : Metric.sample) -> s.Metric.name) (Metric.snapshot reg) in
  Alcotest.(check (list string)) "snapshot sorted by name" [ "depth"; "hits"; "lat" ] names;
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metric.gauge: hits is registered as another kind") (fun () ->
      ignore (Metric.gauge reg "hits"))

(* ---------- Spans ---------- *)

let test_span_nesting () =
  let now = ref 1.0 in
  let sink, collected = Span.memory_sink () in
  let tr = Span.tracer ~sink ~clock:(fun () -> !now) () in
  let root = Span.start tr "request" in
  now := 2.0;
  let child1 = Span.start tr ~parent:root "device" in
  now := 3.0;
  Span.finish tr child1;
  let child2 = Span.start tr ~parent:root ~attrs:[ ("stage", Json.String "uplink") ] "uplink" in
  now := 5.0;
  Span.finish tr child2;
  Span.finish tr ~attrs:[ ("outcome", Json.String "completed") ] root;
  let spans = collected () in
  Alcotest.(check int) "three spans emitted" 3 (List.length spans);
  let by_name n = List.find (fun (s : Span.t) -> s.Span.name = n) spans in
  let r = by_name "request" and c1 = by_name "device" and c2 = by_name "uplink" in
  Alcotest.(check (option int)) "child1 parent" (Some r.Span.id) c1.Span.parent;
  Alcotest.(check (option int)) "child2 parent" (Some r.Span.id) c2.Span.parent;
  Alcotest.(check (option int)) "root has no parent" None r.Span.parent;
  Alcotest.(check int) "children share the root's trace" r.Span.trace c1.Span.trace;
  Alcotest.(check int) "children share the root's trace" r.Span.trace c2.Span.trace;
  Alcotest.(check (float 1e-12)) "child1 duration" 1.0 (Span.duration_s c1);
  Alcotest.(check (float 1e-12)) "child2 duration" 2.0 (Span.duration_s c2);
  Alcotest.(check (float 1e-12)) "root spans the whole tree" 4.0 (Span.duration_s r);
  Alcotest.(check bool) "finish order: children before root"
    true
    (match spans with
    | [ a; b; c ] -> a.Span.name = "device" && b.Span.name = "uplink" && c.Span.name = "request"
    | _ -> false);
  match Span.attr r "outcome" with
  | Some (Json.String "completed") -> ()
  | _ -> Alcotest.fail "finish attrs recorded"

let test_null_tracer_is_inert () =
  Alcotest.(check bool) "null tracer disabled" false (Span.enabled Span.null);
  let s = Span.start Span.null "ignored" in
  Span.set_attr s "k" (Json.Int 1);
  Span.finish Span.null ~attrs:[ ("k2", Json.Int 2) ] s;
  Alcotest.(check bool) "dummy span accumulates nothing" true (s.Span.attrs = [])

let test_span_jsonl_roundtrip () =
  let now = ref 0.25 in
  let sink, collected = Span.memory_sink () in
  let tr = Span.tracer ~sink ~clock:(fun () -> !now) () in
  let root = Span.start tr "request" in
  let child = Span.start tr ~parent:root ~attrs:[ ("device", Json.Int 3) ] "device" in
  now := 0.75;
  Span.finish tr ~attrs:[ ("queue_s", Json.Float 0.125) ] child;
  Span.finish tr root;
  List.iter
    (fun (s : Span.t) ->
      let line = Json.to_string (Export.span_to_json s) in
      match Result.bind (Json.of_string line) Export.span_of_json with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check bool) "record equals original" true
            (r = Export.record_of_span s))
    (collected ())

let test_metrics_jsonl_parses () =
  let reg = Metric.create () in
  let dropped = Metric.counter reg ~labels:[ ("stage", "uplink") ] "requests_dropped" in
  for _ = 1 to 7 do
    Metric.inc dropped
  done;
  Metric.set (Metric.gauge reg "dsr") 0.875;
  let h = Metric.histogram reg "request_latency_s" in
  List.iter (Histogram.observe h) [ 0.010; 0.020; 0.040 ];
  let path = Filename.temp_file "es_obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.with_file path (fun oc -> Export.metrics_to_jsonl oc reg);
      match Export.read_jsonl path with
      | Error e -> Alcotest.fail e
      | Ok lines ->
          Alcotest.(check int) "one line per instrument" 3 (List.length lines);
          let histo =
            List.find
              (fun j -> Json.member "name" j = Some (Json.String "request_latency_s"))
              lines
          in
          Alcotest.(check (option int)) "histogram count exported" (Some 3)
            (Option.bind (Json.member "count" histo) Json.to_int_opt);
          Alcotest.(check bool) "buckets exported" true
            (match Json.member "buckets" histo with
            | Some (Json.List (_ :: _)) -> true
            | _ -> false))

(* ---------- End-to-end: instrumented simulation ---------- *)

let test_runner_spans_tile_latency () =
  let spec =
    Es_edge.Scenario.with_n_devices 6 (Es_workload.Scenarios.by_name "default")
  in
  let cluster = Es_edge.Scenario.build spec in
  let decisions = (Es_joint.Optimizer.solve cluster).Es_joint.Optimizer.decisions in
  let reg = Metric.create () in
  let sink, collected = Span.memory_sink () in
  (* Long enough that the tail order statistics are dense: the report's
     interpolated p99 then sits within one bucket of the histogram's. *)
  let options = { Es_sim.Runner.default_options with duration_s = 40.0; warmup_s = 5.0 } in
  let report = Es_sim.Runner.run ~options ~metrics:reg ~spans:sink cluster decisions in
  let spans = collected () in
  let roots =
    List.filter
      (fun (s : Span.t) ->
        s.Span.name = "request" && Span.attr s "outcome" = Some (Json.String "completed"))
      spans
  in
  Alcotest.(check bool) "some requests completed" true (roots <> []);
  (* Acceptance property: each completed request's child segments tile its
     end-to-end latency exactly. *)
  List.iter
    (fun (root : Span.t) ->
      let children =
        List.filter (fun (s : Span.t) -> s.Span.parent = Some root.Span.id) spans
      in
      let total = List.fold_left (fun acc s -> acc +. Span.duration_s s) 0.0 children in
      Alcotest.(check (float 1e-9)) "segments sum to root latency" (Span.duration_s root) total)
    roots;
  (* Histogram quantiles agree with the pooled report quantiles.  The
     report interpolates between adjacent order statistics while the
     histogram resolves to one bucket, so the agreed tolerance is one
     bucket width plus the interpolation gap at that rank — both
     recoverable from the root spans, whose durations are exactly the
     latencies the collector pooled. *)
  let latencies =
    (* The collector pools requests that *arrived* inside the measurement
       window; a root span's start time is the arrival time. *)
    List.filter
      (fun (s : Span.t) ->
        s.Span.start_s >= options.Es_sim.Runner.warmup_s
        && s.Span.start_s <= options.Es_sim.Runner.duration_s)
      roots
    |> List.map Span.duration_s |> Array.of_list
    |> fun a ->
    Array.sort compare a;
    a
  in
  match Metric.find reg "request_latency_s" with
  | Some (Metric.Histo h) ->
      Alcotest.(check int) "histogram counts the report's completions"
        report.Es_sim.Metrics.total_completed (Histogram.count h);
      Alcotest.(check int) "root spans are the pooled sample"
        report.Es_sim.Metrics.total_completed (Array.length latencies);
      List.iter
        (fun (p, reported) ->
          let n = Array.length latencies in
          let rank = p /. 100.0 *. float_of_int (n - 1) in
          let lo = latencies.(int_of_float (Float.floor rank)) in
          let hi = latencies.(min (int_of_float (Float.floor rank) + 1) (n - 1)) in
          let tol = Histogram.bucket_width_at reported +. (hi -. lo) +. 1e-12 in
          Alcotest.(check bool)
            (Printf.sprintf "p%.0f within one bucket + interpolation gap" p)
            true
            (Float.abs (Histogram.quantile h p -. reported) <= tol))
        [
          (50.0, report.Es_sim.Metrics.p50_s);
          (95.0, report.Es_sim.Metrics.p95_s);
          (99.0, report.Es_sim.Metrics.p99_s);
        ]
  | _ -> Alcotest.fail "request_latency_s histogram not registered"

let test_runner_report_gauges_recorded () =
  let spec =
    Es_edge.Scenario.with_n_devices 4 (Es_workload.Scenarios.by_name "default")
  in
  let cluster = Es_edge.Scenario.build spec in
  let decisions = (Es_joint.Optimizer.solve cluster).Es_joint.Optimizer.decisions in
  let reg = Metric.create () in
  let options = { Es_sim.Runner.default_options with duration_s = 8.0; warmup_s = 1.0 } in
  let report = Es_sim.Runner.run ~options ~metrics:reg cluster decisions in
  (match Metric.find reg "report/dsr" with
  | Some (Metric.Gauge v) ->
      Alcotest.(check (float 1e-12)) "report/dsr mirrors the report" report.Es_sim.Metrics.dsr v
  | _ -> Alcotest.fail "report/dsr gauge missing");
  Array.iteri
    (fun s u ->
      match find_labelled reg [ ("server", string_of_int s) ] "report/server_utilization" with
      | Some (Metric.Gauge v) -> Alcotest.(check (float 1e-12)) "per-server utilization" u v
      | _ -> Alcotest.fail "per-server utilization gauge missing")
    report.Es_sim.Metrics.server_utilization

(* The exact bytes an instrumented run exports — report, metric samples and
   every span — pinned by digest, so a runner refactor that keeps outputs
   identical keeps these values.  Run (a) crosses scripted server-down,
   link-outage and straggler faults under resilience with all four overload
   mechanisms armed; run (b) batches, fades, jitters, bounds queues and
   reconfigures mid-run with the local fallback off.  Between them every
   outcome occurs. *)
let test_runner_telemetry_pinned () =
  let module R = Es_sim.Runner in
  let module M = Es_sim.Metrics in
  let digest j = Digest.to_hex (Digest.string (Json.to_string j)) in
  let instrumented ?reconfigure options cluster decisions =
    let reg = Metric.create () in
    let sink, collected = Span.memory_sink () in
    let report = R.run ~options ~metrics:reg ~spans:sink ?reconfigure cluster decisions in
    let samples = Json.List (List.map Export.sample_to_json (Metric.snapshot reg)) in
    let spans = Json.List (List.map Export.span_to_json (collected ())) in
    (report, [ digest (M.report_to_json report); digest samples; digest spans ])
  in
  let cluster = Es_edge.Scenario.build (Es_workload.Scenarios.by_name "default") in
  let decisions = (Es_joint.Optimizer.solve cluster).Es_joint.Optimizer.decisions in
  let server = (Array.get decisions 0).Es_edge.Decision.server in
  let faults =
    Es_sim.Faults.scripted
      (Es_sim.Faults.crash ~at:3.0 ~for_s:3.0 server
      @ Es_sim.Faults.outage ~at:4.0 ~for_s:2.0 1
      @ Es_sim.Faults.straggle ~at:5.0 ~for_s:3.0 ~factor:4.0 ((server + 1) mod 2))
  in
  let overload =
    let module O = Es_sim.Overload in
    { O.admission = Some O.default_admission; breaker = Some O.default_breaker;
      brownout = Some O.default_brownout; rate_limit = Some O.default_rate_limit }
  in
  let busy = Es_joint.Online.scale_rates cluster 3.0 in
  let short = { R.default_options with duration_s = 10.0; warmup_s = 1.0 } in
  let ra, da =
    instrumented
      { short with faults; resilience = Some R.default_resilience; overload }
      busy decisions
  in
  let rb, db =
    instrumented
      ~reconfigure:[ (5.0, (Es_joint.Optimizer.solve busy).Es_joint.Optimizer.decisions) ]
      { short with
        batching = Some { R.max_batch = 4; window_s = 0.005; alpha = 0.7 };
        fading = true; compute_jitter = 0.3; queue_capacity = Some 3;
        resilience =
          Some { R.default_resilience with timeout_factor = 0.5; local_fallback = false } }
      busy decisions
  in
  List.iter
    (fun (what, n) -> Alcotest.(check bool) (what ^ " occurs") true (n > 0))
    [ ("completed", ra.M.total_completed + rb.M.total_completed);
      ("degraded", ra.M.total_degraded + rb.M.total_degraded);
      ("dropped", ra.M.total_dropped + rb.M.total_dropped);
      ("timed out", ra.M.total_timed_out + rb.M.total_timed_out);
      ("shed", ra.M.total_shed + rb.M.total_shed) ];
  Alcotest.(check (list string)) "run (a): report, metric samples, spans"
    [ "91ca2d84bb93d29493cf697d20d280b3"; "026692a2670882e71f4f5489802f0c4a";
      "67eb6359702d8473e8606cdbbcbcc619" ]
    da;
  Alcotest.(check (list string)) "run (b): report, metric samples, spans"
    [ "bd763ab632b3604b70574e0a17e98a37"; "ce8b318ae6d2294e155dfb432987ff87";
      "f7fabccd9db3080cc4218d7fdbe7c84f" ]
    db

let test_optimizer_emits_iteration_telemetry () =
  let spec =
    Es_edge.Scenario.with_n_devices 4 (Es_workload.Scenarios.by_name "default")
  in
  let cluster = Es_edge.Scenario.build spec in
  let reg = Metric.create () in
  let sink, collected = Span.memory_sink () in
  let out = Es_joint.Optimizer.solve ~metrics:reg ~spans:sink cluster in
  (match Metric.find reg "optimizer/iterations" with
  | Some (Metric.Counter n) ->
      Alcotest.(check bool) "counted at least the primary run's iterations" true
        (n >= out.Es_joint.Optimizer.iterations)
  | _ -> Alcotest.fail "optimizer/iterations counter missing");
  let iters =
    List.filter (fun (s : Span.t) -> s.Span.name = "optimizer/iteration") (collected ())
  in
  Alcotest.(check bool) "iteration spans emitted" true (iters <> []);
  List.iter
    (fun (s : Span.t) ->
      match Span.attr s "objective" with
      | Some (Json.Float _) -> ()
      | _ -> Alcotest.fail "iteration span lacks objective attr")
    iters

let () =
  Alcotest.run "es_obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "nonfinite floats" `Quick test_json_nonfinite_floats;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "underflow/overflow" `Quick test_histogram_underflow_overflow;
          histogram_quantile_monotone;
          histogram_quantile_near_exact;
          histogram_merge_count_preserved;
          histogram_merge_quantiles_bounded;
        ] );
      ( "metric",
        [ Alcotest.test_case "registry" `Quick test_metric_registry ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "null tracer" `Quick test_null_tracer_is_inert;
          Alcotest.test_case "jsonl roundtrip" `Quick test_span_jsonl_roundtrip;
          Alcotest.test_case "metrics jsonl" `Quick test_metrics_jsonl_parses;
        ] );
      ( "integration",
        [
          Alcotest.test_case "spans tile latency" `Quick test_runner_spans_tile_latency;
          Alcotest.test_case "report gauges" `Quick test_runner_report_gauges_recorded;
          Alcotest.test_case "runner telemetry pinned" `Quick test_runner_telemetry_pinned;
          Alcotest.test_case "optimizer telemetry" `Quick test_optimizer_emits_iteration_telemetry;
        ] );
    ]
