open Es_edge
open Es_workload

let cluster = lazy (Scenario.build Scenario.default)

(* ---------- Profiles ---------- *)

let test_constant () =
  Alcotest.(check (float 0.0)) "constant" 2.5 (Profiles.constant 2.5 17.0)

let test_step_burst () =
  let p = Profiles.step_burst ~start_s:10.0 ~stop_s:20.0 ~factor:4.0 in
  Alcotest.(check (float 0.0)) "before" 1.0 (p 5.0);
  Alcotest.(check (float 0.0)) "inside" 4.0 (p 15.0);
  Alcotest.(check (float 0.0)) "at start (inclusive)" 4.0 (p 10.0);
  Alcotest.(check (float 0.0)) "after" 1.0 (p 20.0)

let test_diurnal () =
  let p = Profiles.diurnal ~period_s:100.0 ~amplitude:0.5 in
  Alcotest.(check (float 1e-9)) "at zero" 1.0 (p 0.0);
  Alcotest.(check (float 1e-9)) "quarter period is the crest" 1.5 (p 25.0);
  Alcotest.(check bool) "floored" true (Profiles.diurnal ~period_s:100.0 ~amplitude:5.0 75.0 >= 0.05)

(* ---------- Traces ---------- *)

let test_poisson_sorted_and_in_range () =
  let c = Lazy.force cluster in
  let tr = Heavy.trace ~seed:1 ~duration_s:30.0 ~profile:(Profiles.constant 1.0) c in
  Alcotest.(check bool) "non-empty" true (Array.length tr > 0);
  Array.iteri
    (fun i (t, d) ->
      if i > 0 then Alcotest.(check bool) "sorted" true (fst tr.(i - 1) <= t);
      Alcotest.(check bool) "device valid" true (d >= 0 && d < Cluster.n_devices c);
      Alcotest.(check bool) "time valid" true (t >= 0.0 && t < 30.0))
    tr

let test_poisson_rate_matches () =
  let c = Lazy.force cluster in
  let duration = 400.0 in
  let tr = Heavy.trace ~seed:2 ~duration_s:duration ~profile:(Profiles.constant 1.0) c in
  let expected =
    Array.fold_left (fun acc (d : Cluster.device) -> acc +. d.Cluster.rate) 0.0 c.Cluster.devices
    *. duration
  in
  let got = float_of_int (Array.length tr) in
  Alcotest.(check bool)
    (Printf.sprintf "count %.0f within 10%% of %.0f" got expected)
    true
    (Float.abs (got -. expected) /. expected < 0.10)

let test_poisson_deterministic () =
  let c = Lazy.force cluster in
  let a = Heavy.trace ~seed:3 ~duration_s:10.0 ~profile:(Profiles.constant 1.0) c in
  let b = Heavy.trace ~seed:3 ~duration_s:10.0 ~profile:(Profiles.constant 1.0) c in
  Alcotest.(check int) "same length" (Array.length a) (Array.length b);
  Array.iteri (fun i (t, d) -> Alcotest.(check bool) "same events" true (b.(i) = (t, d))) a

let test_piecewise_burst_density () =
  let c = Lazy.force cluster in
  let profile = Profiles.step_burst ~start_s:50.0 ~stop_s:100.0 ~factor:5.0 in
  let tr = Heavy.trace ~seed:4 ~duration_s:150.0 ~profile c in
  let count lo hi =
    Array.fold_left (fun acc (t, _) -> if t >= lo && t < hi then acc + 1 else acc) 0 tr
  in
  let before = count 0.0 50.0 and during = count 50.0 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "burst density %d >> baseline %d" during before)
    true
    (float_of_int during > 3.0 *. float_of_int before)

(* Heavy.trace generates into flat arrays; the list-based generator is the
   reference it must match draw for draw, under a constant and a bursty
   profile and across seeds. *)
let test_heavy_trace_matches_reference () =
  let c = Lazy.force cluster in
  List.iter
    (fun (seed, profile) ->
      let want = Es_oracle.Traces.piecewise ~seed ~duration_s:60.0 ~rate_profile:profile c in
      let got = Heavy.trace ~seed ~duration_s:60.0 ~profile c in
      Alcotest.(check int) "same length" (Array.length want) (Array.length got);
      Array.iteri
        (fun i (t, d) ->
          let t', d' = got.(i) in
          if Int64.bits_of_float t <> Int64.bits_of_float t' || d <> d' then
            Alcotest.failf "seed %d event %d: (%h, %d) vs (%h, %d)" seed i t d t' d')
        want)
    [
      (1, Profiles.constant 1.0);
      (9, Profiles.step_burst ~start_s:20.0 ~stop_s:40.0 ~factor:5.0);
      (42, Profiles.diurnal ~period_s:60.0 ~amplitude:0.6);
    ]

let test_merge () =
  let a = [| (1.0, 0); (3.0, 0) |] and b = [| (2.0, 1); (4.0, 1) |] in
  let m = Traces.merge [ a; b ] in
  Alcotest.(check int) "all events" 4 (Array.length m);
  Array.iteri (fun i (t, _) -> if i > 0 then Alcotest.(check bool) "sorted" true (fst m.(i - 1) <= t)) m

let test_csv_roundtrip () =
  let c = Lazy.force cluster in
  let tr = Heavy.trace ~seed:5 ~duration_s:10.0 ~profile:(Profiles.constant 1.0) c in
  let path = Filename.temp_file "es_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Traces.save_csv tr ~path;
      match Traces.load_csv ~path with
      | Error e -> Alcotest.fail e
      | Ok tr' ->
          Alcotest.(check int) "same length" (Array.length tr) (Array.length tr');
          Array.iteri
            (fun i (t, d) ->
              let t', d' = tr'.(i) in
              Alcotest.(check int) "same device" d d';
              Alcotest.(check (float 1e-6)) "same time" t t')
            tr)

let test_csv_rejects_garbage () =
  let path = Filename.temp_file "es_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun (row, error) ->
          let oc = open_out path in
          output_string oc ("time_s,device\n1.0,0\n" ^ row ^ "\n");
          close_out oc;
          Alcotest.(check (result reject string)) row (Error error) (Traces.load_csv ~path))
        [
          ("banana", "line 3: expected time,device");
          ("inf,0", "line 3: bad event \"inf,0\"");
          ("infinity,1", "line 3: bad event \"infinity,1\"");
          ("-inf,0", "line 3: bad event \"-inf,0\"");
          ("nan,0", "line 3: bad event \"nan,0\"");
        ]);
  match Traces.load_csv ~path:"/nonexistent/trace.csv" with
  | Ok _ -> Alcotest.fail "accepted missing file"
  | Error _ -> ()

(* ---------- Scenarios ---------- *)

let test_named_scenarios_build () =
  List.iter
    (fun n ->
      let c = Scenario.build (Scenarios.by_name n) in
      Alcotest.(check bool) (n ^ " has devices") true (Cluster.n_devices c > 0);
      Alcotest.(check bool) (n ^ " has servers") true (Cluster.n_servers c > 0))
    Scenarios.names;
  Alcotest.check_raises "unknown scenario" Not_found (fun () ->
      ignore (Scenarios.by_name "moon_base"))

let test_scenarios_distinct () =
  let ar = Scenario.build Scenarios.ar_assistant in
  let sc = Scenario.build Scenarios.smart_city in
  (* AR: tight deadlines; smart city: relaxed. *)
  let max_deadline c =
    Array.fold_left (fun acc (d : Cluster.device) -> Float.max acc d.Cluster.deadline) 0.0
      c.Cluster.devices
  in
  Alcotest.(check bool) "ar deadlines tighter" true (max_deadline ar < 0.15);
  Alcotest.(check bool) "smart-city deadlines looser" true (max_deadline sc > 0.15)

let () =
  Alcotest.run "es_workload"
    [
      ( "profiles",
        [
          Alcotest.test_case "constant" `Quick test_constant;
          Alcotest.test_case "step burst" `Quick test_step_burst;
          Alcotest.test_case "diurnal" `Quick test_diurnal;
        ] );
      ( "traces",
        [
          Alcotest.test_case "sorted & in range" `Quick test_poisson_sorted_and_in_range;
          Alcotest.test_case "rate matches" `Quick test_poisson_rate_matches;
          Alcotest.test_case "deterministic" `Quick test_poisson_deterministic;
          Alcotest.test_case "burst density" `Quick test_piecewise_burst_density;
          Alcotest.test_case "heavy trace matches the reference" `Quick
            test_heavy_trace_matches_reference;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "csv round-trip" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv rejects garbage" `Quick test_csv_rejects_garbage;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "named build" `Quick test_named_scenarios_build;
          Alcotest.test_case "distinct" `Quick test_scenarios_distinct;
        ] );
    ]
