open Es_dnn
open Es_surgery
open Es_edge

let resnet18 = Zoo.resnet18 ()

(* ---------- Engine ---------- *)

let test_engine_ordering () =
  let e = Es_sim.Engine.create () in
  let log = ref [] in
  Es_sim.Engine.schedule e 3.0 (fun () -> log := "c" :: !log);
  Es_sim.Engine.schedule e 1.0 (fun () -> log := "a" :: !log);
  Es_sim.Engine.schedule e 2.0 (fun () -> log := "b" :: !log);
  Es_sim.Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 3.0 (Es_sim.Engine.now e);
  (* A past time is clamped to the clock, so no event fires in the past. *)
  let fired_at = ref nan in
  Es_sim.Engine.schedule_at e 1.0 (fun () -> fired_at := Es_sim.Engine.now e);
  Es_sim.Engine.run e;
  Alcotest.(check (float 0.0)) "a past time is clamped to the clock" 3.0 !fired_at

let test_engine_same_time_fifo () =
  let e = Es_sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Es_sim.Engine.schedule e 1.0 (fun () -> log := i :: !log)
  done;
  Es_sim.Engine.run e;
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Es_sim.Engine.create () in
  let times = ref [] in
  Es_sim.Engine.schedule e 1.0 (fun () ->
      times := Es_sim.Engine.now e :: !times;
      Es_sim.Engine.schedule e 0.5 (fun () -> times := Es_sim.Engine.now e :: !times));
  Es_sim.Engine.run e;
  Alcotest.(check (list (float 1e-12))) "nested event at 1.5" [ 1.0; 1.5 ] (List.rev !times);
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Es_sim.Engine.schedule e (-1.0) (fun () -> ()))

(* The engine must process a callback program exactly like the binary-heap
   reference loop: same callback order (including ties, events scheduled
   from inside a pop at the current instant — the runner's
   fault-before-reconfiguration ordering relies on this — and past times
   clamped by [schedule_at], also after a drain), same clock trajectory,
   same stats. *)
let engine_program ~now ~schedule ~schedule_at ~run =
  let log = ref [] in
  let note tag = log := (tag, now ()) :: !log in
  for i = 1 to 5 do
    schedule 1.0 (fun () ->
        note i;
        (* schedule-during-pop: a same-instant event joins the tie run
           being drained, a past time clamps to the clock, and a far-future
           jump stresses the calendar's direct-search fallback *)
        schedule 0.0 (fun () -> note (10 + i));
        schedule_at 0.5 (fun () -> note (20 + i));
        if i = 3 then schedule 1e6 (fun () -> note 99))
  done;
  schedule_at 2.0 (fun () -> note 30);
  run ();
  note 40;
  schedule_at 0.5 (fun () -> note 50);
  schedule 1.0 (fun () -> note 60);
  run ();
  List.rev !log

let test_engine_backends_equivalent () =
  let module E = Es_sim.Engine in
  let module H = Es_oracle.Heap_engine in
  let e = E.create () and h = H.create () in
  let log_e =
    engine_program ~now:(fun () -> E.now e) ~schedule:(E.schedule e)
      ~schedule_at:(E.schedule_at e) ~run:(fun () -> E.run e)
  and log_h =
    engine_program ~now:(fun () -> H.now h) ~schedule:(H.schedule h)
      ~schedule_at:(H.schedule_at h) ~run:(fun () -> H.run h)
  in
  let st = E.stats e in
  Alcotest.(check bool) "same event log" true (log_e = log_h);
  Alcotest.(check int) "same event count" h.H.events_processed st.E.events_processed;
  Alcotest.(check int) "same max pending" h.H.max_pending st.E.max_pending;
  Alcotest.(check int) "both drained" (H.pending h) st.E.pending

let test_engine_stats () =
  let e = Es_sim.Engine.create () in
  let st0 = Es_sim.Engine.stats e in
  Alcotest.(check int) "no events yet" 0 st0.Es_sim.Engine.events_processed;
  Alcotest.(check int) "nothing pending" 0 st0.Es_sim.Engine.pending;
  for i = 1 to 3 do
    Es_sim.Engine.schedule e (float_of_int i) (fun () -> ())
  done;
  let st1 = Es_sim.Engine.stats e in
  Alcotest.(check int) "pending counts pushes" 3 st1.Es_sim.Engine.pending;
  Alcotest.(check int) "max_pending high-water" 3 st1.Es_sim.Engine.max_pending;
  Es_sim.Engine.run e;
  let st2 = Es_sim.Engine.stats e in
  Alcotest.(check int) "all processed" 3 st2.Es_sim.Engine.events_processed;
  Alcotest.(check int) "drained" 0 st2.Es_sim.Engine.pending;
  Alcotest.(check int) "high-water sticks" 3 st2.Es_sim.Engine.max_pending

(* Data events and closure events share one sequence counter: at one
   instant they fire in posting order, whatever their kind. *)
let test_engine_data_events () =
  let module E = Es_sim.Engine in
  let e = E.create () in
  let log = ref [] in
  E.schedule e 1.0 (fun () -> log := "closure a" :: !log);
  E.post e 1.0 7;
  E.schedule_at e 1.0 (fun () -> log := "closure b" :: !log);
  E.post_at e 0.5 3;
  E.post e 1.0 (max_int lsr 1);
  let handle ev =
    log := Printf.sprintf "data %d at %g" ev (E.now e) :: !log;
    if ev = 3 then E.post e 0.5 9
  in
  E.run ~handle e;
  Alcotest.(check (list string)) "one tie order"
    [ "data 3 at 0.5"; "closure a"; "data 7 at 1"; "closure b";
      Printf.sprintf "data %d at 1" (max_int lsr 1); "data 9 at 1" ]
    (List.rev !log);
  Alcotest.(check int) "every event counted" 6 (E.stats e).E.events_processed;
  Alcotest.check_raises "negative event" (Invalid_argument "Engine.post: event out of range")
    (fun () -> E.post e 1.0 (-1));
  Alcotest.check_raises "oversized event" (Invalid_argument "Engine.post: event out of range")
    (fun () -> E.post e 1.0 ((max_int lsr 1) + 1));
  E.post e 1.0 0;
  Alcotest.check_raises "data event without a handler"
    (Invalid_argument "Engine.run: a data event needs a handler") (fun () -> E.run e)

(* ---------- Station ---------- *)

(* The handler of a one-station program: [on_done tag] at each completion. *)
let station_handler st on_done ev =
  let tag = Es_sim.Station.finish st ev in
  if tag >= 0 then begin
    on_done tag;
    Es_sim.Station.start_next st
  end

let test_station_fifo_service () =
  let e = Es_sim.Engine.create () in
  let st = Es_sim.Station.create e ~event:0 ~speed:2.0 () in
  let finish = ref [] in
  (* Two jobs of 4 units at speed 2: first done at t=2, second at t=4. *)
  ignore (Es_sim.Station.submit st ~tag:0 ~work:4.0);
  ignore (Es_sim.Station.submit st ~tag:1 ~work:4.0);
  Es_sim.Engine.run e
    ~handle:(station_handler st (fun tag -> finish := (tag, Es_sim.Engine.now e) :: !finish));
  Alcotest.(check (list (pair int (float 1e-12)))) "sequential service"
    [ (0, 2.0); (1, 4.0) ] (List.rev !finish);
  Alcotest.(check (float 1e-12)) "busy time" 4.0 (Es_sim.Station.busy_time st);
  Alcotest.(check int) "completed" 2 (Es_sim.Station.completed st)

let test_station_capacity_drops () =
  let e = Es_sim.Engine.create () in
  let st = Es_sim.Station.create e ~capacity:2 ~event:0 ~speed:1.0 () in
  let accepted = ref 0 in
  for tag = 1 to 5 do
    if Es_sim.Station.submit st ~tag ~work:1.0 then incr accepted
  done;
  Alcotest.(check int) "capacity bounds admission" 2 !accepted;
  Alcotest.(check int) "drops counted" 3 (Es_sim.Station.dropped st);
  Es_sim.Engine.run e ~handle:(station_handler st ignore)

let test_station_speed_change () =
  let e = Es_sim.Engine.create () in
  let st = Es_sim.Station.create e ~event:0 ~speed:1.0 () in
  let finish = ref 0.0 in
  ignore (Es_sim.Station.submit st ~tag:0 ~work:1.0);
  (* Queued job starts after the first completes; speed doubles meanwhile. *)
  ignore (Es_sim.Station.submit st ~tag:1 ~work:1.0);
  Es_sim.Engine.schedule e 0.5 (fun () -> Es_sim.Station.set_speed st 2.0);
  Es_sim.Engine.run e
    ~handle:(station_handler st (fun tag -> if tag = 1 then finish := Es_sim.Engine.now e));
  Alcotest.(check (float 1e-12)) "second job served at the new speed" 1.5 !finish

let test_station_zero_work () =
  let e = Es_sim.Engine.create () in
  let st = Es_sim.Station.create e ~event:0 ~speed:1.0 () in
  let done_ = ref false in
  ignore (Es_sim.Station.submit st ~tag:0 ~work:0.0);
  Es_sim.Engine.run e ~handle:(station_handler st (fun _ -> done_ := true));
  Alcotest.(check bool) "zero work completes" true !done_

(* A flush evicts the job in service and the queue; the evicted job's
   completion event still fires, and is recognised as stale by its
   epoch, even when a resubmitted job is in service by then. *)
let test_station_flush_stale () =
  let e = Es_sim.Engine.create () in
  let st = Es_sim.Station.create e ~event:5 ~speed:1.0 () in
  let done_ = ref [] and evicted = ref [||] and stale = ref 0 in
  ignore (Es_sim.Station.submit st ~tag:0 ~work:4.0);
  ignore (Es_sim.Station.submit st ~tag:1 ~work:1.0);
  Es_sim.Engine.schedule e 1.0 (fun () ->
      evicted := Es_sim.Station.flush st;
      Alcotest.(check int) "empty after flush" 0 (Es_sim.Station.queue_length st);
      ignore (Es_sim.Station.submit st ~tag:2 ~work:5.0));
  let handle ev =
    Alcotest.(check int) "the station's event" 5 (ev land 0xffff_ffff);
    let tag = Es_sim.Station.finish st ev in
    if tag < 0 then incr stale
    else begin
      Alcotest.(check int) "job counts in the queue while handled" 1
        (Es_sim.Station.queue_length st);
      done_ := (tag, Es_sim.Engine.now e) :: !done_;
      Es_sim.Station.start_next st
    end
  in
  Es_sim.Engine.run e ~handle;
  Alcotest.(check (array int)) "in service first, then FIFO" [| 0; 1 |] !evicted;
  Alcotest.(check int) "the evicted job's event is stale" 1 !stale;
  Alcotest.(check (list (pair int (float 1e-12)))) "only the resubmitted job completes"
    [ (2, 6.0) ] !done_;
  Alcotest.(check (float 1e-12)) "unserved busy time refunded" 6.0
    (Es_sim.Station.busy_time st);
  Alcotest.(check int) "evictions counted" 2 (Es_sim.Station.evicted st)

let qtest ?(count = 60) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let prop_engine_time_monotone =
  qtest "events fire in nondecreasing time order"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0.0 100.0))
    (fun delays ->
      let e = Es_sim.Engine.create () in
      let last = ref neg_infinity in
      let ok = ref true in
      List.iter
        (fun d ->
          Es_sim.Engine.schedule e d (fun () ->
              if Es_sim.Engine.now e < !last then ok := false;
              last := Es_sim.Engine.now e))
        delays;
      Es_sim.Engine.run e;
      !ok)

let prop_station_busy_conserved =
  qtest "station busy time equals the sum of service times"
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range 0.01 5.0))
    (fun works ->
      let e = Es_sim.Engine.create () in
      let st = Es_sim.Station.create e ~event:0 ~speed:2.0 () in
      List.iteri (fun tag w -> ignore (Es_sim.Station.submit st ~tag ~work:w)) works;
      Es_sim.Engine.run e ~handle:(station_handler st ignore);
      let expected = List.fold_left (fun acc w -> acc +. (w /. 2.0)) 0.0 works in
      Float.abs (Es_sim.Station.busy_time st -. expected) < 1e-9
      && Es_sim.Station.completed st = List.length works)

(* ---------- Batcher ---------- *)

let batcher_handler b on_done ev =
  let k = Es_sim.Batcher.fire b ev in
  for i = 0 to k - 1 do
    on_done (Es_sim.Batcher.finished b i)
  done;
  if k > 0 then Es_sim.Batcher.resume b

let test_batcher_window_launch () =
  let e = Es_sim.Engine.create () in
  let b = Es_sim.Batcher.create e ~max_batch:8 ~window_s:0.01 ~alpha:0.5 ~event:0 ~speed:1.0 () in
  let finish = ref 0.0 in
  Es_sim.Batcher.submit b ~tag:0 ~work:0.1;
  Es_sim.Engine.run e ~handle:(batcher_handler b (fun _ -> finish := Es_sim.Engine.now e));
  (* Lone job: waits out the window, then runs at eff(1) = 1. *)
  Alcotest.(check (float 1e-9)) "window + work" 0.11 !finish;
  Alcotest.(check int) "one batch" 1 (Es_sim.Batcher.batches b)

let test_batcher_full_batch_immediate () =
  let e = Es_sim.Engine.create () in
  let b = Es_sim.Batcher.create e ~max_batch:4 ~window_s:10.0 ~alpha:0.5 ~event:0 ~speed:1.0 () in
  let finish = ref [] in
  for tag = 1 to 4 do
    Es_sim.Batcher.submit b ~tag ~work:0.1
  done;
  Es_sim.Engine.run e
    ~handle:(batcher_handler b (fun tag -> finish := (tag, Es_sim.Engine.now e) :: !finish));
  (* Full batch: no window wait; 4 x 0.1 work at eff(4) = 0.5 + 0.5/4. *)
  let expected = 0.4 *. (0.5 +. (0.5 /. 4.0)) in
  List.iter (fun (_, t) -> Alcotest.(check (float 1e-9)) "batch completion" expected t) !finish;
  Alcotest.(check (list int)) "submission order" [ 1; 2; 3; 4 ] (List.rev_map fst !finish);
  Alcotest.(check int) "all completed" 4 (Es_sim.Batcher.completed b);
  Alcotest.(check int) "single batch" 1 (Es_sim.Batcher.batches b)

let test_batcher_beats_sequential_under_load () =
  (* 16 equal jobs: batched total busy time must be well below sequential. *)
  let e = Es_sim.Engine.create () in
  let b = Es_sim.Batcher.create e ~max_batch:8 ~window_s:0.001 ~alpha:0.7 ~event:0 ~speed:1.0 () in
  let last = ref 0.0 in
  for tag = 1 to 16 do
    Es_sim.Batcher.submit b ~tag ~work:0.05
  done;
  Es_sim.Engine.run e ~handle:(batcher_handler b (fun _ -> last := Es_sim.Engine.now e));
  let sequential = 16.0 *. 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "makespan %.3f < sequential %.3f" !last sequential)
    true (!last < sequential);
  Alcotest.(check int) "two batches of 8" 2 (Es_sim.Batcher.batches b)

let test_batcher_mid_batch_arrivals_wait () =
  let e = Es_sim.Engine.create () in
  let b = Es_sim.Batcher.create e ~max_batch:2 ~window_s:0.001 ~alpha:0.0 ~event:0 ~speed:1.0 () in
  let times = ref [] in
  Es_sim.Batcher.submit b ~tag:1 ~work:1.0;
  Es_sim.Batcher.submit b ~tag:2 ~work:1.0;
  (* Arrives while the first batch is running. *)
  Es_sim.Engine.schedule e 0.5 (fun () -> Es_sim.Batcher.submit b ~tag:3 ~work:1.0);
  Es_sim.Engine.run e ~handle:(batcher_handler b (fun _ -> times := Es_sim.Engine.now e :: !times));
  match List.rev !times with
  | [ t1; t2; t3 ] ->
      Alcotest.(check (float 1e-9)) "first batch (alpha=0: no speedup)" 2.0 t1;
      Alcotest.(check (float 1e-9)) "first batch peer" 2.0 t2;
      Alcotest.(check bool) "straggler served after" true (t3 > 2.0);
      Alcotest.(check int) "two batches" 2 (Es_sim.Batcher.batches b)
  | l -> Alcotest.fail (Printf.sprintf "expected 3 completions, got %d" (List.length l))

let test_runner_batching_mode () =
  let c = Scenario.build Scenario.default in
  let ds = Es_baselines.Baselines.server_only.Es_baselines.Baselines.solve c in
  let batching = { Es_sim.Runner.max_batch = 8; window_s = 0.002; alpha = 0.7 } in
  let r =
    Es_sim.Runner.run
      ~options:{ Es_sim.Runner.default_options with batching = Some batching }
      c ds
  in
  Alcotest.(check int) "conservation holds under batching" r.Es_sim.Metrics.total_generated
    (r.Es_sim.Metrics.total_completed + r.Es_sim.Metrics.total_dropped);
  Alcotest.(check bool) "requests completed" true (r.Es_sim.Metrics.total_completed > 0)

(* ---------- Runner ---------- *)

let one_device_cluster () =
  Cluster.make
    ~devices:
      [
        Cluster.device ~id:0 ~proc:Processor.raspberry_pi ~link:Link.wifi ~model:resnet18
          ~rate:0.2 ~deadline:0.5 ();
      ]
    ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_gpu ~ap_bandwidth_mbps:200.0 () ]

let spaced_arrivals = [| (6.0, 0); (20.0, 0); (34.0, 0); (48.0, 0) |]

let test_runner_matches_analytic_when_uncontended () =
  (* Arrivals spaced far beyond the service time never overlap: simulated
     latency must equal the analytic model exactly (no fading, no jitter). *)
  let c = one_device_cluster () in
  let plan = Plan.make ~cut:(Graph.n_nodes resnet18 / 2) resnet18 in
  let d = Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:50e6 ~compute_share:0.8 () in
  let analytic = Latency.of_decision c [| d |].(0) in
  let report = Es_sim.Runner.run ~arrivals:spaced_arrivals c [| d |] in
  Alcotest.(check int) "collected samples" 4 (Array.length report.Es_sim.Metrics.latencies);
  Array.iter
    (fun l -> Alcotest.(check (float 1e-6)) "sim = analytic" analytic l)
    report.Es_sim.Metrics.latencies

let test_runner_device_only_matches_analytic () =
  let c = one_device_cluster () in
  let d = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  let analytic = Latency.of_decision c d in
  let report = Es_sim.Runner.run ~arrivals:spaced_arrivals c [| d |] in
  Array.iter
    (fun l -> Alcotest.(check (float 1e-6)) "sim = analytic" analytic l)
    report.Es_sim.Metrics.latencies

let test_runner_deterministic () =
  let c = Scenario.build Scenario.default in
  let ds = Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve c in
  let r1 = Es_sim.Runner.run c ds and r2 = Es_sim.Runner.run c ds in
  Alcotest.(check int) "same generated" r1.Es_sim.Metrics.total_generated
    r2.Es_sim.Metrics.total_generated;
  Alcotest.(check (float 1e-12)) "same mean" r1.Es_sim.Metrics.mean_latency_s
    r2.Es_sim.Metrics.mean_latency_s;
  Alcotest.(check bool) "reports structurally equal" true (r1 = r2)

let test_runner_conservation () =
  let c = Scenario.build Scenario.default in
  let ds = Es_baselines.Baselines.server_only.Es_baselines.Baselines.solve c in
  let r = Es_sim.Runner.run c ds in
  Alcotest.(check int) "every generated request completes or drops"
    r.Es_sim.Metrics.total_generated
    (r.Es_sim.Metrics.total_completed + r.Es_sim.Metrics.total_dropped);
  Alcotest.(check bool) "dsr within [0,1]" true
    (r.Es_sim.Metrics.dsr >= 0.0 && r.Es_sim.Metrics.dsr <= 1.0);
  Array.iter
    (fun u -> Alcotest.(check bool) "utilization sane" true (u >= 0.0 && u <= 1.05))
    r.Es_sim.Metrics.server_utilization

let test_runner_queueing_appears_under_load () =
  (* One busy device: at 80% load the queueing delay must push the mean
     above the uncontended service time. *)
  let c =
    Cluster.make
      ~devices:
        [
          Cluster.device ~id:0 ~proc:Processor.raspberry_pi ~link:Link.wifi ~model:resnet18
            ~rate:4.0 ~deadline:1.0 ();
        ]
      ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_gpu ~ap_bandwidth_mbps:200.0 () ]
  in
  let plan = Plan.server_only resnet18 in
  let d = Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:30e6 ~compute_share:1.0 () in
  let service = Latency.of_decision c d in
  let r =
    Es_sim.Runner.run ~options:{ Es_sim.Runner.default_options with duration_s = 200.0 } c [| d |]
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1fms > service %.1fms" (1000. *. r.Es_sim.Metrics.mean_latency_s)
       (1000. *. service))
    true
    (r.Es_sim.Metrics.mean_latency_s > service *. 1.05)

let test_runner_golden_bit_identity () =
  (* Fault-free regression pin: the exact report the pre-fault simulator
     produced for Neurosurgeon on the default scenario (duration 60, seed 7).
     Equality is at zero tolerance — any change to the event stream, RNG
     draw order, or float arithmetic on the no-faults path shows up here. *)
  let c = Scenario.build Scenario.default in
  let ds = Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve c in
  let r = Es_sim.Runner.run c ds in
  Alcotest.(check int) "generated" 1636 r.Es_sim.Metrics.total_generated;
  Alcotest.(check int) "completed" 1636 r.Es_sim.Metrics.total_completed;
  Alcotest.(check int) "dropped" 0 r.Es_sim.Metrics.total_dropped;
  Alcotest.(check int) "degraded" 0 r.Es_sim.Metrics.total_degraded;
  Alcotest.(check int) "timed out" 0 r.Es_sim.Metrics.total_timed_out;
  Alcotest.(check (float 0.0)) "dsr" 0.9193154034229829 r.Es_sim.Metrics.dsr;
  Alcotest.(check (float 0.0)) "mean" 0.11612828338427551 r.Es_sim.Metrics.mean_latency_s;
  Alcotest.(check (float 0.0)) "p99" 0.40194546086112665 r.Es_sim.Metrics.p99_s

let test_runner_queue_capacity_drops () =
  let c =
    Cluster.make
      ~devices:
        [
          Cluster.device ~id:0 ~proc:Processor.iot_board ~link:Link.wifi ~model:resnet18
            ~rate:20.0 ~deadline:0.2 ();
        ]
      ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_cpu ~ap_bandwidth_mbps:50.0 () ]
  in
  (* Device-only full resnet18 on an IoT board at 20 req/s: hopeless. *)
  let d = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  let r =
    Es_sim.Runner.run
      ~options:
        { Es_sim.Runner.default_options with duration_s = 20.0; queue_capacity = Some 5 }
      c [| d |]
  in
  Alcotest.(check bool) "overload drops requests" true (r.Es_sim.Metrics.total_dropped > 0);
  (* Exact accounting: every generated request is either completed or
     dropped — capacity rejections must not leak out of the ledger. *)
  Alcotest.(check int) "drop accounting is exact" r.Es_sim.Metrics.total_generated
    (r.Es_sim.Metrics.total_completed + r.Es_sim.Metrics.total_dropped);
  let per = r.Es_sim.Metrics.per_device.(0) in
  Alcotest.(check int) "per-device ledger matches totals" per.Es_sim.Metrics.generated
    (per.Es_sim.Metrics.completed + per.Es_sim.Metrics.dropped)

let test_runner_fading_slows_transfers () =
  let c = one_device_cluster () in
  let plan = Plan.server_only resnet18 in
  let d = Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:50e6 ~compute_share:0.9 () in
  let base = Es_sim.Runner.run c [| d |] in
  let faded =
    Es_sim.Runner.run ~options:{ Es_sim.Runner.default_options with fading = true } c [| d |]
  in
  Alcotest.(check bool) "fading increases mean latency" true
    (faded.Es_sim.Metrics.mean_latency_s > base.Es_sim.Metrics.mean_latency_s)

let test_runner_explicit_arrivals () =
  let c = one_device_cluster () in
  let d = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  let arrivals = [| (6.0, 0); (7.0, 0); (8.0, 0) |] in
  let r = Es_sim.Runner.run ~arrivals c [| d |] in
  Alcotest.(check int) "exactly the trace" 3 r.Es_sim.Metrics.total_generated

let test_runner_rejects_bad_trace_times () =
  (* Rejected like a bad device id: a NaN time would be skipped silently and
     a negative one served at t = 0 without being counted. *)
  let c = one_device_cluster () in
  let d = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  List.iter
    (fun t ->
      match Es_sim.Runner.run ~arrivals:[| (t, 0); (1.0, 0) |] c [| d |] with
      | _ -> Alcotest.failf "trace time %g accepted" t
      | exception Invalid_argument _ -> ())
    [ nan; -5.0; neg_infinity ]

let test_runner_rejects_unsorted_trace () =
  (* The runner reads the trace with a cursor, one arrival posting the
     next, so an out-of-order entry is refused before any event. *)
  let c = one_device_cluster () in
  let d = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Runner.run: trace not sorted by time (entry 2 at 6 after 8)") (fun () ->
      ignore (Es_sim.Runner.run ~arrivals:[| (6.0, 0); (8.0, 0); (6.0, 0) |] c [| d |]));
  let r = Es_sim.Runner.run ~arrivals:[| (6.0, 0); (6.0, 0); (8.0, 0) |] c [| d |] in
  Alcotest.(check int) "equal times are sorted" 3 r.Es_sim.Metrics.total_generated

(* Same-instant events fire faults first, then reconfigurations, then
   trace arrivals, then whatever the run itself posted.  Each case below
   puts an arrival on the same instant as one of the others, with an
   outcome that the opposite order would change. *)
let test_runner_same_instant_order () =
  let c = one_device_cluster () in
  let dev = c.Cluster.devices.(0) and srv = c.Cluster.servers.(0) in
  let plan = Plan.server_only resnet18 and bw = 50e6 in
  (* An arrival at the crash instant, under admission control: the crash
     evicts the job in service at the server first, so the arrival's
     completion estimate sees an empty server and it is admitted (and
     then dropped at the downed server).  Served before the crash, it
     would see that job's remaining 0.5 s and be shed. *)
  let server_s = 1.0 in
  let d =
    Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:bw
      ~compute_share:(Plan.server_time srv.Cluster.sproc.Processor.perf plan /. server_s) ()
  in
  let prop = dev.Cluster.link.Link.rtt_s /. 2.0 in
  let reach =
    Plan.device_time dev.Cluster.proc.Processor.perf plan
    +. (8.0 *. Plan.transfer_bytes plan /. bw)
    +. prop
  in
  let tail = server_s +. (8.0 *. Plan.result_bytes plan /. bw) +. prop in
  Alcotest.(check bool) "the server job outlasts the trip to it" true (reach < 0.25);
  let threshold = reach +. tail +. ((0.5 -. reach) /. 2.0) in
  let options =
    {
      Es_sim.Runner.default_options with
      duration_s = 40.0;
      warmup_s = 0.0;
      faults = Es_sim.Faults.scripted (Es_sim.Faults.crash ~at:20.0 0);
      overload =
        { Es_sim.Overload.off with
          admission = Some { Es_sim.Overload.slack = threshold /. dev.Cluster.deadline } };
    }
  in
  let arrivals = [| (20.0 -. reach -. (server_s /. 2.0), 0); (20.0, 0) |] in
  let r = Es_sim.Runner.run ~arrivals ~options c [| d |] in
  Alcotest.(check int) "crash first: nothing shed" 0 r.Es_sim.Metrics.total_shed;
  Alcotest.(check int) "crash first: both dropped" 2 r.Es_sim.Metrics.total_dropped;
  (* An arrival at a reconfiguration instant takes the new plan. *)
  let local = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  let remote = Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:bw ~compute_share:0.9 () in
  let options = { Es_sim.Runner.default_options with duration_s = 60.0; warmup_s = 0.0 } in
  let latency ?reconfigure initial =
    (Es_sim.Runner.run ~arrivals:[| (30.0, 0) |] ?reconfigure ~options c [| initial |])
      .Es_sim.Metrics.mean_latency_s
  in
  let switched = latency ~reconfigure:[ (30.0, [| remote |]) ] local in
  Alcotest.(check (float 0.0)) "reconfiguration first: remote plan" (latency remote) switched;
  Alcotest.(check bool) "the plans differ" true (latency local <> switched);
  (* An arrival at the instant a job completes, at queue capacity 1: the
     completion was posted during the run, so the arrival comes first,
     finds the CPU busy and is dropped. *)
  let w = Plan.device_time dev.Cluster.proc.Processor.perf local.Decision.plan in
  let r =
    Es_sim.Runner.run
      ~arrivals:[| (10.0, 0); (10.0 +. w, 0) |]
      ~options:{ options with queue_capacity = Some 1 }
      c [| local |]
  in
  Alcotest.(check int) "arrival before completion: completed" 1 r.Es_sim.Metrics.total_completed;
  Alcotest.(check int) "arrival before completion: dropped" 1 r.Es_sim.Metrics.total_dropped

(* A trace is read one arrival at a time: the event list holds the next
   arrival and the events of requests in flight, not the whole trace. *)
let test_runner_trace_arrivals_lazy () =
  let c =
    Cluster.make
      ~devices:
        (List.init 2 (fun id ->
             Cluster.device ~id ~proc:Processor.raspberry_pi ~link:Link.wifi ~model:resnet18
               ~rate:1.0 ~deadline:0.5 ()))
      ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_gpu ~ap_bandwidth_mbps:200.0 () ]
  in
  let ds =
    Array.init 2 (fun device ->
        Decision.make ~device ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:50e6
          ~compute_share:0.5 ())
  in
  let n = 20_000 in
  let arrivals = Array.init n (fun i -> (0.01 *. float_of_int i, i land 1)) in
  let stats = ref None in
  let options = { Es_sim.Runner.default_options with duration_s = 250.0; warmup_s = 0.0 } in
  let r = Es_sim.Runner.run ~options ~arrivals ~on_stats:(fun s -> stats := Some s) c ds in
  Alcotest.(check int) "every arrival served" n r.Es_sim.Metrics.total_generated;
  let max_pending = (Option.get !stats).Es_sim.Engine.max_pending in
  Alcotest.(check bool) (Printf.sprintf "max_pending %d < 16" max_pending) true (max_pending < 16)

let test_runner_reconfigure_changes_plan () =
  (* Device-only until t=30, then full offload: post-switch requests must be
     faster on this weak device. *)
  let c = one_device_cluster () in
  let local = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  let remote =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:80e6
      ~compute_share:0.9 ()
  in
  let arrivals = [| (10.0, 0); (40.0, 0) |] in
  let r =
    Es_sim.Runner.run ~arrivals ~reconfigure:[ (30.0, [| remote |]) ]
      ~options:{ Es_sim.Runner.default_options with duration_s = 60.0; warmup_s = 0.0 }
      c [| local |]
  in
  let samples = r.Es_sim.Metrics.per_device.(0).Es_sim.Metrics.samples in
  Alcotest.(check int) "two requests" 2 (Array.length samples);
  Alcotest.(check bool)
    (Printf.sprintf "offloaded %.0fms < local %.0fms" (1000. *. samples.(1)) (1000. *. samples.(0)))
    true
    (samples.(1) < samples.(0))

let test_runner_work_scale () =
  let c = one_device_cluster () in
  let d = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  let base = Es_sim.Runner.run ~arrivals:spaced_arrivals c [| d |] in
  let doubled =
    Es_sim.Runner.run ~arrivals:spaced_arrivals ~work_scale:(fun ~device:_ _ -> 2.0) c [| d |]
  in
  Alcotest.(check (float 1e-6)) "work scale doubles compute latency"
    (2.0 *. base.Es_sim.Metrics.mean_latency_s)
    doubled.Es_sim.Metrics.mean_latency_s

let test_runner_warmup_discards () =
  let c = one_device_cluster () in
  let d = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  let arrivals = [| (1.0, 0); (10.0, 0) |] in
  let r =
    Es_sim.Runner.run ~arrivals
      ~options:{ Es_sim.Runner.default_options with warmup_s = 5.0; duration_s = 20.0 }
      c [| d |]
  in
  Alcotest.(check int) "warmup arrival excluded" 1 r.Es_sim.Metrics.total_generated

let test_runner_reconfigure_zero_grant_drain () =
  (* Switching a device to a zero-grant (device-only) decision while an
     offloaded request is still in flight must drain that request cleanly:
     it completes on the stations it already entered, nothing drops, and
     the ledger balances. *)
  let c = one_device_cluster () in
  let remote =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:5e6
      ~compute_share:0.5 ()
  in
  let local = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  (* Arrival at t=29.9 is mid-transfer when grants go to zero at t=30. *)
  let arrivals = [| (10.0, 0); (29.9, 0); (40.0, 0) |] in
  let r =
    Es_sim.Runner.run ~arrivals ~reconfigure:[ (30.0, [| local |]) ]
      ~options:{ Es_sim.Runner.default_options with duration_s = 120.0; warmup_s = 0.0 }
      c [| remote |]
  in
  Alcotest.(check int) "all three complete" 3 r.Es_sim.Metrics.total_completed;
  Alcotest.(check int) "nothing dropped" 0 r.Es_sim.Metrics.total_dropped

let test_runner_rejects_invalid_decisions () =
  let c = one_device_cluster () in
  let nan_bw =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18)
      ~bandwidth_bps:Float.nan ~compute_share:0.5 ()
  in
  let raises ds =
    match
      try
        ignore (Es_sim.Runner.run c ds);
        `No_raise
      with Invalid_argument _ -> `Raised
    with
    | `Raised -> ()
    | `No_raise -> Alcotest.fail "invalid decision accepted"
  in
  raises [| nan_bw |];
  (* Decision.make guards negative grants at construction; corrupt the
     record directly to exercise the runner's own validation. *)
  let base =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:5e6
      ~compute_share:0.5 ()
  in
  raises [| { base with Decision.compute_share = -0.5 } |];
  raises [| { base with Decision.bandwidth_bps = 0.0 } |];
  (* The reconfigure path validates too. *)
  let ok = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  match
    try
      ignore (Es_sim.Runner.run ~reconfigure:[ (10.0, [| nan_bw |]) ] c [| ok |]);
      `No_raise
    with Invalid_argument _ -> `Raised
  with
  | `Raised -> ()
  | `No_raise -> Alcotest.fail "invalid reconfiguration accepted"

let test_runner_rejects_bad_window () =
  let c = one_device_cluster () in
  let ds = [| Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () |] in
  let rejects what ~duration_s ~warmup_s =
    let options = { Es_sim.Runner.default_options with duration_s; warmup_s } in
    match Es_sim.Runner.run ~options c ds with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "duration shorter than the warm-up" ~duration_s:2.0 ~warmup_s:5.0;
  rejects "duration equal to the warm-up" ~duration_s:5.0 ~warmup_s:5.0;
  rejects "negative warm-up" ~duration_s:10.0 ~warmup_s:(-1.0);
  rejects "NaN duration" ~duration_s:Float.nan ~warmup_s:0.0;
  rejects "infinite duration" ~duration_s:Float.infinity ~warmup_s:0.0;
  rejects "NaN warm-up" ~duration_s:10.0 ~warmup_s:Float.nan;
  let options = { Es_sim.Runner.default_options with duration_s = 2.0; warmup_s = 0.0 } in
  let r = Es_sim.Runner.run ~options ~arrivals:[| (0.5, 0); (1.0, 0) |] c ds in
  Alcotest.(check int) "a short run without warm-up measures" 2 r.Es_sim.Metrics.total_generated

(* Streaming metrics trade raw samples for constant memory; the contract
   (metrics.mli) is exact counts/DSR, float-rounding-level mean, and
   quantiles within one sketch bucket (~4.5% in value). *)
let test_runner_streaming_tolerance () =
  let c = Scenario.build Scenario.default in
  let ds = Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve c in
  let exact = Es_sim.Runner.run c ds in
  let stream =
    Es_sim.Runner.run
      ~options:{ Es_sim.Runner.default_options with streaming = true }
      c ds
  in
  Alcotest.(check int) "generated exact" exact.Es_sim.Metrics.total_generated
    stream.Es_sim.Metrics.total_generated;
  Alcotest.(check int) "completed exact" exact.Es_sim.Metrics.total_completed
    stream.Es_sim.Metrics.total_completed;
  Alcotest.(check int) "dropped exact" exact.Es_sim.Metrics.total_dropped
    stream.Es_sim.Metrics.total_dropped;
  Alcotest.(check int) "timed out exact" exact.Es_sim.Metrics.total_timed_out
    stream.Es_sim.Metrics.total_timed_out;
  Alcotest.(check (float 1e-12)) "dsr exact" exact.Es_sim.Metrics.dsr
    stream.Es_sim.Metrics.dsr;
  let rel a b = abs_float (a -. b) /. Float.max 1e-9 (abs_float a) in
  Alcotest.(check bool) "mean within float rounding" true
    (rel exact.Es_sim.Metrics.mean_latency_s stream.Es_sim.Metrics.mean_latency_s < 1e-6);
  List.iter
    (fun (name, ex, st) ->
      Alcotest.(check bool) (name ^ " within sketch tolerance") true (rel ex st < 0.1))
    [
      ("p50", exact.Es_sim.Metrics.p50_s, stream.Es_sim.Metrics.p50_s);
      ("p95", exact.Es_sim.Metrics.p95_s, stream.Es_sim.Metrics.p95_s);
      ("p99", exact.Es_sim.Metrics.p99_s, stream.Es_sim.Metrics.p99_s);
    ];
  Alcotest.(check int) "no pooled samples retained" 0
    (Array.length stream.Es_sim.Metrics.latencies);
  Alcotest.(check int) "no event log retained" 0
    (Array.length stream.Es_sim.Metrics.events)

(* ---------- Faults and resilience ---------- *)

let crashed_options ?resilience ?(crash_at = 20.0) ?for_s () =
  let crash = Es_sim.Faults.crash ~at:crash_at ?for_s 0 in
  {
    Es_sim.Runner.default_options with
    duration_s = 40.0;
    warmup_s = 0.0;
    faults = Es_sim.Faults.scripted crash;
    resilience;
  }

let offload_cluster_and_decision () =
  let c = one_device_cluster () in
  let d =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:50e6
      ~compute_share:0.8 ()
  in
  (c, d)

let test_faults_drop_without_resilience () =
  (* Server down from t=20 with no resilience policy: every later offloaded
     request drops, and the ledger still balances. *)
  let c, d = offload_cluster_and_decision () in
  let arrivals = [| (10.0, 0); (25.0, 0); (30.0, 0) |] in
  let r = Es_sim.Runner.run ~arrivals ~options:(crashed_options ()) c [| d |] in
  Alcotest.(check int) "pre-crash request completes" 1 r.Es_sim.Metrics.total_completed;
  Alcotest.(check int) "post-crash requests drop" 2 r.Es_sim.Metrics.total_dropped;
  Alcotest.(check bool) "conservation" true (Es_sim.Metrics.conserved r)

let test_faults_local_fallback_degrades () =
  (* Same crash with the default resilience policy: the post-crash requests
     re-execute locally and complete degraded instead of dropping. *)
  let c, d = offload_cluster_and_decision () in
  let arrivals = [| (10.0, 0); (25.0, 0); (30.0, 0) |] in
  let r =
    Es_sim.Runner.run ~arrivals
      ~options:(crashed_options ~resilience:Es_sim.Runner.default_resilience ())
      c [| d |]
  in
  Alcotest.(check int) "everything completes" 3 r.Es_sim.Metrics.total_completed;
  Alcotest.(check int) "post-crash completions are degraded" 2 r.Es_sim.Metrics.total_degraded;
  Alcotest.(check int) "nothing dropped" 0 r.Es_sim.Metrics.total_dropped

let test_faults_server_recovers () =
  (* Crash for 10s: a request arriving after the repair completes normally. *)
  let c, d = offload_cluster_and_decision () in
  let arrivals = [| (10.0, 0); (35.0, 0) |] in
  let r = Es_sim.Runner.run ~arrivals ~options:(crashed_options ~for_s:10.0 ()) c [| d |] in
  Alcotest.(check int) "both complete" 2 r.Es_sim.Metrics.total_completed;
  Alcotest.(check int) "no degradation after repair" 0 r.Es_sim.Metrics.total_degraded

let test_faults_in_flight_eviction_retries () =
  (* An in-service request at the crash instant is evicted; with retries and
     a repaired server it must still complete (possibly degraded via local
     fallback, but never dropped). *)
  let c, d = offload_cluster_and_decision () in
  let arrivals = [| (19.99, 0) |] in
  let r =
    Es_sim.Runner.run ~arrivals
      ~options:
        (crashed_options ~resilience:Es_sim.Runner.default_resilience ~for_s:1.0 ())
      c [| d |]
  in
  Alcotest.(check int) "evicted request completes" 1 r.Es_sim.Metrics.total_completed;
  Alcotest.(check int) "not dropped" 0 r.Es_sim.Metrics.total_dropped

let test_faults_link_outage () =
  let c, d = offload_cluster_and_decision () in
  let faults = Es_sim.Faults.scripted (Es_sim.Faults.outage ~at:20.0 ~for_s:5.0 0) in
  let arrivals = [| (21.0, 0); (30.0, 0) |] in
  let no_res =
    Es_sim.Runner.run ~arrivals
      ~options:
        {
          Es_sim.Runner.default_options with
          duration_s = 40.0;
          warmup_s = 0.0;
          faults;
        }
      c [| d |]
  in
  Alcotest.(check int) "outage drops the uplink request" 1 no_res.Es_sim.Metrics.total_dropped;
  Alcotest.(check int) "post-restore request completes" 1 no_res.Es_sim.Metrics.total_completed

let test_faults_straggler_slows () =
  let c, d = offload_cluster_and_decision () in
  let base = Es_sim.Runner.run ~arrivals:spaced_arrivals c [| d |] in
  let slowed =
    Es_sim.Runner.run ~arrivals:spaced_arrivals
      ~options:
        {
          Es_sim.Runner.default_options with
          faults = Es_sim.Faults.scripted (Es_sim.Faults.straggle ~at:0.0 ~for_s:60.0 ~factor:4.0 0);
        }
      c [| d |]
  in
  Alcotest.(check bool) "straggler raises mean latency" true
    (slowed.Es_sim.Metrics.mean_latency_s > base.Es_sim.Metrics.mean_latency_s)

let test_faults_deterministic () =
  (* A faulty, resilient run is as deterministic as a clean one. *)
  let c = Scenario.build Scenario.default in
  let ds = Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve c in
  let options =
    {
      Es_sim.Runner.default_options with
      faults = Es_sim.Faults.scripted (Es_sim.Faults.crash ~at:20.0 ~for_s:15.0 0);
      resilience = Some Es_sim.Runner.default_resilience;
    }
  in
  let r1 = Es_sim.Runner.run ~options c ds and r2 = Es_sim.Runner.run ~options c ds in
  Alcotest.(check int) "same generated" r1.Es_sim.Metrics.total_generated
    r2.Es_sim.Metrics.total_generated;
  Alcotest.(check int) "same degraded" r1.Es_sim.Metrics.total_degraded
    r2.Es_sim.Metrics.total_degraded;
  Alcotest.(check int) "same timeouts" r1.Es_sim.Metrics.total_timed_out
    r2.Es_sim.Metrics.total_timed_out;
  Alcotest.(check (float 0.0)) "same mean" r1.Es_sim.Metrics.mean_latency_s
    r2.Es_sim.Metrics.mean_latency_s;
  Alcotest.(check bool) "conservation under faults" true (Es_sim.Metrics.conserved r1)

let test_timeout_without_fallback () =
  (* A saturating device-only workload with a tight timeout and no fallback:
     requests that exceed timeout_factor x deadline are counted timed-out. *)
  let c =
    Cluster.make
      ~devices:
        [
          Cluster.device ~id:0 ~proc:Processor.iot_board ~link:Link.wifi ~model:resnet18
            ~rate:5.0 ~deadline:0.2 ();
        ]
      ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_cpu ~ap_bandwidth_mbps:50.0 () ]
  in
  let d = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  let resilience =
    {
      Es_sim.Runner.timeout_factor = 2.0;
      max_retries = 0;
      backoff_base_s = 0.05;
      local_fallback = false;
    }
  in
  let r =
    Es_sim.Runner.run
      ~options:
        {
          Es_sim.Runner.default_options with
          duration_s = 20.0;
          warmup_s = 0.0;
          resilience = Some resilience;
        }
      c [| d |]
  in
  Alcotest.(check bool) "timeouts recorded" true (r.Es_sim.Metrics.total_timed_out > 0);
  Alcotest.(check bool) "conservation with timeouts" true (Es_sim.Metrics.conserved r)

(* ---------- Overload protection ---------- *)

let conserved r =
  Alcotest.(check bool) "conservation with shed" true (Es_sim.Metrics.conserved r)

let test_overload_specs () =
  let specs ?admission ?breaker ?brownout ?shed () =
    Es_sim.Overload.of_specs ~admission ~breaker ~brownout ~shed
  in
  (match specs () with
  | Ok p -> Alcotest.(check bool) "no flag is off" true (Es_sim.Overload.is_off p)
  | Error e -> Alcotest.fail e);
  (match specs ~breaker:"" ~brownout:"16:4" ~shed:"50" () with
  | Ok p ->
      Alcotest.(check bool) "bare breaker takes the defaults" true
        (p.Es_sim.Overload.breaker = Some Es_sim.Overload.default_breaker);
      Alcotest.(check bool) "missing fields take the defaults" true
        (p.Es_sim.Overload.brownout
        = Some { Es_sim.Overload.default_brownout with high_watermark = 16; low_watermark = 4 });
      Alcotest.(check bool) "shed rate set, burst defaulted" true
        (p.Es_sim.Overload.rate_limit
        = Some { Es_sim.Overload.default_rate_limit with rate_per_server = 50.0 })
  | Error e -> Alcotest.fail e);
  let error name want r =
    match r with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e -> Alcotest.(check string) name want e
  in
  error "bad integer" "--breaker: bad field \"x\" (want an integer)" (specs ~breaker:"x" ());
  error "bad number" "--brownout: bad field \"z\" (want a number)" (specs ~brownout:"1:2:z" ());
  error "validated" "Overload: brownout low watermark must be in [0, high)"
    (specs ~brownout:"5:9" ())

(* Any flag strings give [Ok] or [Error], never an exception. *)
let overload_specs_total =
  let field = QCheck.(string_gen (Gen.oneofl [ '0'; '1'; '7'; '.'; ':'; '-'; 'e'; 'x'; 'n' ])) in
  QCheck.Test.make ~count:500 ~name:"overload specs never raise"
    QCheck.(quad (option field) (option field) (option field) (option (oneof [ field; string ])))
    (fun (admission, breaker, brownout, shed) ->
      match Es_sim.Overload.of_specs ~admission ~breaker ~brownout ~shed with
      | Ok _ | Error _ -> true)

let test_station_backlog_eta () =
  let e = Es_sim.Engine.create () in
  let st = Es_sim.Station.create e ~event:0 ~speed:2.0 () in
  let eta ?(after = 0.0) work = Es_sim.Station.eta_after st ~after ~work in
  Alcotest.(check (float 1e-12)) "idle backlog is zero" 0.0 (eta 0.0);
  Alcotest.(check (float 1e-12)) "idle eta is pure service" 1.0 (eta 2.0);
  (* First job (4 units) enters service until t=2; second (2 units) queues. *)
  ignore (Es_sim.Station.submit st ~tag:0 ~work:4.0);
  ignore (Es_sim.Station.submit st ~tag:1 ~work:2.0);
  Alcotest.(check (float 1e-12)) "backlog = in-service remainder + queue" 3.0 (eta 0.0);
  Alcotest.(check (float 1e-12)) "eta adds own service on top" 4.0 (eta 2.0);
  Alcotest.(check (float 1e-12)) "an earlier stage finishing first changes nothing" 4.0
    (eta ~after:2.5 2.0);
  Alcotest.(check (float 1e-12)) "a later start waits for it" 6.0 (eta ~after:5.0 2.0);
  Es_sim.Engine.run e ~handle:(station_handler st ignore);
  Alcotest.(check (float 1e-12)) "drained backlog is zero" 0.0 (eta 0.0)

let test_breaker_state_machine () =
  let cfg =
    {
      Es_sim.Overload.default_breaker with
      Es_sim.Overload.window = 8;
      failure_rate = 0.5;
      min_samples = 4;
      cooldown_s = 5.0;
      half_open_probes = 2;
    }
  in
  let transitions = ref 0 in
  let b = Es_sim.Overload.Breaker.create ~on_transition:(fun _ -> incr transitions) cfg in
  let code () = Es_sim.Overload.Breaker.(state_code (state b)) in
  Alcotest.(check bool) "closed admits" true (Es_sim.Overload.Breaker.allow b ~now:0.0);
  Es_sim.Overload.Breaker.record b ~now:0.1 ~ok:true;
  Es_sim.Overload.Breaker.record b ~now:0.2 ~ok:false;
  Es_sim.Overload.Breaker.record b ~now:0.3 ~ok:false;
  Alcotest.(check int) "below min_samples stays closed" 0 (code ());
  Es_sim.Overload.Breaker.record b ~now:0.4 ~ok:false;
  Alcotest.(check int) "75% failures over 4 samples trips" 2 (code ());
  Alcotest.(check int) "one open counted" 1 (Es_sim.Overload.Breaker.opens b);
  Alcotest.(check bool) "open rejects before cooldown" false
    (Es_sim.Overload.Breaker.allow b ~now:1.0);
  Alcotest.(check bool) "cooldown elapses into a probe" true
    (Es_sim.Overload.Breaker.allow b ~now:5.5);
  Alcotest.(check int) "half-open" 1 (code ());
  Es_sim.Overload.Breaker.record b ~now:5.6 ~ok:false;
  Alcotest.(check int) "probe failure re-opens" 2 (code ());
  Alcotest.(check bool) "second cooldown, probe again" true
    (Es_sim.Overload.Breaker.allow b ~now:11.0);
  Es_sim.Overload.Breaker.record b ~now:11.1 ~ok:true;
  Alcotest.(check bool) "still half-open: second probe admitted" true
    (Es_sim.Overload.Breaker.allow b ~now:11.2);
  Es_sim.Overload.Breaker.record b ~now:11.3 ~ok:true;
  Alcotest.(check int) "enough probe successes re-close" 0 (code ());
  Alcotest.(check int) "two opens total" 2 (Es_sim.Overload.Breaker.opens b);
  (* Closed -> Open -> Half_open -> Open -> Half_open -> Closed *)
  Alcotest.(check int) "every transition reported" 5 !transitions

(* A hopeless offload: 20 req/s into a 10 Mbit/s uplink with a 200 ms
   deadline.  Backlog-based admission must shed most of it and keep the
   ledger exact. *)
let test_overload_admission_sheds () =
  let c =
    Cluster.make
      ~devices:
        [
          Cluster.device ~id:0 ~proc:Processor.raspberry_pi ~link:Link.wifi ~model:resnet18
            ~rate:20.0 ~deadline:0.2 ();
        ]
      ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_cpu ~ap_bandwidth_mbps:50.0 () ]
  in
  let d =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:10e6
      ~compute_share:0.5 ()
  in
  let options =
    {
      Es_sim.Runner.default_options with
      duration_s = 20.0;
      warmup_s = 0.0;
      overload =
        {
          Es_sim.Overload.off with
          Es_sim.Overload.admission = Some Es_sim.Overload.default_admission;
        };
    }
  in
  let reg = Es_obs.Metric.create () in
  let r = Es_sim.Runner.run ~options ~metrics:reg c [| d |] in
  Alcotest.(check bool) "sheds under overload" true (r.Es_sim.Metrics.total_shed > 0);
  conserved r;
  Alcotest.(check int) "per-device shed matches total"
    r.Es_sim.Metrics.total_shed
    r.Es_sim.Metrics.per_device.(0).Es_sim.Metrics.shed;
  Alcotest.(check bool) "admitted DSR >= raw DSR" true
    (r.Es_sim.Metrics.dsr_admitted >= r.Es_sim.Metrics.dsr);
  (match Es_obs.Metric.find reg "requests_shed" with
  | Some (Es_obs.Metric.Counter n) ->
      Alcotest.(check int) "live shed counter matches report" r.Es_sim.Metrics.total_shed n
  | _ -> Alcotest.fail "requests_shed counter missing");
  (* Shedding the hopeless arrivals must leave the survivors meeting their
     deadlines far more often than the unprotected run. *)
  let unprotected =
    Es_sim.Runner.run
      ~options:{ options with Es_sim.Runner.overload = Es_sim.Overload.off }
      c [| d |]
  in
  Alcotest.(check bool) "admission lifts admitted DSR" true
    (r.Es_sim.Metrics.dsr_admitted > unprotected.Es_sim.Metrics.dsr)

let test_overload_breaker_reroutes () =
  (* Server down from t=10: without protection every later offload drops;
     with a breaker the first few failures trip it and the rest of the
     arrivals reroute to the device's local plan and complete. *)
  let c =
    Cluster.make
      ~devices:
        [
          Cluster.device ~id:0 ~proc:Processor.jetson_nano ~link:Link.wifi ~model:resnet18
            ~rate:4.0 ~deadline:0.5 ();
        ]
      ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_gpu ~ap_bandwidth_mbps:200.0 () ]
  in
  let d =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:50e6
      ~compute_share:0.8 ()
  in
  let breaker =
    { Es_sim.Overload.default_breaker with Es_sim.Overload.window = 8; min_samples = 4 }
  in
  let options =
    {
      Es_sim.Runner.default_options with
      duration_s = 40.0;
      warmup_s = 0.0;
      faults = Es_sim.Faults.scripted (Es_sim.Faults.crash ~at:10.0 0);
      overload = { Es_sim.Overload.off with Es_sim.Overload.breaker = Some breaker };
    }
  in
  let reg = Es_obs.Metric.create () in
  let r = Es_sim.Runner.run ~options ~metrics:reg c [| d |] in
  conserved r;
  Alcotest.(check bool) "a few trip-window drops remain" true
    (r.Es_sim.Metrics.total_dropped >= breaker.Es_sim.Overload.min_samples
    && r.Es_sim.Metrics.total_dropped <= 2 * breaker.Es_sim.Overload.window);
  Alcotest.(check bool) "rerouted arrivals keep completing" true
    (r.Es_sim.Metrics.total_completed > r.Es_sim.Metrics.total_dropped);
  (match
     List.find_opt
       (fun (s : Es_obs.Metric.sample) ->
         s.Es_obs.Metric.name = "overload/breaker_state"
         && s.Es_obs.Metric.labels = [ ("server", "0") ])
       (Es_obs.Metric.snapshot reg)
   with
  | Some { Es_obs.Metric.value = Es_obs.Metric.Gauge g; _ } ->
      Alcotest.(check (float 0.0)) "breaker gauge reads open" 2.0 g
  | _ -> Alcotest.fail "breaker gauge missing");
  let unprotected =
    Es_sim.Runner.run
      ~options:{ options with Es_sim.Runner.overload = Es_sim.Overload.off }
      c [| d |]
  in
  Alcotest.(check bool) "breaker saves requests the bare run drops" true
    (r.Es_sim.Metrics.total_completed > unprotected.Es_sim.Metrics.total_completed)

let test_overload_brownout_switches () =
  (* A starved server share builds server-station backlog; the watermark
     controller must engage, swap the device to its local plan, and count
     the switch. *)
  let c =
    Cluster.make
      ~devices:
        [
          Cluster.device ~id:0 ~proc:Processor.jetson_nano ~link:Link.wifi ~model:resnet18
            ~rate:8.0 ~deadline:0.5 ();
        ]
      ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_cpu ~ap_bandwidth_mbps:200.0 () ]
  in
  let d =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:50e6
      ~compute_share:0.02 ()
  in
  let brownout =
    {
      Es_sim.Overload.default_brownout with
      Es_sim.Overload.high_watermark = 4;
      low_watermark = 1;
      check_every_s = 0.25;
    }
  in
  let options =
    {
      Es_sim.Runner.default_options with
      duration_s = 30.0;
      warmup_s = 0.0;
      overload = { Es_sim.Overload.off with Es_sim.Overload.brownout = Some brownout };
    }
  in
  let reg = Es_obs.Metric.create () in
  let r = Es_sim.Runner.run ~options ~metrics:reg c [| d |] in
  conserved r;
  (match Es_obs.Metric.find reg "overload/brownout_switches" with
  | Some (Es_obs.Metric.Counter n) ->
      Alcotest.(check bool) "controller engaged at least once" true (n >= 1)
  | _ -> Alcotest.fail "brownout switch counter missing");
  let unprotected =
    Es_sim.Runner.run
      ~options:{ options with Es_sim.Runner.overload = Es_sim.Overload.off }
      c [| d |]
  in
  Alcotest.(check bool) "brownout beats queueing on the starved share" true
    (r.Es_sim.Metrics.mean_latency_s < unprotected.Es_sim.Metrics.mean_latency_s)

let test_overload_rate_limit_sheds () =
  (* A fixed 2 req/s bucket under an 8 req/s offered load: roughly three
     quarters of the offloads shed, and the ledger stays exact. *)
  let c =
    Cluster.make
      ~devices:
        [
          Cluster.device ~id:0 ~proc:Processor.jetson_nano ~link:Link.wifi ~model:resnet18
            ~rate:8.0 ~deadline:0.5 ();
        ]
      ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_gpu ~ap_bandwidth_mbps:200.0 () ]
  in
  let d =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:50e6
      ~compute_share:0.8 ()
  in
  let options =
    {
      Es_sim.Runner.default_options with
      duration_s = 30.0;
      warmup_s = 0.0;
      overload =
        {
          Es_sim.Overload.off with
          Es_sim.Overload.rate_limit =
            Some { Es_sim.Overload.rate_per_server = 2.0; burst = 1.0 };
        };
    }
  in
  let r = Es_sim.Runner.run ~options c [| d |] in
  conserved r;
  Alcotest.(check bool) "rate limit sheds the excess" true
    (r.Es_sim.Metrics.total_shed > r.Es_sim.Metrics.total_generated / 2);
  Alcotest.(check bool) "admitted requests still flow" true
    (r.Es_sim.Metrics.total_completed > 0)

let armed_but_lax =
  (* Every mechanism on, every threshold unreachable: the run must be
     byte-identical to an unprotected one — arming costs nothing. *)
  {
    Es_sim.Overload.admission = Some { Es_sim.Overload.slack = 1e9 };
    breaker = Some Es_sim.Overload.default_breaker;
    brownout =
      Some
        {
          Es_sim.Overload.default_brownout with
          Es_sim.Overload.high_watermark = 1_000_000;
          low_watermark = 0;
        };
    rate_limit = Some { Es_sim.Overload.rate_per_server = 1e12; burst = 1e9 };
  }

let test_overload_off_and_lax_bit_identical () =
  let c = Scenario.build Scenario.default in
  let ds = Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve c in
  let run overload =
    Es_sim.Runner.run ~options:{ Es_sim.Runner.default_options with overload } c ds
  in
  let off = run Es_sim.Overload.off in
  (* The golden pins (test_runner_golden_bit_identity) apply unchanged. *)
  Alcotest.(check int) "off-policy generated pin" 1636 off.Es_sim.Metrics.total_generated;
  Alcotest.(check (float 0.0)) "off-policy dsr pin" 0.9193154034229829 off.Es_sim.Metrics.dsr;
  Alcotest.(check int) "off-policy sheds nothing" 0 off.Es_sim.Metrics.total_shed;
  Alcotest.(check (float 0.0)) "dsr_admitted folds to dsr" off.Es_sim.Metrics.dsr
    off.Es_sim.Metrics.dsr_admitted;
  let lax = run armed_but_lax in
  Alcotest.(check bool) "armed-but-lax run is report-identical" true (off = lax)

let overload_flash_setup seed =
  let c = Scenario.build Scenario.default in
  let ds = Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve c in
  let profile = Es_workload.Heavy.profile_by_name ~duration_s:30.0 "overload" in
  let arrivals = Es_workload.Heavy.trace ~seed ~duration_s:30.0 ~profile c in
  (c, ds, arrivals)

let all_protections =
  {
    Es_sim.Overload.admission = Some Es_sim.Overload.default_admission;
    breaker = Some Es_sim.Overload.default_breaker;
    brownout = Some Es_sim.Overload.default_brownout;
    rate_limit = Some Es_sim.Overload.default_rate_limit;
  }

let prop_overload_flash_deterministic =
  qtest ~count:8 "protected flash crowd: repeat runs and conservation"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c, ds, arrivals = overload_flash_setup seed in
      let run () =
        Es_sim.Runner.run
          ~options:
            {
              Es_sim.Runner.default_options with
              duration_s = 30.0;
              overload = all_protections;
            }
          ~arrivals c ds
      in
      let r1 = run () and r2 = run () in
      r1 = r2 && Es_sim.Metrics.conserved r1)

let test_overload_jobs_invariant () =
  (* Solver parallelism must not leak into the protected run: decisions are
     bit-identical for every [jobs], so the flash-crowd reports are too. *)
  let c, _, arrivals = overload_flash_setup 11 in
  let solve jobs =
    (Es_joint.Optimizer.solve
       ~config:{ Es_joint.Optimizer.default_config with Es_joint.Optimizer.jobs }
       c)
      .Es_joint.Optimizer.decisions
  in
  let d1 = solve 1 and d2 = solve 2 in
  Alcotest.(check string) "decisions bit-identical across jobs"
    (Decision.fingerprint d1) (Decision.fingerprint d2);
  let run ds =
    Es_sim.Runner.run
      ~options:
        {
          Es_sim.Runner.default_options with
          duration_s = 30.0;
          overload = all_protections;
        }
      ~arrivals c ds
  in
  Alcotest.(check bool) "reports equal under either jobs count" true (run d1 = run d2)

(* ---------- Runner pins ---------- *)

(* A fixed grid of small runs, one per runner feature and per feature
   combination, each digested three ways: the report JSON, the span JSONL
   (one [Export.span_to_json] line per finished span) and the metric
   registry snapshot.  The digests are committed in
   [golden/runner_pins.txt]; a runner change that keeps every output
   byte keeps every line.  On a mismatch the computed file is printed
   to stderr, so an intended change is re-pinned by copying it. *)
let runner_pin_lines () =
  let module R = Es_sim.Runner in
  let module O = Es_sim.Overload in
  let module F = Es_sim.Faults in
  let digest s = Digest.to_hex (Digest.string s) in
  let cluster = Scenario.build Scenario.default in
  let busy = Es_joint.Online.scale_rates cluster 3.0 in
  let decisions = (Es_joint.Optimizer.solve cluster).Es_joint.Optimizer.decisions in
  let neuro = Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve busy in
  let ns = Cluster.n_servers busy and nd = Cluster.n_devices busy in
  let server = decisions.(0).Decision.server in
  let short = { R.default_options with duration_s = 10.0; warmup_s = 1.0 } in
  let trace cluster =
    Es_workload.Heavy.trace ~seed:3 ~duration_s:10.0
      ~profile:(Es_workload.Heavy.profile_by_name ~duration_s:10.0 "flash")
      cluster
  in
  (* The brownout and derived-rate arms only act on a crowd. *)
  let crowd = Es_joint.Online.scale_rates cluster 8.0 in
  let crowd_trace = trace crowd and busy_trace = trace busy in
  let scripted =
    F.scripted
      (F.crash ~at:3.0 ~for_s:2.0 server
      @ F.outage ~at:4.0 ~for_s:1.5 1
      @ F.degrade ~at:2.0 ~for_s:4.0 ~factor:0.3 2
      @ F.straggle ~at:5.0 ~for_s:3.0 ~factor:4.0 ((server + 1) mod ns))
  in
  let random =
    Es_oracle.Faults.random ~seed:11 ~duration_s:10.0 ~n_servers:ns ~n_devices:nd
      ~server_mtbf_s:4.0 ~server_mttr_s:1.0 ~outage_rate:0.05 ~outage_mean_s:0.5
      ~straggler_rate:0.1 ()
  in
  let res = Some R.default_resilience in
  let all_four =
    { O.admission = Some O.default_admission; breaker = Some O.default_breaker;
      brownout = Some O.default_brownout; rate_limit = Some O.default_rate_limit }
  in
  let only f = f O.off in
  let batch = Some { R.max_batch = 4; window_s = 0.005; alpha = 0.7 } in
  let reconf = [ (5.0, neuro) ] in
  let scale ~device rng = if device mod 3 = 0 then Es_util.Prng.float_in rng 0.5 2.0 else 1.0 in
  (* name, options, trace?, reconfigure?, work_scale?, decisions *)
  let grid =
    [
      ("plain", short, `Poisson, false, false);
      ("trace", short, `Trace, false, false);
      ("crowd", short, `Crowd, false, false);
      ("fading", { short with fading = true }, `Poisson, false, false);
      ("jitter", { short with compute_jitter = 0.3 }, `Trace, false, false);
      ("capacity", { short with queue_capacity = Some 2 }, `Trace, false, false);
      ("streaming", { short with streaming = true }, `Trace, false, false);
      ("work_scale", short, `Poisson, false, true);
      ("reconfigure", short, `Trace, true, false);
      ("faults", { short with faults = scripted }, `Trace, false, false);
      ("faults_resilient", { short with faults = scripted; resilience = res }, `Trace, false, false);
      ( "faults_no_fallback",
        { short with faults = scripted;
          resilience = Some { R.default_resilience with local_fallback = false } },
        `Trace, false, false );
      ( "faults_retries",
        { short with faults = scripted;
          resilience = Some { R.default_resilience with max_retries = 3; backoff_base_s = 0.01 } },
        `Poisson, false, false );
      ( "timeout_fallback",
        { short with resilience = Some { R.default_resilience with timeout_factor = 0.5 } },
        `Trace, false, false );
      ( "timeout_drop",
        { short with
          resilience =
            Some { R.default_resilience with timeout_factor = 0.5; local_fallback = false } },
        `Trace, false, false );
      ("random_faults", { short with faults = random; resilience = res }, `Trace, false, false);
      ( "admission",
        { short with overload = only (fun o -> { o with O.admission = Some O.default_admission }) },
        `Crowd, false, false );
      ( "breaker",
        { short with faults = scripted; resilience = res;
          overload = only (fun o -> { o with O.breaker = Some O.default_breaker }) },
        `Trace, false, false );
      ( "breaker_shed",
        { short with faults = scripted; resilience = res;
          overload =
            only (fun o ->
                { o with O.breaker = Some { O.default_breaker with O.shed_on_open = true } }) },
        `Trace, false, false );
      ( "brownout_local",
        { short with
          overload =
            only (fun o ->
                { o with O.brownout =
                    Some { O.high_watermark = 2; low_watermark = 0; check_every_s = 0.1;
                           mode = O.Local_only } }) },
        `Crowd, false, false );
      ( "brownout_min_server",
        { short with
          overload =
            only (fun o ->
                { o with O.brownout =
                    Some { O.high_watermark = 2; low_watermark = 0; check_every_s = 0.1;
                           mode = O.Min_server } }) },
        `Crowd, false, false );
      ( "rate_derived",
        { short with
          overload =
            only (fun o -> { o with O.rate_limit = Some { O.rate_per_server = 0.0; burst = 1.0 } }) },
        `Crowd, false, false );
      ( "rate_fixed",
        { short with
          overload =
            only (fun o ->
                { o with O.rate_limit = Some { O.rate_per_server = 20.0; burst = 4.0 } }) },
        `Trace, false, false );
      ( "guarded",
        { short with faults = scripted; resilience = res; overload = all_four },
        `Trace, false, false );
      ( "guarded_random",
        { short with faults = random; resilience = res; overload = all_four; fading = true },
        `Poisson, false, true );
      ("batching", { short with batching = batch }, `Trace, false, false);
      ( "batching_faults",
        { short with batching = batch; faults = scripted; resilience = res; fading = true },
        `Trace, false, false );
      ( "batching_guarded",
        { short with batching = batch; overload = all_four; compute_jitter = 0.2 },
        `Poisson, true, false );
      ( "capacity_faults",
        { short with queue_capacity = Some 3; faults = scripted;
          resilience = Some { R.default_resilience with timeout_factor = 0.8 } },
        `Trace, false, false );
      (* A crash far shorter than the slowed job it evicts: retries reach
         the server again while that job's completion is still queued. *)
      ( "blip",
        { short with
          faults =
            F.scripted
              (F.straggle ~at:2.0 ~for_s:4.0 ~factor:50.0 server
              @ F.crash ~at:3.0 ~for_s:0.01 server
              @ F.crash ~at:4.0 ~for_s:0.01 server);
          resilience = Some { R.default_resilience with backoff_base_s = 0.002 } },
        `Trace, false, false );
    ]
  in
  let run ~metrics ~spans (options, use_trace, use_reconf, use_scale) =
    let reg = if metrics then Some (Es_obs.Metric.create ()) else None in
    let sink, collected = Es_obs.Span.memory_sink () in
    let report =
      R.run ~options ?metrics:reg
        ?spans:(if spans then Some sink else None)
        ?arrivals:(match use_trace with `Poisson -> None | `Trace -> Some busy_trace
                    | `Crowd -> Some crowd_trace)
        ?reconfigure:(if use_reconf then Some reconf else None)
        ?work_scale:(if use_scale then Some scale else None)
        (if use_trace = `Crowd then crowd else busy) decisions
    in
    let lines f xs = String.concat "\n" (List.map (fun x -> Es_obs.Json.to_string (f x)) xs) in
    let samples =
      match reg with
      | None -> "-"
      | Some r -> digest (lines Es_obs.Export.sample_to_json (Es_obs.Metric.snapshot r))
    in
    let spans = if spans then digest (lines Es_obs.Export.span_to_json (collected ())) else "-" in
    Printf.sprintf "report=%s metrics=%s spans=%s"
      (digest (Es_obs.Json.to_string (Es_sim.Metrics.report_to_json report)))
      samples spans
  in
  List.concat_map
    (fun (name, options, tr, rc, sc) ->
      let cfg = (options, tr, rc, sc) in
      [ Printf.sprintf "%s plain %s" name (run ~metrics:false ~spans:false cfg);
        Printf.sprintf "%s traced %s" name (run ~metrics:true ~spans:true cfg) ])
    grid
  @ List.map
      (fun (name, metrics, spans, options) ->
        Printf.sprintf "%s %s" name (run ~metrics ~spans (options, `Trace, false, false)))
      [
        ("guarded metrics_only", true, false,
         { short with faults = scripted; resilience = res; overload = all_four });
        ("guarded spans_only", false, true,
         { short with faults = scripted; resilience = res; overload = all_four });
        ("batching metrics_only", true, false, { short with batching = batch });
        ("batching spans_only", false, true, { short with batching = batch });
      ]

(* The per-request allocation budget of the serving path: an untraced,
   unprotected run (streaming metrics, as edgebench's serve workloads use)
   over a fixed flash-crowd trace allocates at most [budget] minor words
   per request, counted exactly.  Events are ints in the engine queue and
   request state lives in flat arrays, so what remains per request is a
   few boxed floats at module boundaries.  The budget is 1.5x the 48.2
   words this run allocates; the closure-per-hop runner it replaced
   allocated 326. *)
let test_runner_alloc_budget () =
  let budget = 72.0 in
  let cluster = Es_joint.Online.scale_rates (Scenario.build Scenario.default) 3.0 in
  let ds = Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve cluster in
  let arrivals =
    Es_workload.Heavy.trace ~seed:5 ~duration_s:20.0
      ~profile:(Es_workload.Heavy.profile_by_name ~duration_s:20.0 "flash")
      cluster
  in
  let options =
    { Es_sim.Runner.default_options with duration_s = 20.0; warmup_s = 0.0; streaming = true }
  in
  let words =
    Es_util.Alloc_probe.minor_words (fun () ->
        ignore (Es_sim.Runner.run ~options ~arrivals cluster ds))
  in
  let per_request = words /. float_of_int (Array.length arrivals) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per request <= %.0f" per_request budget)
    true (per_request <= budget)

let test_runner_pins () =
  let computed = runner_pin_lines () in
  let pinned =
    In_channel.with_open_text "golden/runner_pins.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  if computed <> pinned then begin
    prerr_endline "computed runner pins:";
    List.iter prerr_endline computed
  end;
  Alcotest.(check (list string)) "every pinned digest" pinned computed

let () =
  Alcotest.run "es_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "tie FIFO" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "nested + errors" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "backend equivalence" `Quick test_engine_backends_equivalent;
          Alcotest.test_case "stats" `Quick test_engine_stats;
          Alcotest.test_case "data events share ties" `Quick test_engine_data_events;
          prop_engine_time_monotone;
        ] );
      ( "station",
        [
          Alcotest.test_case "fifo service" `Quick test_station_fifo_service;
          Alcotest.test_case "capacity drops" `Quick test_station_capacity_drops;
          Alcotest.test_case "speed change" `Quick test_station_speed_change;
          Alcotest.test_case "zero work" `Quick test_station_zero_work;
          Alcotest.test_case "flush makes completions stale" `Quick test_station_flush_stale;
          prop_station_busy_conserved;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "window launch" `Quick test_batcher_window_launch;
          Alcotest.test_case "full batch immediate" `Quick test_batcher_full_batch_immediate;
          Alcotest.test_case "beats sequential" `Quick test_batcher_beats_sequential_under_load;
          Alcotest.test_case "mid-batch waits" `Quick test_batcher_mid_batch_arrivals_wait;
          Alcotest.test_case "runner batching mode" `Quick test_runner_batching_mode;
        ] );
      ( "runner",
        [
          Alcotest.test_case "matches analytic (offload)" `Quick
            test_runner_matches_analytic_when_uncontended;
          Alcotest.test_case "matches analytic (local)" `Quick
            test_runner_device_only_matches_analytic;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "conservation" `Quick test_runner_conservation;
          Alcotest.test_case "queueing under load" `Quick test_runner_queueing_appears_under_load;
          Alcotest.test_case "queue capacity" `Quick test_runner_queue_capacity_drops;
          Alcotest.test_case "fading" `Quick test_runner_fading_slows_transfers;
          Alcotest.test_case "explicit arrivals" `Quick test_runner_explicit_arrivals;
          Alcotest.test_case "rejects bad trace times" `Quick test_runner_rejects_bad_trace_times;
          Alcotest.test_case "rejects an unsorted trace" `Quick test_runner_rejects_unsorted_trace;
          Alcotest.test_case "same-instant order" `Quick test_runner_same_instant_order;
          Alcotest.test_case "trace arrivals are lazy" `Quick test_runner_trace_arrivals_lazy;
          Alcotest.test_case "reconfigure" `Quick test_runner_reconfigure_changes_plan;
          Alcotest.test_case "work scale" `Quick test_runner_work_scale;
          Alcotest.test_case "warmup" `Quick test_runner_warmup_discards;
          Alcotest.test_case "golden bit-identity" `Quick test_runner_golden_bit_identity;
          Alcotest.test_case "feature grid pinned" `Quick test_runner_pins;
          Alcotest.test_case "allocation budget" `Quick test_runner_alloc_budget;
          Alcotest.test_case "zero-grant drain" `Quick test_runner_reconfigure_zero_grant_drain;
          Alcotest.test_case "rejects invalid decisions" `Quick
            test_runner_rejects_invalid_decisions;
          Alcotest.test_case "rejects bad window" `Quick test_runner_rejects_bad_window;
          Alcotest.test_case "streaming tolerance" `Quick test_runner_streaming_tolerance;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop without resilience" `Quick
            test_faults_drop_without_resilience;
          Alcotest.test_case "local fallback degrades" `Quick
            test_faults_local_fallback_degrades;
          Alcotest.test_case "server recovers" `Quick test_faults_server_recovers;
          Alcotest.test_case "in-flight eviction retries" `Quick
            test_faults_in_flight_eviction_retries;
          Alcotest.test_case "link outage" `Quick test_faults_link_outage;
          Alcotest.test_case "straggler slows" `Quick test_faults_straggler_slows;
          Alcotest.test_case "deterministic" `Quick test_faults_deterministic;
          Alcotest.test_case "timeout without fallback" `Quick test_timeout_without_fallback;
        ] );
      ( "overload",
        [
          Alcotest.test_case "flag specs" `Quick test_overload_specs;
          Alcotest.test_case "flag specs never raise" `Quick (fun () ->
              QCheck.Test.check_exn overload_specs_total);
          Alcotest.test_case "station backlog eta" `Quick test_station_backlog_eta;
          Alcotest.test_case "breaker state machine" `Quick test_breaker_state_machine;
          Alcotest.test_case "admission sheds" `Quick test_overload_admission_sheds;
          Alcotest.test_case "breaker reroutes" `Quick test_overload_breaker_reroutes;
          Alcotest.test_case "brownout switches" `Quick test_overload_brownout_switches;
          Alcotest.test_case "rate limit sheds" `Quick test_overload_rate_limit_sheds;
          Alcotest.test_case "off and lax bit-identical" `Quick
            test_overload_off_and_lax_bit_identical;
          Alcotest.test_case "jobs invariant" `Quick test_overload_jobs_invariant;
          prop_overload_flash_deterministic;
        ] );
    ]
