(* Solver-scaling and hot-path timing harness — the `make bench-timing`
   target.  Three measurements, each emitted as one JSONL record (the es_obs
   codec, same framing as --jsonl / --metrics-out) to the output file:

     pareto_micro     sort-based skyline vs the O(n^2) reference frontier on
                      real candidate plan sets, single core
     solver_scaling   Optimizer.solve wall time at jobs=1 vs jobs=N per
                      cluster size, checking the objectives are identical
     bench_suite      (--suite) the parallelized sweep experiments end to
                      end at harness jobs=1 vs jobs=N, stdout silenced

   Usage:
     dune exec bench/timing.exe -- [--sizes 10,25,50,100] [--jobs 4]
       [--repeats 3] [--out BENCH_solver.json] [--suite] *)

module J = Es_obs.Json

let wall = Es_obs.Obs.wall_clock

(* Best-of-N wall time: robust to scheduler noise without bechamel's
   minimum-runtime requirements. *)
let time_best ~repeats f =
  let best = ref infinity in
  for _ = 1 to max 1 repeats do
    let t0 = wall () in
    ignore (Sys.opaque_identity (f ()));
    let dt = wall () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* ------------------------------------------------------------------ *)
(* pareto_micro — candidate-generation kernel                          *)
(* ------------------------------------------------------------------ *)

let pareto_micro ~repeats =
  let models =
    [
      ("vgg16", Es_dnn.Zoo.vgg16 ());
      ("resnet50", Es_dnn.Zoo.resnet50 ());
      ("mobilenet_v2", Es_dnn.Zoo.mobilenet_v2 ());
      ("yolo_tiny", Es_dnn.Zoo.yolo_tiny ());
    ]
  in
  let plan_sets = List.map (fun (_, g) -> Es_surgery.Candidate.generate g) models in
  let n_plans = List.fold_left (fun acc ps -> acc + List.length ps) 0 plan_sets in
  let plan_key = Es_surgery.Candidate.plan_key in
  let frontier_all impl = List.iter (fun ps -> ignore (impl plan_key ps)) plan_sets in
  List.iter
    (fun ps ->
      assert (
        Es_util.Pareto.frontier plan_key ps = Es_oracle.Pareto.frontier plan_key ps))
    plan_sets;
  let skyline_s = time_best ~repeats (fun () -> frontier_all Es_util.Pareto.frontier) in
  let naive_s = time_best ~repeats (fun () -> frontier_all Es_oracle.Pareto.frontier) in
  let speedup = naive_s /. skyline_s in
  Printf.printf "pareto_micro    %d plans  skyline %.4fs  naive %.4fs  speedup %.2fx\n%!"
    n_plans skyline_s naive_s speedup;
  J.Obj
    [
      ("kind", J.String "pareto_micro");
      ("models", J.List (List.map (fun (name, _) -> J.String name) models));
      ("n_plans", J.Int n_plans);
      ("skyline_s", J.Float skyline_s);
      ("naive_s", J.Float naive_s);
      ("speedup", J.Float speedup);
    ]

(* ------------------------------------------------------------------ *)
(* solver_scaling — Optimizer.solve at jobs=1 vs jobs=N                *)
(* ------------------------------------------------------------------ *)

let solver_scaling ~jobs ~repeats n =
  let open Es_edge in
  let cluster = Scenario.build (Scenario.with_n_devices n Scenario.default) in
  let config j = { Es_joint.Optimizer.default_config with jobs = j } in
  let solve j = Es_joint.Optimizer.solve ~config:(config j) cluster in
  let out1 = solve 1 in
  let outn = solve jobs in
  let identical = out1.Es_joint.Optimizer.objective = outn.Es_joint.Optimizer.objective in
  let t1 = time_best ~repeats (fun () -> solve 1) in
  let tn = time_best ~repeats (fun () -> solve jobs) in
  let speedup = t1 /. tn in
  Printf.printf
    "solver_scaling  %3d devices  jobs=1 %.3fs  jobs=%d %.3fs  speedup %.2fx  identical %b\n%!"
    n t1 jobs tn speedup identical;
  J.Obj
    [
      ("kind", J.String "solver_scaling");
      ("devices", J.Int n);
      ("jobs", J.Int jobs);
      ("t_jobs1_s", J.Float t1);
      ("t_jobsN_s", J.Float tn);
      ("speedup", J.Float speedup);
      ("objective", J.Float out1.Es_joint.Optimizer.objective);
      ("identical", J.Bool identical);
    ]

(* ------------------------------------------------------------------ *)
(* sharded_scaling — Es_scale.solve at sizes beyond monolithic reach   *)
(* ------------------------------------------------------------------ *)

(* Server count grows with the fleet (~40 devices per server: 250 -> 6,
   1000 -> 25), matching how a real deployment would be provisioned; the
   sharded solver's whole point is that per-shard work stays bounded as
   the fleet grows.  (At 1000 devices over 16 servers the system is simply
   overloaded — every solver's objective blows up on deadline misses.) *)
let sharded_servers n = max 2 (n / 40)

let sharded_scaling ~jobs ~repeats n =
  let open Es_edge in
  let servers = sharded_servers n in
  let cluster =
    Scenario.default |> Scenario.with_n_devices n |> Scenario.with_n_servers servers
    |> Scenario.build
  in
  let solve j =
    Es_scale.solve ~config:{ Es_scale.default_config with Es_scale.jobs = j } cluster
  in
  let out1 = solve 1 in
  let outn = solve jobs in
  let identical =
    Decision.fingerprint out1.Es_scale.decisions
    = Decision.fingerprint outn.Es_scale.decisions
  in
  let feasible =
    match Decision.validate cluster out1.Es_scale.decisions with
    | Ok () -> true
    | Error _ -> false
  in
  let t1 = time_best ~repeats (fun () -> solve 1) in
  let tn = time_best ~repeats (fun () -> solve jobs) in
  let speedup = t1 /. tn in
  Printf.printf
    "sharded_scaling %4d devices / %2d servers  jobs=1 %.3fs  jobs=%d %.3fs  speedup \
     %.2fx  identical %b  feasible %b\n\
     %!"
    n servers t1 jobs tn speedup identical feasible;
  J.Obj
    [
      ("kind", J.String "sharded_scaling");
      ("devices", J.Int n);
      ("servers", J.Int servers);
      ("jobs", J.Int jobs);
      ("t_jobs1_s", J.Float t1);
      ("t_jobsN_s", J.Float tn);
      ("speedup", J.Float speedup);
      ("objective", J.Float out1.Es_scale.objective);
      ("sweeps", J.Int out1.Es_scale.sweeps);
      ("shard_solves", J.Int out1.Es_scale.shard_solves);
      ("identical", J.Bool identical);
      ("feasible", J.Bool feasible);
    ]

(* ------------------------------------------------------------------ *)
(* sharded_vs_mono — both solvers on the same cluster                  *)
(* ------------------------------------------------------------------ *)

(* Head-to-head on one cluster small enough for the monolithic solver:
   wall-time speedup plus the objective the decomposition gives up. *)
let sharded_vs_mono ~repeats n =
  let open Es_edge in
  let servers = max 2 (n / 25) in
  let cluster =
    Scenario.default |> Scenario.with_n_devices n |> Scenario.with_n_servers servers
    |> Scenario.build
  in
  let mono = Es_joint.Optimizer.solve cluster in
  let sh = Es_scale.solve cluster in
  let feasible =
    match Decision.validate cluster sh.Es_scale.decisions with
    | Ok () -> true
    | Error _ -> false
  in
  let t_mono = time_best ~repeats (fun () -> Es_joint.Optimizer.solve cluster) in
  let t_sharded = time_best ~repeats (fun () -> Es_scale.solve cluster) in
  let speedup = t_mono /. t_sharded in
  let quality_ratio = sh.Es_scale.objective /. mono.Es_joint.Optimizer.objective in
  Printf.printf
    "sharded_vs_mono %4d devices / %2d servers  mono %.3fs  sharded %.3fs  speedup \
     %.2fx  quality %.3f  feasible %b\n\
     %!"
    n servers t_mono t_sharded speedup quality_ratio feasible;
  J.Obj
    [
      ("kind", J.String "sharded_vs_mono");
      ("devices", J.Int n);
      ("servers", J.Int servers);
      ("t_mono_s", J.Float t_mono);
      ("t_sharded_s", J.Float t_sharded);
      ("speedup", J.Float speedup);
      ("quality_ratio", J.Float quality_ratio);
      ("feasible", J.Bool feasible);
    ]

(* ------------------------------------------------------------------ *)
(* alloc_per_solve — allocated words per steady-state solve            *)
(* ------------------------------------------------------------------ *)

(* Allocation counts are a property of the code path, not of the machine:
   the same binary solving the same scenario allocates the same number of
   minor-heap words on every run, on every box.  Unlike the wall-clock
   records above, the gate therefore compares minor_words_per_solve
   absolutely against the committed baseline (small tolerance, no 2x noise
   band) — the budget the zero-allocation kernels (DESIGN.md §15) buy.

   Solves run at jobs=1: the parallel fan-out would add per-domain arenas
   and dispatch buffers that belong to the runtime, not to the solver.
   Each record also re-scores the landing point through the reference
   kernels in the test-only Es_oracle library (oracle_ok), so a flat/oracle divergence fails the
   gate even if no test caught it.  words_per_solve (minor words plus
   words allocated directly on the major heap) is recorded for context
   only. *)

let alloc_per_solve_record ~scenario ~cluster ~(solve : unit -> Es_edge.Decision.t array) =
  let open Es_edge in
  ignore (Sys.opaque_identity (solve ()));
  (* warm: candidate pools, scratch arenas, lazies *)
  let sink = ref [||] in
  let thunk () = sink := solve () in
  let minor = Es_util.Alloc_probe.minor_words thunk in
  let total = Es_util.Alloc_probe.words thunk in
  let decisions = !sink in
  let oracle_ok =
    Int64.bits_of_float (Es_joint.Objective.of_decisions cluster decisions)
    = Int64.bits_of_float (Es_oracle.Objective.of_decisions cluster decisions)
  in
  Printf.printf
    "alloc_per_solve %-12s %4d devices  minor %.0f words/solve  total %.0f  oracle_ok %b\n%!"
    scenario (Cluster.n_devices cluster) minor total oracle_ok;
  J.Obj
    [
      ("kind", J.String "alloc_per_solve");
      ("scenario", J.String scenario);
      ("devices", J.Int (Cluster.n_devices cluster));
      ("servers", J.Int (Cluster.n_servers cluster));
      ("minor_words_per_solve", J.Float minor);
      ("words_per_solve", J.Float total);
      ("oracle_ok", J.Bool oracle_ok);
    ]

let alloc_scenario_names = [ "default"; "smart_city"; "ar_assistant"; "drone_swarm" ]

let alloc_named name =
  let open Es_edge in
  let cluster = Scenario.build (Es_workload.Scenarios.by_name name) in
  let config = { Es_joint.Optimizer.default_config with Es_joint.Optimizer.jobs = 1 } in
  alloc_per_solve_record ~scenario:name ~cluster ~solve:(fun () ->
      (Es_joint.Optimizer.solve ~config cluster).Es_joint.Optimizer.decisions)

let alloc_sharded n =
  let open Es_edge in
  let servers = sharded_servers n in
  let cluster =
    Scenario.default |> Scenario.with_n_devices n |> Scenario.with_n_servers servers
    |> Scenario.build
  in
  let config = { Es_scale.default_config with Es_scale.jobs = 1 } in
  alloc_per_solve_record
    ~scenario:(Printf.sprintf "sharded_%d" n)
    ~cluster
    ~solve:(fun () -> (Es_scale.solve ~config cluster).Es_scale.decisions)

(* ------------------------------------------------------------------ *)
(* warm_online — warm-started + cached epoch re-solves vs cold         *)
(* ------------------------------------------------------------------ *)

(* The default online scenario (F10): step burst x3 over the middle third
   of 180s, re-optimized every 15s = 12 epoch solves over 3 load levels.
   The warm arm threads the incumbent into each solve and memoizes on the
   (cluster, config) fingerprint; the cold arm solves each epoch from
   scratch.  Timing covers the re-solve loop only (the simulation cost is
   identical in both arms and would just dilute the ratio); the
   equal-or-better check runs the full Online.run pipeline on both arms
   and compares the applied schedules epoch by epoch. *)
let warm_online ~repeats =
  let open Es_edge in
  let cluster = Scenario.build Scenario.default in
  let duration = 180.0 and epoch = 15.0 in
  let profile =
    Es_workload.Profiles.step_burst ~start_s:(duration /. 3.0)
      ~stop_s:(2.0 *. duration /. 3.0) ~factor:3.0
  in
  let rec epoch_times acc t =
    if t >= duration then List.rev acc else epoch_times (t :: acc) (t +. epoch)
  in
  let times = epoch_times [] 0.0 in
  let loads = List.map (fun t -> Float.max 1e-9 (profile t)) times in
  let solve_all ~warm ~cache () =
    let prev = ref None in
    List.iter
      (fun load ->
        let scaled = Es_joint.Online.scale_rates cluster load in
        let warm_start = if warm then !prev else None in
        let out =
          match cache with
          | Some sc -> Es_joint.Solve_cache.solve sc ?warm_start scaled
          | None -> Es_joint.Optimizer.solve ?warm_start scaled
        in
        prev := Some out.Es_joint.Optimizer.decisions)
      loads
  in
  (* Warm the candidate cache so neither arm pays first-touch plan
     generation; a fresh solve cache per warm repetition keeps the
     measurement honest (hits come only from within one run). *)
  solve_all ~warm:false ~cache:None ();
  let t_cold = time_best ~repeats (fun () -> solve_all ~warm:false ~cache:None ()) in
  let t_warm =
    time_best ~repeats (fun () ->
        solve_all ~warm:true ~cache:(Some (Es_joint.Solve_cache.create ())) ())
  in
  let speedup = t_cold /. t_warm in
  (* Full-pipeline check: per epoch, the warm arm's applied decisions are
     equal-or-better under that epoch's load than the cold arm's. *)
  let options = { Es_sim.Runner.default_options with duration_s = duration } in
  let cold =
    Es_joint.Online.run ~options ~warm_start:false ~epoch_s:epoch ~rate_profile:profile
      cluster
  in
  let cache = Es_joint.Solve_cache.create () in
  let warm =
    Es_joint.Online.run ~options ~cache ~warm_start:true ~epoch_s:epoch
      ~rate_profile:profile cluster
  in
  let equal_or_better =
    List.for_all2
      (fun (t, wd) (_, cd) ->
        let scaled = Es_joint.Online.scale_rates cluster (Float.max 1e-9 (profile t)) in
        Es_joint.Objective.of_decisions scaled wd
        <= Es_joint.Objective.of_decisions scaled cd +. 1e-9)
      warm.Es_joint.Online.schedule cold.Es_joint.Online.schedule
  in
  let cache_hits = warm.Es_joint.Online.cache_hits in
  Printf.printf
    "warm_online     %d epochs  cold %.3fs  warm %.3fs  speedup %.2fx  cache_hits %d  equal_or_better %b\n%!"
    (List.length times) t_cold t_warm speedup cache_hits equal_or_better;
  J.Obj
    [
      ("kind", J.String "warm_online");
      ("devices", J.Int (Cluster.n_devices cluster));
      ("epochs", J.Int (List.length times));
      ("t_cold_s", J.Float t_cold);
      ("t_warm_s", J.Float t_warm);
      ("speedup", J.Float speedup);
      ("cache_hits", J.Int cache_hits);
      ("equal_or_better", J.Bool equal_or_better);
    ]

(* ------------------------------------------------------------------ *)
(* million_request — serving-engine throughput (events/s)              *)
(* ------------------------------------------------------------------ *)

(* Two measurements of the same question — how fast does the discrete-event
   core move — at two levels:

   1. Raw engine: [n] time-sorted arrival times pre-generated OUTSIDE the
      timed region (the RNG is shared overhead that would otherwise dilute
      the queue ratio), all scheduled up front, so the pending population
      starts at n, then drained; each arrival schedules one short-delay
      follow-up through a shared zero-capture closure (2n events total,
      no per-event closure allocation inside the timed loop).  The same program runs on
      Es_sim.Engine and on the binary-heap reference loop
      (Es_oracle.Heap_engine); against an ~n-deep queue the heap pays a full
      O(log n) sift per op while the calendar queue appends sorted pushes in
      O(1) at the tail of the current bucket and pops in O(1).

   2. End-to-end: a Heavy.population smart-city fleet (n/100 devices) under
      a flash-crowd trace through Runner.run with streaming metrics, run
      twice.  Checks the two runs produce byte-equal report JSON
      (reports_match: nothing in the runner depends on hidden state) and
      that conservation holds, and records sustained runner events/s and
      the event list's high-water mark from the second run (the runner
      reads the trace one arrival at a time, so that mark follows the
      requests in flight; perf_gate holds it under 1/16 of the requests),
      and the minor words that second run allocates per request (exact
      for a given binary; perf_gate compares it absolutely). *)
let million_request ~repeats n =
  let total_events n = 2 * n in
  let times =
    let rng = Es_util.Prng.create 42 in
    let a = Array.init n (fun _ -> Es_util.Prng.float_in rng 0.0 3600.0) in
    Array.sort Float.compare a;
    a
  in
  let noop () = () in
  let run_engine () =
    let engine = Es_sim.Engine.create () in
    let hop () = Es_sim.Engine.schedule engine 0.001 noop in
    Array.iter (fun t -> Es_sim.Engine.schedule_at engine t hop) times;
    Es_sim.Engine.run engine;
    (Es_sim.Engine.stats engine).Es_sim.Engine.events_processed
  in
  let run_heap () =
    let engine = Es_oracle.Heap_engine.create () in
    let hop () = Es_oracle.Heap_engine.schedule engine 0.001 noop in
    Array.iter (fun t -> Es_oracle.Heap_engine.schedule_at engine t hop) times;
    Es_oracle.Heap_engine.run engine;
    engine.Es_oracle.Heap_engine.events_processed
  in
  let heap_events = run_heap () in
  let cal_events = run_engine () in
  let identical = heap_events = cal_events && cal_events = total_events n in
  let t_heap = time_best ~repeats run_heap in
  let t_cal = time_best ~repeats run_engine in
  let heap_eps = float_of_int heap_events /. t_heap in
  let cal_eps = float_of_int cal_events /. t_cal in
  let engine_speedup = t_heap /. t_cal in
  Printf.printf
    "million_request %d events  heap %.3fs (%.0f ev/s)  calendar %.3fs (%.0f ev/s)  \
     speedup %.2fx  identical %b\n\
     %!"
    (total_events n) t_heap heap_eps t_cal cal_eps engine_speedup identical;
  let devices = max 200 (n / 100) in
  let cluster =
    Es_workload.Heavy.population ~devices Es_workload.Scenarios.smart_city
  in
  let rate_sum =
    Array.fold_left
      (fun acc (d : Es_edge.Cluster.device) -> acc +. d.Es_edge.Cluster.rate)
      0.0 cluster.Es_edge.Cluster.devices
  in
  let duration = float_of_int n /. rate_sum in
  let profile = Es_workload.Heavy.profile_by_name ~duration_s:duration "flash" in
  let trace = Es_workload.Heavy.trace ~seed:42 ~duration_s:duration ~profile cluster in
  let decisions = Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve cluster in
  let run_sim () =
    let stats = ref None in
    let options =
      {
        Es_sim.Runner.default_options with
        duration_s = duration;
        warmup_s = 0.0;
        streaming = true;
      }
    in
    let w0 = Gc.minor_words () in
    let t0 = wall () in
    let report =
      Es_sim.Runner.run ~options ~arrivals:trace
        ~on_stats:(fun s -> stats := Some s)
        cluster decisions
    in
    let dt = wall () -. t0 in
    (report, Option.get !stats, dt, Gc.minor_words () -. w0)
  in
  let first_report, _, _, _ = run_sim () in
  let cal_report, cal_stats, cal_t, cal_words = run_sim () in
  let words_per_request =
    cal_words /. float_of_int (max 1 cal_report.Es_sim.Metrics.total_generated)
  in
  let report_bytes r = J.to_string (Es_sim.Metrics.report_to_json r) in
  let reports_match = report_bytes first_report = report_bytes cal_report in
  let conservation = Es_sim.Metrics.conserved cal_report in
  let runner_cal_eps = float_of_int cal_stats.Es_sim.Engine.events_processed /. cal_t in
  Printf.printf
    "million_request %d devices / %d reqs  runner %.2fs (%.0f ev/s)  max_pending %d  \
     %.2f minor words/req  reports_match %b  conservation %b\n\
     %!"
    devices cal_report.Es_sim.Metrics.total_generated cal_t runner_cal_eps
    cal_stats.Es_sim.Engine.max_pending words_per_request reports_match conservation;
  J.Obj
    [
      ("kind", J.String "million_request");
      ("n", J.Int n);
      ("engine_events", J.Int cal_events);
      ("t_heap_s", J.Float t_heap);
      ("t_calendar_s", J.Float t_cal);
      ("heap_events_per_s", J.Float heap_eps);
      ("calendar_events_per_s", J.Float cal_eps);
      ("engine_speedup", J.Float engine_speedup);
      ("identical", J.Bool identical);
      ("devices", J.Int devices);
      ("requests", J.Int cal_report.Es_sim.Metrics.total_generated);
      ("runner_events", J.Int cal_stats.Es_sim.Engine.events_processed);
      ("runner_max_pending", J.Int cal_stats.Es_sim.Engine.max_pending);
      ("runner_calendar_events_per_s", J.Float runner_cal_eps);
      ("runner_words_per_request", J.Float words_per_request);
      ("reports_match", J.Bool reports_match);
      ("conservation", J.Bool conservation);
    ]

(* ------------------------------------------------------------------ *)
(* overload — flash crowd at 3x capacity, protected vs unprotected     *)
(* ------------------------------------------------------------------ *)

(* The overload-protection acceptance experiment.  A smart-city heavy
   population under the sustained "overload" profile (3x nominal from the
   quarter mark onward) runs three ways:

   - unprotected: every request admitted, queues grow without bound;
   - protected: admission + breakers + brownout + capacity-derived token
     buckets, all at defaults — hopeless requests shed at arrival;
   - armed-but-lax: every mechanism on with unreachable thresholds — the
     per-arrival gate code runs but never fires, so comparing its wall
     time against the unprotected run prices the shed path at parity,
     and its report must be byte-identical (arming costs nothing).

   Gated downstream: protection lifts admitted DSR >= 2x over the
   unprotected DSR without losing useful completions (deadline hits), and
   the disabled/lax overhead stays within the 2x noise band. *)
let overload_protection ~repeats n =
  let devices = max 200 (n / 100) in
  let cluster = Es_workload.Heavy.population ~devices Es_workload.Scenarios.smart_city in
  let rate_sum =
    Array.fold_left
      (fun acc (d : Es_edge.Cluster.device) -> acc +. d.Es_edge.Cluster.rate)
      0.0 cluster.Es_edge.Cluster.devices
  in
  let duration = float_of_int n /. rate_sum in
  let profile = Es_workload.Heavy.profile_by_name ~duration_s:duration "overload" in
  let trace = Es_workload.Heavy.trace ~seed:42 ~duration_s:duration ~profile cluster in
  let decisions = Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve cluster in
  let protections =
    {
      Es_sim.Overload.admission = Some Es_sim.Overload.default_admission;
      breaker = Some Es_sim.Overload.default_breaker;
      brownout = Some Es_sim.Overload.default_brownout;
      rate_limit = Some Es_sim.Overload.default_rate_limit;
    }
  in
  let lax =
    {
      Es_sim.Overload.admission = Some { Es_sim.Overload.slack = 1e9 };
      breaker = Some Es_sim.Overload.default_breaker;
      brownout =
        Some
          {
            Es_sim.Overload.default_brownout with
            Es_sim.Overload.high_watermark = max_int / 2;
            low_watermark = 0;
          };
      rate_limit = Some { Es_sim.Overload.rate_per_server = 1e12; burst = 1e9 };
    }
  in
  let run overload () =
    let options =
      {
        Es_sim.Runner.default_options with
        duration_s = duration;
        warmup_s = 0.0;
        streaming = true;
        overload;
      }
    in
    Es_sim.Runner.run ~options ~arrivals:trace cluster decisions
  in
  let r_off = run Es_sim.Overload.off () in
  let r_on = run protections () in
  let r_lax = run lax () in
  let t_off = time_best ~repeats (fun () -> ignore (run Es_sim.Overload.off ())) in
  let t_on = time_best ~repeats (fun () -> ignore (run protections ())) in
  let t_lax = time_best ~repeats (fun () -> ignore (run lax ())) in
  let hits (r : Es_sim.Metrics.report) =
    Array.fold_left
      (fun acc (d : Es_sim.Metrics.device_stats) -> acc + d.Es_sim.Metrics.deadline_hits)
      0 r.Es_sim.Metrics.per_device
  in
  let hits_off = hits r_off and hits_on = hits r_on in
  let dsr_ratio = r_on.Es_sim.Metrics.dsr_admitted /. Float.max 1e-9 r_off.Es_sim.Metrics.dsr in
  let no_fewer_hits = hits_on >= hits_off in
  let off_identical = r_lax = r_off in
  let overhead_ratio = t_lax /. Float.max 1e-9 t_off in
  let conservation = Es_sim.Metrics.conserved r_on in
  Printf.printf
    "overload        %d devices / %d reqs  unprotected DSR %.1f%% (%d hits)  protected \
     admitted DSR %.1f%% (%d hits, %d shed)  ratio %.2fx  overhead %.2fx  off_identical %b\n\
     %!"
    devices r_off.Es_sim.Metrics.total_generated
    (100.0 *. r_off.Es_sim.Metrics.dsr)
    hits_off
    (100.0 *. r_on.Es_sim.Metrics.dsr_admitted)
    hits_on r_on.Es_sim.Metrics.total_shed dsr_ratio overhead_ratio off_identical;
  J.Obj
    [
      ("kind", J.String "overload");
      ("n", J.Int n);
      ("devices", J.Int devices);
      ("requests", J.Int r_off.Es_sim.Metrics.total_generated);
      ("dsr_unprotected", J.Float r_off.Es_sim.Metrics.dsr);
      ("dsr_admitted_protected", J.Float r_on.Es_sim.Metrics.dsr_admitted);
      ("protection_dsr_ratio", J.Float dsr_ratio);
      ("hits_unprotected", J.Int hits_off);
      ("hits_protected", J.Int hits_on);
      ("no_fewer_hits", J.Bool no_fewer_hits);
      ("shed", J.Int r_on.Es_sim.Metrics.total_shed);
      ("t_unprotected_s", J.Float t_off);
      ("t_protected_s", J.Float t_on);
      ("t_armed_lax_s", J.Float t_lax);
      ("overhead_ratio", J.Float overhead_ratio);
      ("off_identical", J.Bool off_identical);
      ("conservation", J.Bool conservation);
    ]

(* ------------------------------------------------------------------ *)
(* bench_suite — the parallelized sweep experiments end to end         *)
(* ------------------------------------------------------------------ *)

let silenced f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let suite_ids = [ "F2"; "F3"; "F4"; "T3" ]

let bench_suite ~jobs =
  let run_suite () =
    List.iter
      (fun id ->
        let _, _, run = List.find (fun (i, _, _) -> i = id) Experiments.all in
        run ())
      suite_ids
  in
  (* Warm the candidate cache once so neither measurement pays first-touch
     plan generation. *)
  Atomic.set Common.jobs 1;
  silenced run_suite;
  let t1 = time_best ~repeats:1 (fun () -> silenced run_suite) in
  Atomic.set Common.jobs jobs;
  let tn = time_best ~repeats:1 (fun () -> silenced run_suite) in
  Atomic.set Common.jobs 1;
  let speedup = t1 /. tn in
  Printf.printf "bench_suite     %s  jobs=1 %.2fs  jobs=%d %.2fs  speedup %.2fx\n%!"
    (String.concat "," suite_ids) t1 jobs tn speedup;
  J.Obj
    [
      ("kind", J.String "bench_suite");
      ("experiments", J.List (List.map (fun id -> J.String id) suite_ids));
      ("jobs", J.Int jobs);
      ("t_jobs1_s", J.Float t1);
      ("t_jobsN_s", J.Float tn);
      ("speedup", J.Float speedup);
    ]

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let sizes = ref [ 10; 25; 50; 100 ] in
  let sharded_sizes = ref [] in
  let vs_mono_sizes = ref [] in
  let jobs = ref 4 in
  let repeats = ref 3 in
  let out_path = ref "BENCH_solver.json" in
  let suite = ref false in
  let warm = ref false in
  let million = ref 0 in
  let overload = ref 0 in
  let alloc = ref false in
  let alloc_sharded_sizes = ref [] in
  let usage () =
    prerr_endline
      "usage: timing.exe [--sizes N,N,..] [--sharded-sizes N,N,..] [--vs-mono N,N,..] [--jobs N] [--repeats N] [--out PATH] [--suite] [--warm-online] [--million-request N] [--overload N] [--alloc] [--alloc-sharded N,N,..]";
    exit 2
  in
  let parse_sizes into s rest k =
    match List.map int_of_string_opt (String.split_on_char ',' s) with
    | ns when List.for_all Option.is_some ns && ns <> [] ->
        into := List.filter_map Fun.id ns;
        k rest
    | _ -> usage ()
  in
  let rec parse = function
    | "--sizes" :: s :: rest -> parse_sizes sizes s rest parse
    | "--sharded-sizes" :: s :: rest -> parse_sizes sharded_sizes s rest parse
    | "--vs-mono" :: s :: rest -> parse_sizes vs_mono_sizes s rest parse
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 0 ->
            jobs := (if j = 0 then Es_util.Par.default_jobs () else j);
            parse rest
        | _ -> usage ())
    | "--repeats" :: n :: rest -> (
        match int_of_string_opt n with
        | Some r when r >= 1 ->
            repeats := r;
            parse rest
        | _ -> usage ())
    | "--out" :: p :: rest ->
        out_path := p;
        parse rest
    | "--suite" :: rest ->
        suite := true;
        parse rest
    | "--warm-online" :: rest ->
        warm := true;
        parse rest
    | "--alloc" :: rest ->
        alloc := true;
        parse rest
    | "--alloc-sharded" :: s :: rest -> parse_sizes alloc_sharded_sizes s rest parse
    | "--million-request" :: n :: rest -> (
        match int_of_string_opt n with
        | Some m when m >= 1 ->
            million := m;
            parse rest
        | _ -> usage ())
    | "--overload" :: n :: rest -> (
        match int_of_string_opt n with
        | Some m when m >= 1 ->
            overload := m;
            parse rest
        | _ -> usage ())
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let oc = open_out !out_path in
  let emit record = Es_obs.Export.write_jsonl_line oc record in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "bench-timing: cores=%d jobs=%d repeats=%d sizes=%s -> %s\n%!" cores !jobs
    !repeats
    (String.concat "," (List.map string_of_int !sizes))
    !out_path;
  (* Header record: parallel speedups below only make sense relative to the
     machine's core count (on a 1-core box jobs>1 oversubscribes and loses). *)
  emit
    (J.Obj
       [
         ("kind", J.String "bench_env");
         ("cores", J.Int cores);
         ("jobs", J.Int !jobs);
         ("repeats", J.Int !repeats);
         ("sizes", J.List (List.map (fun n -> J.Int n) !sizes));
       ]);
  emit (pareto_micro ~repeats:!repeats);
  List.iter (fun n -> emit (solver_scaling ~jobs:!jobs ~repeats:!repeats n)) !sizes;
  List.iter (fun n -> emit (sharded_scaling ~jobs:!jobs ~repeats:!repeats n)) !sharded_sizes;
  List.iter (fun n -> emit (sharded_vs_mono ~repeats:!repeats n)) !vs_mono_sizes;
  if !alloc then List.iter (fun name -> emit (alloc_named name)) alloc_scenario_names;
  List.iter (fun n -> emit (alloc_sharded n)) !alloc_sharded_sizes;
  if !warm then emit (warm_online ~repeats:!repeats);
  if !million >= 1 then emit (million_request ~repeats:!repeats !million);
  if !overload >= 1 then emit (overload_protection ~repeats:!repeats !overload);
  if !suite then emit (bench_suite ~jobs:!jobs);
  close_out oc
