(* Per-layer metrics, measured only in the traced run.

   Every layer is timed from outside, through its public functions, on the
   workload's own inputs: the first input cluster and its warm-up plan, the
   served plans and their arrival traces.  So each metric exists on every
   workload; a count reads 0 where a workload bypasses the layer (no shed
   requests without overload protection).  Names and units are
   BENCHMARK.json's; README.md maps each metric to the end-to-end metric and
   workload it should move. *)

open Es_edge
module W = Workload
module J = Es_obs.Json

let wall = Es_obs.Obs.wall_clock

(* Mean seconds per call of [f] over at least three calls and [min_s]
   seconds, after one warm-up call. *)
let seconds_per_call ~min_s f =
  f ();
  let t0 = wall () in
  let n = ref 0 in
  while !n < 3 || wall () -. t0 < min_s do
    f ();
    incr n
  done;
  (wall () -. t0) /. float_of_int !n

(* Calibrated minor words of one steady-state call (exact, no clock reads in
   the measured region). *)
let words_per_call f = Es_util.Alloc_probe.minor_words f

let fdiv a b = a /. float_of_int b

(* The landing plan of the first input. *)
let landing (r : W.run) =
  match r.W.solved.W.plans.(0) with
  | Some p -> (r.W.inputs.W.clusters.(0), p.W.decisions)
  | None -> failwith "no plan for the first input"

let distinct_models (cluster : Cluster.t) =
  Array.fold_left
    (fun acc (d : Cluster.device) ->
      let g = d.Cluster.model in
      if List.exists (fun (h : Es_dnn.Graph.t) -> h.Es_dnn.Graph.name = g.Es_dnn.Graph.name) acc
      then acc
      else g :: acc)
    [] cluster.Cluster.devices
  |> List.rev

(* Cold Pareto-candidate generation for the first input's models.  It
   clears the caches, so it runs after every probe that wants them warm. *)
let candidates ctx cluster =
  let models = distinct_models cluster in
  let cold_s = ref nan in
  W.op ctx "probe/candidate" (fun () ->
      Es_surgery.Candidate.clear_cache ();
      Es_joint.Optimizer.clear_pool_cache ();
      let (), dt, _ =
        W.measure (fun () ->
            List.iter (fun g -> ignore (Es_surgery.Candidate.pareto_candidates g)) models)
      in
      cold_s := dt);
  let count f = List.fold_left (fun acc g -> acc + List.length (f g)) 0 models in
  [
    ("candidate.cold_ms", 1e3 *. !cold_s);
    ("candidate.plans", float_of_int (count (fun g -> Es_surgery.Candidate.generate g)));
    ( "candidate.frontier_plans",
      float_of_int (count (fun g -> Es_surgery.Candidate.pareto_candidates g)) );
  ]

(* The solver's kernels at the landing plan: the surgery scan at every
   device's landing grants, the allocation step, the last-resort
   degradation (on a copy of the plans), the local-search load proxy, the
   greedy assignment and the objective. *)
let kernels ctx ~min_s cluster (decisions : Decision.t array) =
  let cfg = W.jmsra_config in
  let nd = Array.length decisions in
  let plans = Array.map (fun (d : Decision.t) -> d.Decision.plan) decisions in
  let assignment = Array.map (fun (d : Decision.t) -> d.Decision.server) decisions in
  let pools =
    Array.init nd (fun device ->
        Es_joint.Optimizer.device_pool ?max_candidates:cfg.Es_joint.Optimizer.max_candidates
          ~precisions:cfg.Es_joint.Optimizer.precisions ~widths:cfg.Es_joint.Optimizer.widths
          cluster ~device)
  in
  let scan () =
    for i = 0 to nd - 1 do
      let d = decisions.(i) in
      ignore
        (Sys.opaque_identity
           (Es_joint.Optimizer.best_scored cluster ~device:i ~server:d.Decision.server pools.(i)
              ~bandwidth_bps:d.Decision.bandwidth_bps ~compute_share:d.Decision.compute_share))
    done
  in
  let allocate () =
    ignore (Sys.opaque_identity (Es_joint.Optimizer.best_allocation cluster ~assignment ~plans))
  in
  let out = ref [] in
  let probe name values = W.op ctx name (fun () -> out := values () @ !out) in
  probe "probe/best_scored" (fun () ->
      [
        ("optimizer.best_scored_ns", 1e9 *. fdiv (seconds_per_call ~min_s scan) nd);
        ("optimizer.best_scored_words", fdiv (words_per_call scan) nd);
      ]);
  probe "probe/best_allocation" (fun () ->
      [
        ("optimizer.best_allocation_us", 1e6 *. seconds_per_call ~min_s allocate);
        ("optimizer.best_allocation_words", words_per_call allocate);
      ]);
  let timed name metric scale f =
    probe name (fun () -> [ (metric, scale *. seconds_per_call ~min_s f) ])
  in
  timed "probe/force_feasible" "optimizer.force_feasible_us" 1e6 (fun () ->
      ignore
        (Sys.opaque_identity
           (Es_joint.Optimizer.force_feasible cfg cluster (Array.copy plans) assignment)));
  timed "probe/load_proxy" "optimizer.load_proxy_ns" 1e9 (fun () ->
      ignore (Sys.opaque_identity (Es_joint.Optimizer.load_proxy cluster ~plans assignment)));
  timed "probe/balanced_greedy" "assign.balanced_greedy_us" 1e6 (fun () ->
      ignore (Sys.opaque_identity (Es_alloc.Assign.balanced_greedy cluster ~plans)));
  timed "probe/of_decisions" "objective.of_decisions_us" 1e6 (fun () ->
      ignore (Sys.opaque_identity (Es_joint.Objective.of_decisions cluster decisions)));
  timed "probe/neurosurgeon" "baselines.neurosurgeon_ms" 1e3 (fun () ->
      ignore
        (Sys.opaque_identity
           (Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve cluster)));
  !out

let max_shards = 32

(* Replays the shard solves at the landing assignment: Shard.make, then the
   optimizer on the shard's sub-cluster with the shard config, which is
   Shard.solve without a cache or a warm start. *)
let shards ctx cluster (decisions : Decision.t array) =
  let assignment = Array.map (fun (d : Decision.t) -> d.Decision.server) decisions in
  let config = Es_scale.shard_config W.scale_config in
  let made =
    List.init (Cluster.n_servers cluster) Fun.id
    |> List.filter_map (fun server -> Es_scale.Shard.make cluster ~assignment ~server)
    |> List.filteri (fun i _ -> i < max_shards)
  in
  let times = ref [] in
  List.iter
    (fun (sh : Es_scale.Shard.t) ->
      W.op ctx "probe/shard" (fun () ->
          let sub = sh.Es_scale.Shard.part.Subcluster.cluster in
          let _, dt, _ = W.measure (fun () -> W.traced_solve ctx ~config sub) in
          times := dt :: !times))
    made;
  let sizes = List.map (fun sh -> float_of_int (Es_scale.Shard.n_devices sh)) made in
  let first =
    match made with sh :: _ -> Some sh.Es_scale.Shard.part.Subcluster.cluster | [] -> None
  in
  (W.mean_of !times, W.mean_of sizes, first)

(* The engine alone on the served arrival times, with one follow-up event
   per arrival, as Runner pre-schedules a trace. *)
let engine_replay ~min_s (served : W.served array) =
  let events = ref 0 in
  let once () =
    events := 0;
    Array.iter
      (fun (s : W.served) ->
        let e = Es_sim.Engine.create () in
        let noop () = () in
        let hop () = Es_sim.Engine.schedule e 0.001 noop in
        Array.iter (fun (t, _) -> Es_sim.Engine.schedule_at e t hop) s.W.arrivals;
        Es_sim.Engine.run e;
        events := !events + (Es_sim.Engine.stats e).Es_sim.Engine.events_processed)
      served
  in
  let per_call = seconds_per_call ~min_s once in
  1e9 *. fdiv per_call !events

(* A streaming collector fed one arrival and one completion per request. *)
let metrics_replay ~min_s (served : W.served array) ~duration =
  let requests =
    Array.fold_left (fun acc (s : W.served) -> acc + Array.length s.W.arrivals) 0 served
  in
  let once () =
    Array.iter
      (fun (s : W.served) ->
        let devices = s.W.cluster.Cluster.devices in
        let c =
          Es_sim.Metrics.create_collector ~streaming:true ~n_devices:(Array.length devices)
            ~window_start:0.0 ~window_end:duration ()
        in
        Array.iter
          (fun (t, device) ->
            Es_sim.Metrics.on_arrival c ~device ~now:t;
            Es_sim.Metrics.on_completion c ~device ~arrival:t ~now:(t +. 0.1)
              ~deadline:devices.(device).Cluster.deadline ())
          s.W.arrivals;
        ignore
          (Es_sim.Metrics.finalize c
             ~server_busy:(Array.make (Cluster.n_servers s.W.cluster) 0.0)
             ~duration))
      served
  in
  1e9 *. fdiv (seconds_per_call ~min_s once) requests

(* Thresholds no run can reach: every mechanism's per-arrival code runs and
   none fires.  The breaker only sees failures under faults, so the lax arm
   runs without them. *)
let lax_policy =
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

(* Best of two alternating rounds of each arm. *)
let paired a b =
  let ta = ref infinity and tb = ref infinity and last = ref None in
  for _ = 1 to 2 do
    let ra, da, _ = W.measure a in
    let rb, db, _ = W.measure b in
    ta := Float.min !ta da;
    tb := Float.min !tb db;
    last := Some (ra, rb)
  done;
  (!ta, !tb, Option.get !last)

let report_json r = J.to_string (Es_sim.Metrics.report_to_json r)

let lax_ratio ctx w d (s : W.served) =
  let options =
    { (W.sim_options w d) with Es_sim.Runner.faults = Es_sim.Faults.empty; resilience = None }
  in
  let run overload () =
    Es_sim.Runner.run ~options:{ options with overload } ~arrivals:s.W.arrivals s.W.cluster
      s.W.decisions
  in
  let ratio = ref nan in
  W.op ctx "probe/overload_lax" (fun () ->
      let t_off, t_lax, (r_off, r_lax) = paired (run Es_sim.Overload.off) (run lax_policy) in
      if report_json r_off <> report_json r_lax then
        raise (W.Check "armed-but-lax report differs from the unprotected one");
      ratio := t_lax /. t_off);
  !ratio

(* Runner.run and Optimizer.solve with a metrics registry and a span sink,
   over the same calls without them. *)
let traced_ratio ctx w d (s : W.served) solve_cluster =
  let options = W.sim_options w d in
  let sink _ = () in
  let run traced () =
    if traced then
      Es_sim.Runner.run ~options ~metrics:(Es_obs.Metric.create ()) ~spans:sink
        ~arrivals:s.W.arrivals s.W.cluster s.W.decisions
    else Es_sim.Runner.run ~options ~arrivals:s.W.arrivals s.W.cluster s.W.decisions
  in
  let solve traced () =
    let config = W.jmsra_config in
    if traced then
      Es_joint.Optimizer.solve ~config ~metrics:(Es_obs.Metric.create ()) ~spans:sink
        solve_cluster
    else Es_joint.Optimizer.solve ~config solve_cluster
  in
  let ratio = ref nan in
  W.op ctx "probe/obs_traced" (fun () ->
      let run_plain, run_traced, _ = paired (run false) (run true) in
      let solve_plain, solve_traced, _ = paired (solve false) (solve true) in
      ratio := (run_traced +. solve_traced) /. (run_plain +. solve_plain));
  !ratio

let span_stats tr name =
  let spans = match tr with Some t -> Spans.spans t | None -> [] in
  let hits =
    List.filter (fun (s : Es_obs.Export.span_record) -> s.Es_obs.Export.name = name) spans
  in
  (List.length hits, W.mean_of (List.map Spans.duration hits))

let median_by_kind (r : W.run) kind =
  Array.to_list r.W.delta.W.kinds
  |> List.mapi (fun k kd -> if kd = kind then r.W.delta.W.delta_s.(k) else nan)
  |> W.median_of

let measure (r : W.run) =
  let ctx = r.W.ctx and tr = r.W.ctx.W.tr in
  let cluster, decisions = landing r in
  let sim = r.W.sim in
  let served = sim.W.served in
  let events = Array.fold_left ( + ) 0 sim.W.events in
  let run_s = W.sum (Array.to_list sim.W.run_s) in
  (* Probe timings get a 200th of the run's measured seconds each. *)
  let min_s = r.W.seconds /. 200.0 in
  let kernel = kernels ctx ~min_s cluster decisions in
  let shard_s, shard_devices, first_shard = shards ctx cluster decisions in
  let replay_ns = engine_replay ~min_s served in
  let runner_ns = 1e9 *. fdiv run_s events in
  let w = r.W.workload and d = r.W.dims in
  let on_first_run f = if Array.length served = 0 then nan else f served.(0) in
  let lax = on_first_run (lax_ratio ctx w d) in
  let solve_cluster = Option.value ~default:cluster first_shard in
  let traced = on_first_run (fun s -> traced_ratio ctx w d s solve_cluster) in
  let metrics_ns = metrics_replay ~min_s served ~duration:r.W.dims.W.sim_s in
  let candidate = candidates ctx cluster in
  let iterations, iteration_s = span_stats tr "optimizer/iteration" in
  let _, scenario_s = span_stats tr "setup/scenario" in
  let _, trace_s = span_stats tr "setup/trace" in
  let sc = ctx.W.scale in
  let outcome f = float_of_int (List.fold_left (fun acc rep -> acc + f rep) 0 (W.reports r)) in
  let per_op x = fdiv x ctx.W.timed_ops in
  let open Es_sim.Metrics in
  [
    ("scenario.build_ms", 1e3 *. scenario_s);
    ("trace.build_ms", 1e3 *. trace_s);
    (* Per Optimizer.solve call, summed over its multi-start trajectories:
       each trajectory emits its own optimizer/solve root. *)
    ("optimizer.iterations", fdiv (float_of_int iterations) ctx.W.optimizer_solves);
    ("optimizer.iteration_ms", 1e3 *. iteration_s);
    ("shard.devices", shard_devices);
    ("shard.solve_ms", 1e3 *. shard_s);
    ("scale.sweeps", fdiv (float_of_int sc.W.sweeps) sc.W.calls);
    ("scale.shard_solves", fdiv (float_of_int sc.W.shard_solves) sc.W.calls);
    ("scale.moves", fdiv (float_of_int sc.W.moves) sc.W.calls);
    ("delta.rate_change_ms", 1e3 *. median_by_kind r "rate_change");
    ("delta.join_ms", 1e3 *. median_by_kind r "join");
    ("delta.leave_ms", 1e3 *. median_by_kind r "leave");
    ("engine.events", float_of_int events);
    ("engine.max_pending", float_of_int (Array.fold_left max 0 sim.W.max_pending));
    ("engine.replay_ns_per_event", replay_ns);
    ("runner.ns_per_event", runner_ns);
    ("runner.self_ns_per_event", runner_ns -. replay_ns);
    ("runner.minor_words_per_event", fdiv (W.sum (Array.to_list sim.W.run_words)) events);
    ("metrics.ns_per_request", metrics_ns);
    ("overload.lax_ratio", lax);
    ("outcomes.shed", outcome (fun rep -> rep.total_shed));
    ("outcomes.degraded", outcome (fun rep -> rep.total_degraded));
    ("outcomes.timed_out", outcome (fun rep -> rep.total_timed_out));
    ("outcomes.dropped", outcome (fun rep -> rep.total_dropped));
    ("obs.traced_ratio", traced);
    ("gc.minor_collections", per_op (float_of_int ctx.W.minor_collections));
    ("gc.major_collections", per_op (float_of_int ctx.W.major_collections));
    ("gc.promoted_words", per_op ctx.W.promoted_words);
  ]
  @ kernel @ candidate
