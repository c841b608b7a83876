open Es_edge
open Es_joint
module Exhaustive = Es_oracle.Exhaustive
module Annealing = Es_oracle.Annealing

let default_cluster = lazy (Scenario.build Scenario.default)

(* ---------- Objective ---------- *)

let test_objective_zero_misses_below_one () =
  let c = Lazy.force default_cluster in
  let out = Optimizer.solve c in
  let obj = Objective.of_decisions c out.Optimizer.decisions in
  let misses = Objective.misses c out.Optimizer.decisions in
  if misses = 0 then
    Alcotest.(check bool) "all-hit objective below 1" true (obj < 1.0)
  else Alcotest.(check bool) "objective counts misses" true (obj >= float_of_int misses)

let test_objective_ordering () =
  let c = Lazy.force default_cluster in
  let good = (Optimizer.solve c).Optimizer.decisions in
  let bad = Es_baselines.Baselines.device_only.Es_baselines.Baselines.solve c in
  Alcotest.(check bool) "optimizer beats device-only on the objective" true
    (Objective.of_decisions c good < Objective.of_decisions c bad)

(* ---------- Optimizer ---------- *)

let test_optimizer_output_valid () =
  let c = Lazy.force default_cluster in
  let out = Optimizer.solve c in
  (match Decision.validate c out.Optimizer.decisions with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one decision per device" (Cluster.n_devices c)
    (Array.length out.Optimizer.decisions);
  Alcotest.(check bool) "ran at least one iteration" true (out.Optimizer.iterations >= 1);
  Alcotest.(check bool) "trace recorded" true (List.length out.Optimizer.trace >= 1)

let test_optimizer_all_stable () =
  let c = Lazy.force default_cluster in
  let out = Optimizer.solve c in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "every device queueing-stable" true (Latency.device_stable c d))
    out.Optimizer.decisions

let test_optimizer_accuracy_floors () =
  let c = Lazy.force default_cluster in
  let out = Optimizer.solve c in
  Array.iteri
    (fun i (d : Decision.t) ->
      let dev = c.Cluster.devices.(i) in
      Alcotest.(check bool) "accuracy floor met" true
        (d.Decision.plan.Es_surgery.Plan.accuracy >= dev.Cluster.accuracy_floor -. 1e-9))
    out.Optimizer.decisions

let test_optimizer_beats_single_knob_ablations () =
  let c = Lazy.force default_cluster in
  let joint = Objective.of_decisions c (Optimizer.solve c).Optimizer.decisions in
  let surgery_only =
    Objective.of_decisions c
      (Es_baselines.Baselines.surgery_only.Es_baselines.Baselines.solve c)
  in
  let alloc_only =
    Objective.of_decisions c (Es_baselines.Baselines.alloc_only.Es_baselines.Baselines.solve c)
  in
  Alcotest.(check bool)
    (Printf.sprintf "joint %.3f <= surgery-only %.3f" joint surgery_only)
    true (joint <= surgery_only +. 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "joint %.3f <= alloc-only %.3f" joint alloc_only)
    true (joint <= alloc_only +. 1e-6)

let test_optimizer_trace_converges () =
  let c = Lazy.force default_cluster in
  let out = Optimizer.solve c in
  let objs =
    List.map (fun (t : Optimizer.trace_point) -> t.Optimizer.objective) out.Optimizer.trace
  in
  let best_seen = List.fold_left Float.min infinity objs in
  Alcotest.(check (float 1e-9)) "returned objective is the best feasible seen or better"
    (Float.min best_seen out.Optimizer.objective)
    out.Optimizer.objective

let test_optimizer_deterministic () =
  let c = Lazy.force default_cluster in
  let a = Optimizer.solve c and b = Optimizer.solve c in
  Alcotest.(check (float 1e-12)) "same objective" a.Optimizer.objective b.Optimizer.objective;
  Array.iteri
    (fun i (d : Decision.t) ->
      let d' = b.Optimizer.decisions.(i) in
      Alcotest.(check int) "same server" d.Decision.server d'.Decision.server;
      Alcotest.(check (float 1e-9)) "same bandwidth" d.Decision.bandwidth_bps
        d'.Decision.bandwidth_bps)
    a.Optimizer.decisions

let test_optimizer_single_server_no_reassign () =
  let spec = { Scenario.default with Scenario.servers = [ (Processor.edge_gpu, 300.0) ] } in
  let c = Scenario.build spec in
  let out = Optimizer.solve c in
  (match Decision.validate c out.Optimizer.decisions with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Array.iter
    (fun (d : Decision.t) ->
      if Decision.offloads d then Alcotest.(check int) "only server 0" 0 d.Decision.server)
    out.Optimizer.decisions

let test_optimizer_tiny_deadline_degrades () =
  (* Impossible deadlines: the optimizer must still return stable decisions
     (requests served, deadlines missed) rather than exploding. *)
  let spec = { Scenario.default with Scenario.deadline_range = (0.001, 0.002) } in
  let c = Scenario.build spec in
  let out = Optimizer.solve c in
  match Decision.validate c out.Optimizer.decisions with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_optimizer_overload_falls_back () =
  (* Rates far beyond cluster capacity: force_feasible must yield a valid
     (largely device-only) decision set. *)
  let spec =
    {
      Scenario.default with
      Scenario.rate_range = (200.0, 300.0);
      servers = [ (Processor.edge_cpu, 20.0) ];
    }
  in
  let c = Scenario.build spec in
  let out = Optimizer.solve c in
  match Decision.validate c out.Optimizer.decisions with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_optimizer_respects_device_memory () =
  let c = Lazy.force default_cluster in
  let out = Optimizer.solve c in
  Array.iteri
    (fun i (d : Decision.t) ->
      let dev = c.Cluster.devices.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "device %d plan fits its RAM" i)
        true
        (Es_surgery.Plan.device_mem_bytes d.Decision.plan
        <= dev.Cluster.proc.Processor.mem_bytes +. 1.0))
    out.Optimizer.decisions

(* ---------- best_plan_for_grants ---------- *)

let test_best_plan_respects_floor () =
  let c = Lazy.force default_cluster in
  for device = 0 to Cluster.n_devices c - 1 do
    let p =
      Optimizer.best_plan_for_grants ~widths:[ 1.0; 0.5 ] c ~device ~server:0
        ~bandwidth_bps:50e6 ~compute_share:0.3
    in
    let dev = c.Cluster.devices.(device) in
    Alcotest.(check bool) "floor respected" true
      (p.Es_surgery.Plan.accuracy >= dev.Cluster.accuracy_floor -. 1e-9)
  done

let test_best_plan_uses_bandwidth () =
  (* With generous resources a weak device should offload at least some work. *)
  let c = Lazy.force default_cluster in
  let weak_device =
    let best = ref 0 in
    Array.iteri
      (fun i (d : Cluster.device) ->
        if
          d.Cluster.proc.Processor.perf.Es_dnn.Profile.flops_per_s
          < c.Cluster.devices.(!best).Cluster.proc.Processor.perf.Es_dnn.Profile.flops_per_s
        then best := i)
      c.Cluster.devices;
    !best
  in
  let p =
    Optimizer.best_plan_for_grants ~widths:[ 1.0 ] c ~device:weak_device ~server:0
      ~bandwidth_bps:100e6 ~compute_share:0.9
  in
  Alcotest.(check bool) "weak device offloads" false (Es_surgery.Plan.is_device_only p)

(* ---------- Parallel determinism ---------- *)

let plan_fingerprint (p : Es_surgery.Plan.t) =
  ( p.Es_surgery.Plan.width,
    p.Es_surgery.Plan.exit_node,
    p.Es_surgery.Plan.precision,
    p.Es_surgery.Plan.cut,
    p.Es_surgery.Plan.accuracy )

let check_outputs_identical label (a : Optimizer.output) (b : Optimizer.output) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: objective bit-identical (%.17g vs %.17g)" label a.Optimizer.objective
       b.Optimizer.objective)
    true
    (a.Optimizer.objective = b.Optimizer.objective);
  Array.iteri
    (fun i (d : Decision.t) ->
      let d' = b.Optimizer.decisions.(i) in
      Alcotest.(check int) (label ^ ": same server") d.Decision.server d'.Decision.server;
      Alcotest.(check bool)
        (label ^ ": same bandwidth") true
        (d.Decision.bandwidth_bps = d'.Decision.bandwidth_bps);
      Alcotest.(check bool)
        (label ^ ": same share") true
        (d.Decision.compute_share = d'.Decision.compute_share);
      Alcotest.(check bool)
        (label ^ ": same plan") true
        (plan_fingerprint d.Decision.plan = plan_fingerprint d'.Decision.plan))
    a.Optimizer.decisions

(* The ISSUE's headline determinism contract: solve at jobs=4 is bit-identical
   to jobs=1 on every named scenario. *)
let test_solve_jobs_bit_identical () =
  List.iter
    (fun name ->
      let c = Scenario.build (Es_workload.Scenarios.by_name name) in
      let solve jobs =
        Optimizer.solve ~config:{ Optimizer.default_config with Optimizer.jobs } c
      in
      check_outputs_identical name (solve 1) (solve 4))
    [ "default"; "smart_city"; "ar_assistant"; "drone_swarm" ]

(* The solve portfolio pinned bit for bit: every (allocator, multi_start,
   warm) shape Optimizer.solve accepts, re-solving named scenarios after a
   1.7x rate shift, cold or warm from the pre-shift solve.  The recorded
   decisions, objective bits, iteration count and trace length predate the
   single fan-out and merge; 12-device smart_city is where the multi-start
   merge lands away from the single trajectory. *)
let pin_config = { Optimizer.default_config with max_iters = 4; local_search_passes = 1 }

let pin_expected =
  [
    ("smart_city-8/minmax/multi=true/cold", "eabc3d59753428c8", 4588502731925032690L, 4, 4);
    ("smart_city-8/minmax/multi=true/warm", "eabc3d59753428c8", 4588502731925032690L, 4, 4);
    ("smart_city-8/minmax/multi=false/cold", "eabc3d59753428c8", 4588502731925032690L, 4, 4);
    ("smart_city-8/minmax/multi=false/warm", "eabc3d59753428c8", 4588502731925032690L, 4, 4);
    ("smart_city-8/equal/multi=true/cold", "8c60e72579556d99", 4588711102749470950L, 4, 4);
    ("smart_city-8/equal/multi=true/warm", "8c60e72579556d99", 4588711102749470950L, 4, 4);
    ("smart_city-8/equal/multi=false/cold", "8c60e72579556d99", 4588711102749470950L, 4, 4);
    ("smart_city-8/equal/multi=false/warm", "8c60e72579556d99", 4588711102749470950L, 4, 4);
    ("drone_swarm-8/minmax/multi=true/cold", "e61f802402ef92cc", 4597215271489604188L, 4, 4);
    ("drone_swarm-8/minmax/multi=true/warm", "e61f802402ef92cc", 4597215271489604188L, 4, 4);
    ("drone_swarm-8/minmax/multi=false/cold", "e61f802402ef92cc", 4597215271489604188L, 4, 4);
    ("drone_swarm-8/minmax/multi=false/warm", "e61f802402ef92cc", 4597215271489604188L, 4, 4);
    ("drone_swarm-8/equal/multi=true/cold", "eccf7b3f60ece229", 4597215471912294880L, 4, 4);
    ("drone_swarm-8/equal/multi=true/warm", "eccf7b3f60ece229", 4597215471912294880L, 4, 4);
    ("drone_swarm-8/equal/multi=false/cold", "eccf7b3f60ece229", 4597215471912294880L, 4, 4);
    ("drone_swarm-8/equal/multi=false/warm", "eccf7b3f60ece229", 4597215471912294880L, 4, 4);
    ("smart_city-12/minmax/multi=true/cold", "2740506755692fd1", 4591516826694304215L, 4, 4);
    ("smart_city-12/minmax/multi=true/warm", "2740506755692fd1", 4591516826694304215L, 4, 4);
    ("smart_city-12/minmax/multi=false/cold", "8d2315f80fe69c07", 4592643240468785875L, 4, 4);
    ("smart_city-12/minmax/multi=false/warm", "2740506755692fd1", 4591516826694304215L, 4, 4);
    ("smart_city-12/equal/multi=true/cold", "4c600efab97f8c36", 4591808704959377157L, 4, 4);
    ("smart_city-12/equal/multi=true/warm", "4c600efab97f8c36", 4591808704959377157L, 4, 4);
    ("smart_city-12/equal/multi=false/cold", "4c600efab97f8c36", 4591808704959377157L, 4, 4);
    ("smart_city-12/equal/multi=false/warm", "4c600efab97f8c36", 4591808704959377157L, 4, 4);
  ]

let pin_runs () =
  List.concat_map
    (fun (name, n) ->
      let spec = Scenario.with_n_devices n (Es_workload.Scenarios.by_name name) in
      let cluster = Scenario.build spec in
      let incumbent = (Optimizer.solve ~config:pin_config cluster).Optimizer.decisions in
      let shifted = Online.scale_rates cluster 1.7 in
      List.concat_map
        (fun (alloc_name, allocator) ->
          List.concat_map
            (fun multi_start ->
              let config = { pin_config with Optimizer.allocator; multi_start } in
              List.map
                (fun (warm_name, warm_start) ->
                  ( Printf.sprintf "%s-%d/%s/multi=%b/%s" name n alloc_name multi_start warm_name,
                    Optimizer.solve ~config ?warm_start shifted ))
                [ ("cold", None); ("warm", Some incumbent) ])
            [ true; false ])
        [ ("minmax", Es_alloc.Policy.Minmax_alloc); ("equal", Es_alloc.Policy.Equal) ])
    [ ("smart_city", 8); ("drone_swarm", 8); ("smart_city", 12) ]

let test_solve_portfolio_pinned () =
  let runs = pin_runs () in
  Alcotest.(check int) "every pinned shape ran" (List.length pin_expected) (List.length runs);
  List.iter2
    (fun (label, (o : Optimizer.output)) (label', fp, obj_bits, iters, trace_len) ->
      Alcotest.(check string) "pin order" label' label;
      Alcotest.(check string) (label ^ ": decisions") fp
        (Decision.fingerprint o.Optimizer.decisions);
      Alcotest.(check int64) (label ^ ": objective bits") obj_bits
        (Int64.bits_of_float o.Optimizer.objective);
      Alcotest.(check int) (label ^ ": iterations") iters o.Optimizer.iterations;
      Alcotest.(check int) (label ^ ": trace length") trace_len (List.length o.Optimizer.trace))
    runs pin_expected;
  let find label = List.assoc label runs in
  List.iter
    (fun sc ->
      List.iter
        (fun alloc ->
          let prefix = Printf.sprintf "%s/%s/multi=" sc alloc in
          let cold = find (prefix ^ "true/cold") and warm = find (prefix ^ "true/warm") in
          Alcotest.(check bool)
            (prefix ^ "true: warm never worse than cold")
            true
            (warm.Optimizer.objective <= cold.Optimizer.objective))
        [ "minmax"; "equal" ];
      let on = find (sc ^ "/equal/multi=true/cold") in
      let off = find (sc ^ "/equal/multi=false/cold") in
      Alcotest.(check string)
        (sc ^ ": Equal ignores multi_start without an incumbent")
        (Decision.fingerprint off.Optimizer.decisions)
        (Decision.fingerprint on.Optimizer.decisions))
    [ "smart_city-8"; "drone_swarm-8"; "smart_city-12" ]

(* The allocation-free surgery step must pick the bit-identical plan the old
   Decision-per-candidate implementation picks, for arbitrary grants. *)
let best_plan_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"best_plan_for_grants = reference implementation"
       QCheck.(
         triple (int_range 0 1000) (float_range 0.0 200e6) (float_range 0.0 1.0))
       (fun (dev_pick, bandwidth_bps, compute_share) ->
         let c = Lazy.force default_cluster in
         let device = dev_pick mod Cluster.n_devices c in
         let server = dev_pick mod Cluster.n_servers c in
         let widths = [ 1.0; 0.75; 0.5 ] in
         let p =
           Optimizer.best_plan_for_grants ~widths c ~device ~server ~bandwidth_bps
             ~compute_share
         in
         let p' =
           Es_oracle.Optimizer.best_plan_for_grants ~widths c ~device ~server ~bandwidth_bps
             ~compute_share
         in
         plan_fingerprint p = plan_fingerprint p'))

(* The surgery scan skips candidates once an eligible, stable pick exists,
   so it must still agree with the reference on every fallback: no
   candidate meeting the floor, nothing stable, grants at 0 or past the
   radio peak, zero- and negative-RTT links, one to three servers.  Each case is one
   device on a fresh cluster; [reached] counts the reference's fallback
   taken (eligible-stable, eligible, stable, any), and every one must be
   reached. *)
let scan_models =
  lazy [| Es_dnn.Zoo.mobilenet_v2 (); Es_dnn.Zoo.yolo_tiny (); Es_dnn.Zoo.resnet18 () |]

let scan_case_of_seed seed =
  let rng = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let uniform lo hi = lo +. Random.State.float rng (hi -. lo) in
  let model = pick (Lazy.force scan_models) in
  let widths = [ 1.0; 0.75; 0.5 ] in
  let candidates = Es_surgery.Candidate.pareto_candidates ~widths model in
  let accuracy_floor =
    match Random.State.int rng 4 with
    | 0 -> 1.5 (* above every candidate *)
    | 1 -> 0.0
    | _ ->
        (List.nth candidates (Random.State.int rng (List.length candidates)))
          .Es_surgery.Plan.accuracy
  in
  let rate = if Random.State.int rng 4 = 0 then 1e5 else uniform 0.5 60.0 in
  let peak_mbps = uniform 1.0 1000.0 in
  (* Link.make takes any RTT; a negative one makes transfers cheaper than
     free, which the scan's skip must not assume away. *)
  let rtt_ms =
    match Random.State.int rng 8 with
    | 0 -> uniform (-50.0) 0.0
    | 1 | 2 | 3 -> 0.0
    | _ -> uniform 0.0 50.0
  in
  let link = Link.make ~name:"scan" ~peak_mbps ~rtt_ms () in
  let servers =
    List.init
      (1 + Random.State.int rng 3)
      (fun id ->
        Cluster.server ~id
          ~proc:(pick [| Processor.edge_cpu; Processor.edge_gpu_small; Processor.edge_gpu |])
          ~ap_bandwidth_mbps:(uniform 10.0 1000.0) ())
  in
  let device =
    Cluster.device ~id:0
      ~proc:
        (pick
           [| Processor.iot_board; Processor.raspberry_pi; Processor.smartphone;
              Processor.jetson_nano |])
      ~link ~model ~rate ~deadline:0.1 ~accuracy_floor ()
  in
  let c = Cluster.make ~devices:[ device ] ~servers in
  let peak = peak_mbps *. 1e6 in
  let bandwidth_bps =
    pick [| 0.0; 1e-3; 0.5; 1.0; uniform 1.0 peak; peak; 2.0 *. peak; 1e15 |]
  in
  let compute_share = pick [| 0.0; 1e-9; 1e-6; uniform 0.0 1.0; 1.0 |] in
  let server = Random.State.int rng (Cluster.n_servers c) in
  (c, widths, candidates, server, bandwidth_bps, compute_share)

let test_scan_fallbacks_match_reference () =
  let reached = Array.make 4 0 in
  let prop seed =
    let c, widths, candidates, server, bandwidth_bps, compute_share = scan_case_of_seed seed in
    let p =
      Optimizer.best_plan_for_grants ~widths c ~device:0 ~server ~bandwidth_bps ~compute_share
    in
    let p' =
      Es_oracle.Optimizer.best_plan_for_grants ~widths c ~device:0 ~server ~bandwidth_bps
        ~compute_share
    in
    let floor = c.Cluster.devices.(0).Cluster.accuracy_floor -. 1e-9 in
    let eligible =
      List.filter (fun (q : Es_surgery.Plan.t) -> q.Es_surgery.Plan.accuracy >= floor) candidates
    in
    let pool = if eligible = [] then candidates else eligible in
    let stable =
      List.exists
        (fun q ->
          Es_oracle.Optimizer.plan_stable c ~device:0 ~server q ~bandwidth_bps ~compute_share)
        pool
    in
    let k = (if eligible = [] then 2 else 0) + if stable then 0 else 1 in
    reached.(k) <- reached.(k) + 1;
    plan_fingerprint p = plan_fingerprint p'
    || QCheck.Test.fail_reportf "seed %d: %d servers, server %d, bw %h, share %h" seed
         (Cluster.n_servers c) server bandwidth_bps compute_share
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"surgery scan = reference on every fallback"
       QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
       prop);
  Array.iteri
    (fun k n ->
      Alcotest.(check bool)
        (Printf.sprintf "fallback %d reached (%d cases)" k n)
        true (n > 0))
    reached

(* Satellite: the final gauges must agree with the returned output even under
   parallel multi-start (they are written once from the landing point). *)
let test_final_gauges_from_landing_point () =
  let c = Lazy.force default_cluster in
  let metrics = Es_obs.Metric.create () in
  let out =
    Optimizer.solve ~config:{ Optimizer.default_config with Optimizer.jobs = 2 } ~metrics c
  in
  (match Es_obs.Metric.find metrics "optimizer/objective" with
  | Some (Es_obs.Metric.Gauge g) ->
      Alcotest.(check bool)
        (Printf.sprintf "gauge %.6f = returned %.6f" g out.Optimizer.objective)
        true
        (g = out.Optimizer.objective)
  | _ -> Alcotest.fail "optimizer/objective gauge missing");
  (match Es_obs.Metric.find metrics "optimizer/solve_time_s" with
  | Some (Es_obs.Metric.Gauge t) ->
      Alcotest.(check bool) "solve_time gauge positive and plausible" true
        (t > 0.0 && t >= out.Optimizer.solve_time_s -. 1e-6)
  | _ -> Alcotest.fail "optimizer/solve_time_s gauge missing");
  match Es_obs.Metric.find metrics "optimizer/iterations" with
  | Some (Es_obs.Metric.Counter n) ->
      (* Both trajectories report into the same counter: at least the winner's
         iterations, plausibly more. *)
      Alcotest.(check bool) "iterations summed across trajectories" true
        (n >= out.Optimizer.iterations)
  | _ -> Alcotest.fail "optimizer/iterations counter missing"

(* ---------- Exhaustive ---------- *)

(* Experiment T2's claim: on clusters small enough to search exhaustively,
   the polynomial optimizer lands within a factor (1 + t2_epsilon) of the
   optimum over the same plan grid (4 candidates per device on both sides).
   The domain is 2-4 devices of [Scenario.default], two model mixes and
   scenario seeds 1-1000.  The claim is stated for instances whose optimum
   meets every deadline: when a deadline must be missed the search is not a
   lower bound (the optimizer's fallback allocations lie outside its
   allocation step), so those draws are discarded.  Measured over all 4409
   such instances of the domain: median gap 0.00%, p90 1.12%, p99 5.62%,
   worst 25.06% (resnet50/vgg16/yolo_tiny, 4 devices, seed 144).
   [t2_epsilon] is that worst case rounded up; it was fixed before the
   property ran.  EXPERIMENTS.md T2 has the whole distribution. *)
let t2_epsilon = 0.26

let heuristic_near_optimum =
  let mixes = [ [ "alexnet"; "mobilenet_v2" ]; [ "resnet50"; "vgg16"; "yolo_tiny" ] ] in
  let instance =
    QCheck.make
      ~print:(fun (n, mix, seed) ->
        Printf.sprintf "%d devices, %s, seed %d" n (String.concat "/" mix) seed)
      QCheck.Gen.(triple (int_range 2 4) (oneofl mixes) (int_range 1 1000))
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2 |])
    (QCheck.Test.make ~count:60 ~name:"heuristic within (1+eps) of optimum" instance
       (fun (n_devices, model_names, seed) ->
         let c = Scenario.build { Scenario.default with Scenario.n_devices; seed; model_names } in
         let opt = Exhaustive.solve ~max_candidates_per_device:4 c in
         let ds = Option.value opt.Exhaustive.decisions ~default:[||] in
         QCheck.assume (ds <> [||] && Objective.misses c ds = 0);
         let config = { Optimizer.default_config with max_candidates = Some 4 } in
         let heur = (Optimizer.solve ~config c).Optimizer.objective in
         let best = opt.Exhaustive.objective in
         let bound = if best = 0.0 then t2_epsilon else (1.0 +. t2_epsilon) *. best in
         (best <= heur +. 1e-6 && heur <= bound)
         || QCheck.Test.fail_reportf "%d devices, %s, seed %d: optimum %.6f, heuristic %.6f"
              n_devices (String.concat "/" model_names) seed best heur))

let test_exhaustive_caps_instance_size () =
  let c = Scenario.build Scenario.default in
  Alcotest.(check bool) "refuses huge instances" true
    (try
       ignore (Exhaustive.solve c);
       false
     with Invalid_argument _ -> true)

(* ---------- Planner ---------- *)

let planner_config =
  (* Cheap optimizer settings: the planner calls solve many times. *)
  { Optimizer.default_config with max_iters = 4; local_search_passes = 1 }

let test_planner_bandwidth () =
  let spec = { Scenario.default with Scenario.n_devices = 8 } in
  let v = Planner.required_bandwidth_mbps ~config:planner_config spec in
  Alcotest.(check bool) "feasible within the probe range" true v.Planner.feasible;
  Alcotest.(check bool) "sane magnitude" true (v.Planner.required >= 5.0 && v.Planner.required <= 2000.0);
  (* The verdict's witness must indeed achieve zero misses at the found
     capacity (the witness, not a cold re-solve: warm-started trials may
     certify a boundary a cold descent would miss). *)
  let cluster = Scenario.build (Scenario.with_ap_mbps v.Planner.required spec) in
  let witness =
    match v.Planner.witness with
    | Some w -> w
    | None -> Alcotest.fail "feasible verdict must carry a witness"
  in
  (match Decision.validate cluster witness with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("witness invalid: " ^ e));
  Alcotest.(check int) "witness has zero queueing-aware misses at the required capacity" 0
    (Objective.mm1_misses cluster witness);
  Alcotest.(check bool) "used a handful of solves" true
    (v.Planner.solves >= 2 && v.Planner.solves <= 40)

let test_planner_load_boundary () =
  let spec = { Scenario.default with Scenario.n_devices = 8 } in
  let v = Planner.max_supported_load ~config:planner_config spec in
  Alcotest.(check bool) "supports at least nominal load" true (v.Planner.required >= 1.0);
  let cluster =
    Online.scale_rates (Scenario.build spec) v.Planner.required
  in
  let witness =
    match v.Planner.witness with
    | Some w -> w
    | None -> Alcotest.fail "feasible verdict must carry a witness"
  in
  Alcotest.(check int) "witness has zero queueing-aware misses at the boundary" 0
    (Objective.mm1_misses cluster witness)

(* ---------- Annealing ---------- *)

let test_annealing_valid_output () =
  let c = Lazy.force default_cluster in
  let out = Annealing.solve ~iterations:300 c in
  (match Decision.validate c out.Annealing.decisions with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "covers devices" (Cluster.n_devices c)
    (Array.length out.Annealing.decisions);
  Alcotest.(check bool) "evaluated some states" true (out.Annealing.evaluated > 100);
  Array.iter
    (fun d -> Alcotest.(check bool) "stable" true (Latency.device_stable c d))
    out.Annealing.decisions

let test_annealing_deterministic_per_seed () =
  let c = Lazy.force default_cluster in
  let a = Annealing.solve ~iterations:200 c and b = Annealing.solve ~iterations:200 c in
  Alcotest.(check (float 1e-12)) "same objective" a.Annealing.objective b.Annealing.objective

let test_annealing_improves_with_budget () =
  let c = Lazy.force default_cluster in
  let short = Annealing.solve ~iterations:50 c in
  let long = Annealing.solve ~iterations:3000 c in
  Alcotest.(check bool)
    (Printf.sprintf "3000 iters (%.4f) <= 50 iters (%.4f)" long.Annealing.objective
       short.Annealing.objective)
    true
    (long.Annealing.objective <= short.Annealing.objective +. 1e-9)

let test_jmsra_competitive_with_annealing () =
  let c = Lazy.force default_cluster in
  let jm = Optimizer.solve c in
  let sa = Annealing.solve c in
  (* The structured search must at least match the generic metaheuristic at
     its default budget — the F12 claim. *)
  Alcotest.(check bool)
    (Printf.sprintf "JMSRA %.4f <= SA %.4f + slack" jm.Optimizer.objective
       sa.Annealing.objective)
    true
    (jm.Optimizer.objective <= sa.Annealing.objective +. 0.05)

(* ---------- Online ---------- *)

let test_online_scale_rates () =
  let c = Lazy.force default_cluster in
  let c2 = Online.scale_rates c 2.0 in
  Array.iteri
    (fun i (d : Cluster.device) ->
      Alcotest.(check (float 1e-9)) "doubled"
        (2.0 *. c.Cluster.devices.(i).Cluster.rate)
        d.Cluster.rate)
    c2.Cluster.devices;
  List.iter
    (fun m ->
      match Online.scale_rates c m with
      | _ -> Alcotest.failf "multiplier %g accepted" m
      | exception Invalid_argument _ -> ())
    [ 0.0; -1.0; Float.nan; Float.infinity; Float.max_float ]

let test_online_burst_beats_static () =
  (* Under a 3x burst the re-optimizing scheduler should satisfy at least as
     many deadlines as the static one. *)
  let c = Lazy.force default_cluster in
  let profile = Es_workload.Profiles.step_burst ~start_s:20.0 ~stop_s:40.0 ~factor:3.0 in
  let options = { Es_sim.Runner.default_options with duration_s = 60.0; warmup_s = 5.0 } in
  let adaptive = Online.run ~options ~epoch_s:10.0 ~rate_profile:profile c in
  let static = Online.run_static ~options ~rate_profile:profile c in
  Alcotest.(check bool) "re-optimized at every epoch" true (adaptive.Online.resolve_count = 6);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive DSR %.3f >= static %.3f - slack"
       adaptive.Online.report.Es_sim.Metrics.dsr static.Online.report.Es_sim.Metrics.dsr)
    true
    (adaptive.Online.report.Es_sim.Metrics.dsr
     >= static.Online.report.Es_sim.Metrics.dsr -. 0.02)

let test_online_static_is_one_epoch () =
  (* The static arm is the online loop with a single epoch spanning the run:
     one solve at the t = 0 load, never revisited. *)
  let c = Scenario.build (Scenario.with_n_devices 6 Scenario.default) in
  let profile = Es_workload.Profiles.step_burst ~start_s:6.0 ~stop_s:12.0 ~factor:3.0 in
  let options = { Es_sim.Runner.default_options with duration_s = 18.0; warmup_s = 2.0 } in
  let static = Online.run_static ~options ~rate_profile:profile c in
  let one_epoch = Online.run ~options ~epoch_s:18.0 ~rate_profile:profile c in
  Alcotest.(check int) "one solve" 1 static.Online.resolve_count;
  Alcotest.(check bool) "same result" true (compare static one_epoch = 0);
  Alcotest.check_raises "NaN horizon" (Invalid_argument "Online.run: NaN duration_s") (fun () ->
      ignore (Online.run_static ~options:{ options with duration_s = nan } ~rate_profile:profile c))

let test_online_guard_uses_runner_check () =
  (* Epoch 1 runs everything locally; epoch 2's candidate is the optimizer's
     solution with one offloader's compute share zeroed.  It scores better
     than the all-local incumbent, but the runner would refuse it, so the
     guard must keep the incumbent rather than hand the runner a decision
     it raises on. *)
  let c = Lazy.force default_cluster in
  let local = Es_sim.Overload.local_decisions c in
  let starved =
    let ds = Array.copy (Optimizer.solve c).Optimizer.decisions in
    let i =
      let rec find i =
        if Decision.offloads ds.(i) && Es_surgery.Plan.srv_flops ds.(i).Decision.plan > 0.0
        then i
        else find (i + 1)
      in
      find 0
    in
    ds.(i) <- { (ds.(i)) with Decision.compute_share = 0.0 };
    ds
  in
  Alcotest.(check bool) "the starved candidate scores better than all-local" true
    (Objective.of_decisions c starved < Objective.of_decisions c local);
  Alcotest.(check bool) "the runner refuses it" true
    (Result.is_error (Es_sim.Runner.check_decisions c starved));
  let epoch = ref 0 in
  let solver ~warm:_ _ =
    incr epoch;
    let decisions = if !epoch = 1 then local else starved in
    { Optimizer.decisions; objective = 0.0; iterations = 0; trace = []; solve_time_s = 0.0 }
  in
  let options = { Es_sim.Runner.default_options with duration_s = 20.0; warmup_s = 2.0 } in
  let r = Online.run ~options ~solver ~epoch_s:10.0 ~rate_profile:(fun _ -> 1.0) c in
  Alcotest.(check int) "two epochs solved" 2 r.Online.resolve_count;
  Alcotest.(check int) "epoch 2 rejected" 1 r.Online.resolve_rejected;
  Alcotest.(check bool) "incumbent kept" true
    (List.for_all (fun (_, ds) -> ds == local) r.Online.schedule)

(* ---------- Zero-allocation kernels vs their oracles (DESIGN.md §15) ---------- *)

(* Bit-pattern equality: stricter than (=), which conflates 0.0 and -0.0. *)
let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

let solved =
  lazy
    (let c = Lazy.force default_cluster in
     (c, Optimizer.solve ~config:{ Optimizer.default_config with Optimizer.jobs = 1 } c))

let test_objective_flat_matches_ref () =
  let c, out = Lazy.force solved in
  let check_set label ds =
    Alcotest.(check bool)
      (label ^ ": of_decisions bit-identical")
      true
      (feq (Objective.of_decisions c ds) (Es_oracle.Objective.of_decisions c ds));
    Alcotest.(check int) (label ^ ": misses") (Es_oracle.Objective.misses c ds)
      (Objective.misses c ds);
    Alcotest.(check int)
      (label ^ ": mm1_misses")
      (Es_oracle.Objective.mm1_misses c ds)
      (Objective.mm1_misses c ds)
  in
  check_set "solved" out.Optimizer.decisions;
  (* Quartered grants force deadline misses and mm1 saturation, so the miss
     branches of the flat kernels get exercised too. *)
  let starved =
    Array.map
      (fun (d : Decision.t) ->
        if d.Decision.bandwidth_bps > 0.0 then
          Decision.make ~device:d.Decision.device ~server:d.Decision.server
            ~plan:d.Decision.plan
            ~bandwidth_bps:(0.25 *. d.Decision.bandwidth_bps)
            ~compute_share:(0.25 *. d.Decision.compute_share) ()
        else d)
      out.Optimizer.decisions
  in
  check_set "starved" starved

let test_force_feasible_matches_ref () =
  (* High-rate devices against one modest server: every device offloading
     its full model cannot be stable, so both implementations must walk the
     same flip sequence. *)
  let c =
    let model = Es_dnn.Zoo.resnet18 () in
    let devices =
      List.init 12 (fun i ->
          Cluster.device ~id:i ~proc:Processor.raspberry_pi ~link:Link.wifi ~model
            ~rate:30.0 ~deadline:0.05 ())
    in
    let servers =
      [ Cluster.server ~id:0 ~proc:Processor.edge_gpu ~ap_bandwidth_mbps:100.0 () ]
    in
    Cluster.make ~devices ~servers
  in
  let n = Cluster.n_devices c in
  let config = { Optimizer.default_config with Optimizer.jobs = 1 } in
  let fresh () =
    Array.init n (fun i ->
        Es_surgery.Plan.server_only c.Cluster.devices.(i).Cluster.model)
  in
  let assignment = Array.make n 0 in
  let p = fresh () and p' = fresh () in
  let r = Optimizer.force_feasible config c p assignment in
  let r' = Es_oracle.Optimizer.force_feasible config c p' (Array.copy assignment) in
  (match (r, r') with
  | Some d, Some d' ->
      Alcotest.(check int) "same arity" (Array.length d) (Array.length d');
      Array.iteri
        (fun i (x : Decision.t) ->
          let y = d'.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "decision %d identical" i)
            true
            (x.Decision.server = y.Decision.server
            && feq x.Decision.bandwidth_bps y.Decision.bandwidth_bps
            && feq x.Decision.compute_share y.Decision.compute_share
            && plan_fingerprint x.Decision.plan = plan_fingerprint y.Decision.plan))
        d
  | None, None -> ()
  | _ -> Alcotest.fail "force_feasible and its oracle diverged on feasibility");
  Array.iteri
    (fun i q ->
      Alcotest.(check bool)
        (Printf.sprintf "plan flip %d identical" i)
        true
        (plan_fingerprint q = plan_fingerprint p'.(i)))
    p;
  Alcotest.(check bool) "overload actually forced flips" true
    (Array.exists Es_surgery.Plan.is_device_only p)

let test_assignment_helpers_match_ref () =
  let c, out = Lazy.force solved in
  let plans = Array.map (fun (d : Decision.t) -> d.Decision.plan) out.Optimizer.decisions in
  let asg = Array.map (fun (d : Decision.t) -> d.Decision.server) out.Optimizer.decisions in
  let rotated = Array.map (fun s -> (s + 1) mod Cluster.n_servers c) asg in
  List.iter
    (fun assignment ->
      Alcotest.(check bool) "load_proxy bit-identical" true
        (feq
           (Optimizer.load_proxy c ~plans assignment)
           (Es_oracle.Optimizer.load_proxy c ~plans assignment)))
    [ asg; rotated ]

(* A random cluster of 1-4 servers and one random plan per device: a random
   cut at a random precision, device-only (zero demand, inert placement)
   with probability [local].  [tied] draws exact demand ties between
   offloaders too: equal rates, two models, fp32 cuts at the input or the
   middle. *)
let random_assignment_instance ?(tied = false) ~local (n_servers, n_devices, seed) =
  let servers =
    List.filteri
      (fun i _ -> i < n_servers)
      [
        (Processor.edge_gpu, 400.0);
        (Processor.edge_cpu, 300.0);
        (Processor.edge_gpu_small, 200.0);
        (Processor.edge_cpu, 100.0);
      ]
  in
  let spec = { Scenario.default with Scenario.seed; n_devices; servers } in
  let spec =
    if tied then
      {
        spec with
        Scenario.rate_range = (1.0, 1.0);
        model_names = [ "alexnet"; "mobilenet_v2" ];
      }
    else spec
  in
  let c = Scenario.build spec in
  let rng = Random.State.make [| seed |] in
  let plans =
    Array.map
      (fun (dev : Cluster.device) ->
        let precision =
          if tied then Es_surgery.Precision.Fp32
          else List.nth Es_surgery.Precision.all (Random.State.int rng 3)
        in
        let p = Es_surgery.Plan.make ~precision dev.Cluster.model in
        let n = Es_dnn.Graph.n_nodes p.Es_surgery.Plan.graph in
        if Random.State.float rng 1.0 < local then Es_surgery.Plan.with_cut p n
        else
          Es_surgery.Plan.with_cut p
            (if tied then Random.State.int rng 2 * (n / 2) else Random.State.int rng n))
      c.Cluster.devices
  in
  (c, plans, rng)

let assignment_instance ~max_devices =
  QCheck.make
    ~print:(fun (ns, nd, seed) -> Printf.sprintf "%d servers, %d devices, seed %d" ns nd seed)
    QCheck.Gen.(triple (int_range 1 4) (int_range 1 max_devices) (int_range 1 10_000))

(* One load table serves every evaluation of a local search: walked through
   moves and swaps (from a start that leaves the last server empty), each
   value must be the reference's, bit for bit. *)
let load_table_matches_ref =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"one load table prices moves and swaps like the reference"
       (assignment_instance ~max_devices:12)
       (fun ((n_servers, n_devices, _) as instance) ->
         let c, plans, rng = random_assignment_instance ~local:0.3 instance in
         let a = Array.init n_devices (fun _ -> Random.State.int rng (max 1 (n_servers - 1))) in
         let eval = Optimizer.load_proxy c ~plans in
         let check step =
           let v = eval a and v' = Es_oracle.Optimizer.load_proxy c ~plans a in
           Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v')
           || QCheck.Test.fail_reportf "step %d: table %h, reference %h" step v v'
         in
         let ok = ref (check 0) in
         for step = 1 to 40 do
           let i = Random.State.int rng n_devices in
           (if Random.State.bool rng then a.(i) <- Random.State.int rng n_servers
            else
              let j = Random.State.int rng n_devices in
              let ai = a.(i) in
              a.(i) <- a.(j);
              a.(j) <- ai);
           ok := !ok && check step
         done;
         !ok))

(* A result or the Invalid_argument message, so that raising the same
   error counts as agreeing. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let same_decisions a b =
  match (a, b) with
  | Ok None, Ok None -> true
  | Ok (Some d), Ok (Some d') ->
      Array.length d = Array.length d'
      && Array.for_all2
           (fun (x : Decision.t) (y : Decision.t) ->
             x.Decision.device = y.Decision.device
             && x.Decision.server = y.Decision.server
             && x.Decision.plan == y.Decision.plan
             && feq x.Decision.bandwidth_bps y.Decision.bandwidth_bps
             && feq x.Decision.compute_share y.Decision.compute_share)
           d d'
  | Error m, Error m' -> m = m'
  | _ -> false

(* The staged allocation path against the list path it replaced: every
   rule's [Policy.decisions], and the allocation step's one decision set
   against the reference that builds and scores all three, bit for bit,
   under the greedy placement and under a random one (often overloaded,
   so infeasible min-max servers and unstable share rules show up). *)
let allocation_step_matches_ref =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"staged allocation = list allocation (bit-exact)"
       (assignment_instance ~max_devices:24)
       (fun ((n_servers, n_devices, _) as instance) ->
         let c, plans, rng = random_assignment_instance ~local:0.3 instance in
         let random = Array.init n_devices (fun _ -> Random.State.int rng n_servers) in
         List.for_all
           (fun assignment ->
             List.for_all
               (fun allocator ->
                 same_decisions
                   (outcome (fun () -> Es_alloc.Policy.decisions allocator c ~assignment ~plans))
                   (outcome (fun () -> Es_oracle.Policy.decisions allocator c ~assignment ~plans))
                 && same_decisions
                      (outcome (fun () -> Optimizer.best_allocation ~allocator c ~assignment ~plans))
                      (outcome (fun () ->
                           Es_oracle.Optimizer.best_allocation ~allocator c ~assignment ~plans)))
               Es_alloc.Policy.[ Minmax_alloc; Sum_sqrt; Equal; Proportional ])
           [ Es_alloc.Assign.balanced_greedy c ~plans; random ]))

(* The allocation step builds one decision set: its words stay within
   those of one [Policy.decisions] call (staging plus one decision array)
   and 64 words for the grant-array borrows and the candidates' scores. *)
let test_best_allocation_words () =
  let c, out = Lazy.force solved in
  let plans = Array.map (fun (d : Decision.t) -> d.Decision.plan) out.Optimizer.decisions in
  let assignment = Array.map (fun (d : Decision.t) -> d.Decision.server) out.Optimizer.decisions in
  let sink = ref None in
  let step =
    Es_util.Alloc_probe.minor_words (fun () ->
        sink := Optimizer.best_allocation c ~assignment ~plans)
  in
  let one =
    Es_util.Alloc_probe.minor_words (fun () ->
        sink := Es_alloc.Policy.decisions Es_alloc.Policy.Proportional c ~assignment ~plans)
  in
  Alcotest.(check bool) "the step allocates" true (Option.is_some !sink);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= one decision set's %.0f + 64" step one)
    true
    (step <= one +. 64.0)

(* The greedy sorts on a precomputed demand array with the comparator the
   reference evaluates per comparison.  Heapsort is unstable, so the order
   among equal demands is the sort's own; every other instance is [tied] so
   that many offloaders share a demand, the case where an order change
   would move a device (zero-demand device-only ties are placed last, on
   final loads, so their order cannot show). *)
let greedy_matches_ref =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"balanced_greedy = reference implementation"
       (assignment_instance ~max_devices:40)
       (fun ((_, _, seed) as instance) ->
         let c, plans, _ =
           random_assignment_instance ~tied:(seed mod 2 = 0) ~local:0.4 instance
         in
         Es_alloc.Assign.balanced_greedy c ~plans = Es_oracle.Assign.balanced_greedy c ~plans))

(* An evaluation sums table cells into the evaluator's own accumulators:
   the only allocation is the returned float's box (header + payload). *)
let test_load_proxy_eval_alloc () =
  let c, out = Lazy.force solved in
  let plans = Array.map (fun (d : Decision.t) -> d.Decision.plan) out.Optimizer.decisions in
  let asg = Array.map (fun (d : Decision.t) -> d.Decision.server) out.Optimizer.decisions in
  let eval = Optimizer.load_proxy c ~plans in
  let sink = ref 0.0 in
  let words = Es_util.Alloc_probe.minor_words (fun () -> sink := eval asg) in
  Alcotest.(check bool)
    (Printf.sprintf "one evaluation allocates %.0f words (at most the 2-word box)" words)
    true (words <= 2.0);
  ignore (Sys.opaque_identity !sink)

(* The ISSUE's headline claim: a steady-state surgery scan — the innermost
   solver loop — allocates nothing on the minor heap.  Grants are literals
   so the call site doesn't box them. *)
let test_best_scored_zero_alloc () =
  let c = Lazy.force default_cluster in
  let pool = Optimizer.device_pool ~widths:[ 1.0; 0.75; 0.5 ] c ~device:0 in
  let sink =
    ref (Optimizer.best_scored c ~device:0 ~server:0 pool ~bandwidth_bps:50e6
           ~compute_share:0.5)
  in
  let thunk () =
    sink :=
      Optimizer.best_scored c ~device:0 ~server:0 pool ~bandwidth_bps:50e6
        ~compute_share:0.5
  in
  let words = Es_util.Alloc_probe.minor_words thunk in
  Alcotest.(check (float 0.0))
    "steady-state surgery scan allocates zero minor-heap words" 0.0 words;
  ignore (Sys.opaque_identity !sink)

let () =
  Alcotest.run "es_joint"
    [
      ( "objective",
        [
          Alcotest.test_case "scale" `Quick test_objective_zero_misses_below_one;
          Alcotest.test_case "ordering" `Quick test_objective_ordering;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "valid output" `Quick test_optimizer_output_valid;
          Alcotest.test_case "all stable" `Quick test_optimizer_all_stable;
          Alcotest.test_case "accuracy floors" `Quick test_optimizer_accuracy_floors;
          Alcotest.test_case "beats ablations" `Quick test_optimizer_beats_single_knob_ablations;
          Alcotest.test_case "trace converges" `Quick test_optimizer_trace_converges;
          Alcotest.test_case "deterministic" `Quick test_optimizer_deterministic;
          Alcotest.test_case "single server" `Quick test_optimizer_single_server_no_reassign;
          Alcotest.test_case "tiny deadlines" `Quick test_optimizer_tiny_deadline_degrades;
          Alcotest.test_case "overload fallback" `Quick test_optimizer_overload_falls_back;
          Alcotest.test_case "memory respected" `Quick test_optimizer_respects_device_memory;
          Alcotest.test_case "best plan floor" `Quick test_best_plan_respects_floor;
          Alcotest.test_case "best plan offloads" `Quick test_best_plan_uses_bandwidth;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "solve jobs=4 = jobs=1 (named scenarios)" `Slow
            test_solve_jobs_bit_identical;
          best_plan_matches_reference;
          Alcotest.test_case "surgery scan fallbacks = reference" `Quick
            test_scan_fallbacks_match_reference;
          Alcotest.test_case "final gauges from landing point" `Quick
            test_final_gauges_from_landing_point;
          Alcotest.test_case "solve portfolio pinned" `Quick test_solve_portfolio_pinned;
        ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "objective oracles" `Quick test_objective_flat_matches_ref;
          Alcotest.test_case "force_feasible oracle" `Quick test_force_feasible_matches_ref;
          Alcotest.test_case "assignment helpers oracle" `Quick
            test_assignment_helpers_match_ref;
          Alcotest.test_case "best_scored zero minor words" `Quick
            test_best_scored_zero_alloc;
          load_table_matches_ref;
          greedy_matches_ref;
          allocation_step_matches_ref;
          Alcotest.test_case "best_allocation builds one decision set" `Quick
            test_best_allocation_words;
          Alcotest.test_case "load_proxy evaluation allocates only its result" `Quick
            test_load_proxy_eval_alloc;
        ] );
      ( "exhaustive",
        [
          heuristic_near_optimum;
          Alcotest.test_case "instance cap" `Quick test_exhaustive_caps_instance_size;
        ] );
      ( "planner",
        [
          Alcotest.test_case "required bandwidth" `Slow test_planner_bandwidth;
          Alcotest.test_case "load boundary" `Slow test_planner_load_boundary;
        ] );
      ( "annealing",
        [
          Alcotest.test_case "valid output" `Quick test_annealing_valid_output;
          Alcotest.test_case "deterministic" `Quick test_annealing_deterministic_per_seed;
          Alcotest.test_case "budget monotone" `Slow test_annealing_improves_with_budget;
          Alcotest.test_case "jmsra competitive" `Slow test_jmsra_competitive_with_annealing;
        ] );
      ( "online",
        [
          Alcotest.test_case "scale rates" `Quick test_online_scale_rates;
          Alcotest.test_case "burst adaptivity" `Slow test_online_burst_beats_static;
          Alcotest.test_case "static is one epoch" `Quick test_online_static_is_one_epoch;
          Alcotest.test_case "guard uses the runner's check" `Quick
            test_online_guard_uses_runner_check;
        ] );
    ]
