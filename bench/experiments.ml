(* One function per reconstructed table/figure (see DESIGN.md §4 and
   EXPERIMENTS.md).  Every function prints the table/series the figure would
   plot. *)

open Es_edge
open Common

(* ------------------------------------------------------------------ *)
(* T1 — model zoo inventory                                            *)
(* ------------------------------------------------------------------ *)

let t1 () =
  heading "T1" "Model zoo inventory (layer DAGs, costs, surgery space)";
  let rpi = Processor.raspberry_pi.Processor.perf in
  let gpu = Processor.edge_gpu.Processor.perf in
  let rows =
    List.map
      (fun g ->
        let cands = Es_surgery.Candidate.pareto_candidates g in
        [
          g.Es_dnn.Graph.name;
          string_of_int (Es_dnn.Graph.n_nodes g);
          fmt_f ~digits:2 (Es_dnn.Graph.total_flops g /. 1e9);
          fmt_f ~digits:2 (Es_dnn.Graph.total_params g /. 1e6);
          string_of_int (List.length (Es_dnn.Graph.exit_candidate_ids g));
          string_of_int (List.length cands);
          fmt_ms (Es_dnn.Profile.total_latency rpi g);
          fmt_ms (Es_dnn.Profile.total_latency gpu g);
        ])
      (Es_dnn.Zoo.all ())
  in
  print_table
    ~align:[ Es_util.Table.Left ]
    ~header:
      [ "model"; "nodes"; "GFLOPs"; "Mparams"; "exits"; "pareto-plans"; "rpi(ms)"; "gpu(ms)" ]
    rows

(* ------------------------------------------------------------------ *)
(* T2 — optimality gap vs the exhaustive solver                        *)
(* ------------------------------------------------------------------ *)

let t2 () =
  heading "T2" "Optimality gap: JMSRA heuristic vs exhaustive search (tiny instances)";
  note "Same subsampled plan grid (4 candidates/device) for both solvers.";
  let rows = ref [] in
  List.iter
    (fun n_devices ->
      List.iter
        (fun seed ->
          let spec =
            {
              Scenario.default with
              Scenario.n_devices;
              seed;
              model_names = [ "alexnet"; "mobilenet_v2" ];
            }
          in
          let cluster = Scenario.build spec in
          let opt = Es_joint.Exhaustive.solve ~max_candidates_per_device:4 cluster in
          let config =
            { Es_joint.Optimizer.default_config with max_candidates = Some 4 }
          in
          let heur = Es_joint.Optimizer.solve ~config cluster in
          let gap =
            if opt.Es_joint.Exhaustive.objective > 0.0 then
              100.0
              *. (heur.Es_joint.Optimizer.objective -. opt.Es_joint.Exhaustive.objective)
              /. opt.Es_joint.Exhaustive.objective
            else 0.0
          in
          rows :=
            [
              string_of_int n_devices;
              string_of_int seed;
              fmt_f ~digits:4 opt.Es_joint.Exhaustive.objective;
              fmt_f ~digits:4 heur.Es_joint.Optimizer.objective;
              fmt_f ~digits:2 gap;
              string_of_int opt.Es_joint.Exhaustive.combinations;
              fmt_f ~digits:3 opt.Es_joint.Exhaustive.solve_time_s;
              fmt_f ~digits:3 heur.Es_joint.Optimizer.solve_time_s;
            ]
            :: !rows)
        [ 1; 2 ])
    [ 2; 3; 4 ];
  print_table
    ~header:
      [ "devices"; "seed"; "optimal"; "JMSRA"; "gap(%)"; "combos"; "opt(s)"; "jmsra(s)" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* F1 — latency CDF on the default scenario                            *)
(* ------------------------------------------------------------------ *)

let f1 () =
  heading "F1" "End-to-end latency CDF, default scenario (20 devices, 2 servers)";
  let cluster = Scenario.build Scenario.default in
  let percentiles = [ 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0 ] in
  let results =
    List.map
      (fun (p : Es_baselines.Baselines.t) ->
        let _, report = run_policy cluster p in
        (p.Es_baselines.Baselines.name, report))
      (policies ())
  in
  let rows =
    List.map
      (fun pct ->
        Printf.sprintf "p%.0f" pct
        :: List.map
             (fun (_, (r : Es_sim.Metrics.report)) ->
               if Array.length r.Es_sim.Metrics.latencies = 0 then "-"
               else fmt_ms (Es_util.Stats.percentile r.Es_sim.Metrics.latencies pct))
             results)
      percentiles
  in
  print_table
    ~align:[ Es_util.Table.Left ]
    ~header:("latency(ms)" :: List.map fst results)
    rows;
  let dsr_row =
    "DSR(%)" :: List.map (fun (_, r) -> fmt_pct r.Es_sim.Metrics.dsr) results
  in
  print_table ~align:[ Es_util.Table.Left ] ~header:("" :: List.map fst results) [ dsr_row ]

(* ------------------------------------------------------------------ *)
(* F2 — scalability with the number of devices                         *)
(* ------------------------------------------------------------------ *)

let f2 () =
  heading "F2" "Scalability: latency and DSR vs number of devices";
  let sizes = [ 5; 10; 20; 40; 80 ] in
  let pols = core_policies () in
  (* Clusters are built up front (cheap, deterministic); the independent
     (size × policy) cells then fan out across domains under --jobs. *)
  let clusters =
    List.map (fun n -> (n, Scenario.build (Scenario.with_n_devices n Scenario.default))) sizes
  in
  let cells =
    List.concat_map
      (fun (n, cluster) ->
        List.map
          (fun p () ->
            let _, r = run_policy ~point:(Printf.sprintf "devices=%d" n) cluster p in
            r)
          pols)
      clusters
  in
  let reports = parallel_cells cells in
  let npols = List.length pols in
  let results =
    List.mapi
      (fun i n -> (n, List.filteri (fun j _ -> j / npols = i) reports))
      sizes
  in
  let header = "devices" :: List.map (fun (p : Es_baselines.Baselines.t) -> p.Es_baselines.Baselines.name) pols in
  let table metric label =
    note "%s:" label;
    print_table ~header
      (List.map
         (fun (n, rs) -> string_of_int n :: List.map metric rs)
         results)
  in
  table (fun (r : Es_sim.Metrics.report) -> fmt_ms r.Es_sim.Metrics.mean_latency_s) "mean latency (ms)";
  table (fun (r : Es_sim.Metrics.report) -> fmt_ms r.Es_sim.Metrics.p99_s) "p99 latency (ms)";
  table (fun (r : Es_sim.Metrics.report) -> fmt_pct r.Es_sim.Metrics.dsr) "deadline satisfaction (%)"

(* ------------------------------------------------------------------ *)
(* F3 — deadline satisfaction vs offered load                          *)
(* ------------------------------------------------------------------ *)

let f3 () =
  heading "F3" "Deadline-satisfaction ratio vs arrival-rate multiplier";
  let multipliers = [ 0.5; 1.0; 2.0; 3.0; 4.0; 6.0 ] in
  let base = Scenario.build Scenario.default in
  let pols = core_policies () in
  let header = "rate-x" :: List.map (fun (p : Es_baselines.Baselines.t) -> p.Es_baselines.Baselines.name) pols in
  let cells =
    List.concat_map
      (fun m ->
        let cluster = Es_joint.Online.scale_rates base m in
        List.map
          (fun p () ->
            let _, r = run_policy ~point:(Printf.sprintf "rate=%.1f" m) cluster p in
            fmt_pct r.Es_sim.Metrics.dsr)
          pols)
      multipliers
  in
  let dsrs = parallel_cells cells in
  let npols = List.length pols in
  let rows =
    List.mapi
      (fun i m -> fmt_f ~digits:1 m :: List.filteri (fun j _ -> j / npols = i) dsrs)
      multipliers
  in
  print_table ~header rows

(* ------------------------------------------------------------------ *)
(* F4 — impact of uplink bandwidth                                     *)
(* ------------------------------------------------------------------ *)

let f4 () =
  heading "F4" "Mean latency vs access-point bandwidth";
  let mbps = [ 10.0; 25.0; 50.0; 100.0; 200.0; 400.0 ] in
  let pols = core_policies () in
  let header = "AP(Mbps)" :: List.map (fun (p : Es_baselines.Baselines.t) -> p.Es_baselines.Baselines.name) pols in
  let cells =
    List.concat_map
      (fun b ->
        let cluster = Scenario.build (Scenario.with_ap_mbps b Scenario.default) in
        List.map
          (fun p () -> snd (run_policy ~point:(Printf.sprintf "ap_mbps=%.0f" b) cluster p))
          pols)
      mbps
  in
  let reports = parallel_cells cells in
  let npols = List.length pols in
  let per_point i = List.filteri (fun j _ -> j / npols = i) reports in
  let mean_rows =
    List.mapi
      (fun i b ->
        fmt_f ~digits:0 b
        :: List.map
             (fun (r : Es_sim.Metrics.report) -> fmt_ms r.Es_sim.Metrics.mean_latency_s)
             (per_point i))
      mbps
  in
  let dsr_rows =
    List.mapi
      (fun i b ->
        fmt_f ~digits:0 b
        :: List.map (fun (r : Es_sim.Metrics.report) -> fmt_pct r.Es_sim.Metrics.dsr) (per_point i))
      mbps
  in
  note "mean latency (ms):";
  print_table ~header mean_rows;
  note "deadline satisfaction (%%):";
  print_table ~header dsr_rows

(* ------------------------------------------------------------------ *)
(* F5 — accuracy/latency trade-off                                     *)
(* ------------------------------------------------------------------ *)

let f5 () =
  heading "F5" "Accuracy-latency trade-off: EdgeSurgeon under tightening accuracy floors";
  let floors = [ 0.70; 0.80; 0.85; 0.90; 0.95; 0.99 ] in
  let rows =
    List.map
      (fun f ->
        let spec = { Scenario.default with Scenario.accuracy_slack = (f, f) } in
        let cluster = Scenario.build spec in
        let decisions, report = run_policy cluster Es_baselines.Baselines.edgesurgeon in
        let surgical =
          Array.fold_left
            (fun acc (d : Decision.t) ->
              let p = d.Decision.plan in
              if p.Es_surgery.Plan.width < 1.0 || p.Es_surgery.Plan.exit_node <> None then acc + 1
              else acc)
            0 decisions
        in
        [
          fmt_f ~digits:2 f;
          fmt_f ~digits:3 (mean_accuracy decisions);
          fmt_ms report.Es_sim.Metrics.mean_latency_s;
          fmt_ms report.Es_sim.Metrics.p99_s;
          fmt_pct report.Es_sim.Metrics.dsr;
          Printf.sprintf "%d/%d" surgical (Array.length decisions);
        ])
      floors
  in
  print_table
    ~header:[ "floor(rel)"; "mean-acc"; "mean(ms)"; "p99(ms)"; "DSR(%)"; "surgical-plans" ]
    rows

(* ------------------------------------------------------------------ *)
(* F6 — server heterogeneity                                           *)
(* ------------------------------------------------------------------ *)

let f6 () =
  heading "F6" "Impact of server heterogeneity (total capacity fixed, skewed split)";
  let skews = [ (1.0, 1.0); (1.4, 0.6); (1.7, 0.3); (1.9, 0.1) ] in
  let pols = core_policies () in
  let header =
    "skew" :: List.map (fun (p : Es_baselines.Baselines.t) -> p.Es_baselines.Baselines.name) pols
  in
  let dsr_rows = ref [] and mean_rows = ref [] in
  List.iter
    (fun (a, b) ->
      let spec =
        {
          Scenario.default with
          Scenario.servers =
            [
              (Processor.scaled Processor.edge_gpu_small a, 350.0);
              (Processor.scaled Processor.edge_gpu_small b, 350.0);
            ];
        }
      in
      let cluster = Scenario.build spec in
      let reports = List.map (fun p -> snd (run_policy cluster p)) pols in
      let label = Printf.sprintf "%.1f:%.1f" a b in
      dsr_rows :=
        (label :: List.map (fun (r : Es_sim.Metrics.report) -> fmt_pct r.Es_sim.Metrics.dsr) reports)
        :: !dsr_rows;
      mean_rows :=
        (label
        :: List.map (fun (r : Es_sim.Metrics.report) -> fmt_ms r.Es_sim.Metrics.mean_latency_s) reports)
        :: !mean_rows)
    skews;
  note "deadline satisfaction (%%):";
  print_table ~align:[ Es_util.Table.Left ] ~header (List.rev !dsr_rows);
  note "mean latency (ms):";
  print_table ~align:[ Es_util.Table.Left ] ~header (List.rev !mean_rows)

(* ------------------------------------------------------------------ *)
(* F7 — optimizer convergence                                          *)
(* ------------------------------------------------------------------ *)

let f7 () =
  heading "F7" "JMSRA convergence: objective after each outer iteration";
  let seeds = [ 42; 123; 777 ] in
  let traces =
    List.map
      (fun seed ->
        let cluster = Scenario.build (Scenario.with_seed seed Scenario.default) in
        let out = Es_joint.Optimizer.solve cluster in
        (seed, out.Es_joint.Optimizer.trace))
      seeds
  in
  let max_iters =
    List.fold_left (fun acc (_, t) -> max acc (List.length t)) 0 traces
  in
  let rows =
    List.init max_iters (fun i ->
        string_of_int (i + 1)
        :: List.map
             (fun (_, trace) ->
               match List.nth_opt trace i with
               | Some (t : Es_joint.Optimizer.trace_point) ->
                   fmt_f ~digits:4 t.Es_joint.Optimizer.objective
               | None -> "-")
             traces)
  in
  print_table
    ~header:("iteration" :: List.map (fun (s, _) -> Printf.sprintf "seed%d" s) traces)
    rows

(* ------------------------------------------------------------------ *)
(* F8 — ablation study                                                 *)
(* ------------------------------------------------------------------ *)

let f8 () =
  heading "F8" "Ablation: joint optimization vs single-knob variants";
  let cluster = Scenario.build Scenario.default in
  let pols =
    Es_baselines.Baselines.
      [ neurosurgeon; surgery_only; alloc_only; edgesurgeon ]
  in
  let rows =
    List.map
      (fun (p : Es_baselines.Baselines.t) ->
        let decisions, report = run_policy cluster p in
        let per_device_dsr =
          Array.map
            (fun (d : Es_sim.Metrics.device_stats) ->
              if d.Es_sim.Metrics.generated = 0 then 1.0
              else
                float_of_int d.Es_sim.Metrics.deadline_hits
                /. float_of_int d.Es_sim.Metrics.generated)
            report.Es_sim.Metrics.per_device
        in
        [
          p.Es_baselines.Baselines.name;
          fmt_f ~digits:4 (Es_joint.Objective.of_decisions cluster decisions);
          string_of_int (Es_joint.Objective.misses cluster decisions);
          fmt_pct report.Es_sim.Metrics.dsr;
          fmt_ms report.Es_sim.Metrics.mean_latency_s;
          fmt_ms report.Es_sim.Metrics.p99_s;
          fmt_f ~digits:3 (mean_accuracy decisions);
          fmt_f ~digits:3 (Es_util.Stats.jain_index per_device_dsr);
        ])
      pols
  in
  print_table
    ~align:[ Es_util.Table.Left ]
    ~header:
      [ "policy"; "objective"; "misses"; "DSR(%)"; "mean(ms)"; "p99(ms)"; "mean-acc"; "fairness" ]
    rows

(* ------------------------------------------------------------------ *)
(* F9 — per-model gains                                                *)
(* ------------------------------------------------------------------ *)

let f9 () =
  heading "F9" "Per-model latency: one Raspberry-Pi device, one GPU server";
  let rows =
    List.map
      (fun name ->
        let model = Es_dnn.Zoo.by_name name in
        let deadline = if name = "vgg16" || name = "yolo_tiny" then 0.4 else 0.25 in
        let accuracy_floor =
          0.9 *. (Es_surgery.Accuracy.profile_of_model name).Es_surgery.Accuracy.full_accuracy
        in
        let cluster =
          Cluster.make
            ~devices:
              [
                Cluster.device ~id:0 ~proc:Processor.raspberry_pi ~link:Link.wifi ~model
                  ~rate:1.0 ~deadline ~accuracy_floor ();
              ]
            ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_gpu ~ap_bandwidth_mbps:120.0 () ]
        in
        let latency (p : Es_baselines.Baselines.t) =
          Latency.mean_latency cluster (p.Es_baselines.Baselines.solve cluster)
        in
        let dev = latency Es_baselines.Baselines.device_only in
        let srv = latency Es_baselines.Baselines.server_only in
        let ns = latency Es_baselines.Baselines.neurosurgeon in
        let es = latency Es_baselines.Baselines.edgesurgeon in
        [
          name;
          fmt_ms dev;
          fmt_ms srv;
          fmt_ms ns;
          fmt_ms es;
          fmt_f ~digits:1 (dev /. es);
          fmt_f ~digits:1 (srv /. es);
          fmt_f ~digits:1 (ns /. es);
        ])
      Es_dnn.Zoo.names
  in
  print_table
    ~align:[ Es_util.Table.Left ]
    ~header:
      [
        "model"; "device(ms)"; "server(ms)"; "neurosrg(ms)"; "edgesrg(ms)"; "x-dev"; "x-srv";
        "x-ns";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* F10 — online adaptation under a load burst                          *)
(* ------------------------------------------------------------------ *)

let f10 () =
  heading "F10" "Online timeline: 80 devices, 5x load burst in [60s,120s), 10s bins";
  let profile = Es_workload.Profiles.step_burst ~start_s:60.0 ~stop_s:120.0 ~factor:5.0 in
  let options =
    { Es_sim.Runner.default_options with duration_s = 180.0; warmup_s = 5.0; seed = 7 }
  in
  let cluster = Scenario.build (Scenario.with_n_devices 80 Scenario.default) in
  let adaptive = Es_joint.Online.run ~options ~epoch_s:15.0 ~rate_profile:profile cluster in
  let static = Es_joint.Online.run_static ~options ~rate_profile:profile cluster in
  let bin_means (r : Es_sim.Metrics.report) =
    let bins = Array.make 18 (Es_util.Stats.create ()) in
    Array.iteri (fun i _ -> bins.(i) <- Es_util.Stats.create ()) bins;
    Array.iter
      (fun (t, latency) ->
        let b = int_of_float (t /. 10.0) in
        if b >= 0 && b < 18 then Es_util.Stats.add bins.(b) latency)
      r.Es_sim.Metrics.events;
    bins
  in
  let a_bins = bin_means adaptive.Es_joint.Online.report in
  let s_bins = bin_means static.Es_joint.Online.report in
  let rows =
    List.init 18 (fun i ->
        let label = Printf.sprintf "%d-%ds" (i * 10) ((i + 1) * 10) in
        let cell s =
          if Es_util.Stats.count s = 0 then "-" else fmt_ms (Es_util.Stats.mean s)
        in
        [ label; cell s_bins.(i); cell a_bins.(i) ])
  in
  print_table
    ~align:[ Es_util.Table.Left ]
    ~header:[ "window"; "static mean(ms)"; "adaptive mean(ms)" ]
    rows;
  note "summary: static DSR %s%%, adaptive DSR %s%% (re-optimized %d times)"
    (fmt_pct static.Es_joint.Online.report.Es_sim.Metrics.dsr)
    (fmt_pct adaptive.Es_joint.Online.report.Es_sim.Metrics.dsr)
    adaptive.Es_joint.Online.resolve_count

(* ------------------------------------------------------------------ *)
(* F11 — quantization ablation                                         *)
(* ------------------------------------------------------------------ *)

let f11 () =
  heading "F11" "Quantization ablation: surgery precision levels, 50 Mbps APs";
  note "Bandwidth-constrained default scenario; joint optimizer with growing precision menus.";
  let cluster = Scenario.build (Scenario.with_ap_mbps 50.0 Scenario.default) in
  let menus =
    [
      ("fp32 only", [ Es_surgery.Precision.Fp32 ]);
      ("fp32+fp16", [ Es_surgery.Precision.Fp32; Es_surgery.Precision.Fp16 ]);
      ("fp32+fp16+int8", Es_surgery.Precision.all);
    ]
  in
  let rows =
    List.map
      (fun (label, precisions) ->
        let config = { Es_joint.Optimizer.default_config with precisions } in
        let out = Es_joint.Optimizer.solve ~config cluster in
        let report = simulate cluster out.Es_joint.Optimizer.decisions in
        let quantized =
          Array.fold_left
            (fun acc (d : Decision.t) ->
              if d.Decision.plan.Es_surgery.Plan.precision <> Es_surgery.Precision.Fp32 then
                acc + 1
              else acc)
            0 out.Es_joint.Optimizer.decisions
        in
        [
          label;
          fmt_pct report.Es_sim.Metrics.dsr;
          fmt_ms report.Es_sim.Metrics.mean_latency_s;
          fmt_ms report.Es_sim.Metrics.p99_s;
          fmt_f ~digits:3 (mean_accuracy out.Es_joint.Optimizer.decisions);
          Printf.sprintf "%d/%d" quantized (Array.length out.Es_joint.Optimizer.decisions);
        ])
      menus
  in
  print_table
    ~align:[ Es_util.Table.Left ]
    ~header:[ "precision menu"; "DSR(%)"; "mean(ms)"; "p99(ms)"; "mean-acc"; "quantized" ]
    rows

(* ------------------------------------------------------------------ *)
(* F12 — search-strategy ablation: coordinate descent vs annealing     *)
(* ------------------------------------------------------------------ *)

let f12 () =
  heading "F12" "Search-strategy ablation: JMSRA coordinate descent vs simulated annealing";
  note "Both searches score states with the identical optimal allocation inner step.";
  let rows = ref [] in
  List.iter
    (fun seed ->
      let cluster = Scenario.build (Scenario.with_seed seed Scenario.default) in
      let jm = Es_joint.Optimizer.solve cluster in
      let sa = Es_joint.Annealing.solve cluster in
      let sa_long =
        Es_joint.Annealing.solve
          ~config:{ Es_joint.Annealing.default_config with iterations = 10_000 }
          cluster
      in
      rows :=
        [
          string_of_int seed;
          fmt_f ~digits:4 jm.Es_joint.Optimizer.objective;
          fmt_f ~digits:2 jm.Es_joint.Optimizer.solve_time_s;
          fmt_f ~digits:4 sa.Es_joint.Annealing.objective;
          fmt_f ~digits:2 sa.Es_joint.Annealing.solve_time_s;
          fmt_f ~digits:4 sa_long.Es_joint.Annealing.objective;
          fmt_f ~digits:2 sa_long.Es_joint.Annealing.solve_time_s;
        ]
        :: !rows)
    [ 42; 123; 777 ];
  print_table
    ~header:
      [ "seed"; "JMSRA"; "t(s)"; "SA-2k"; "t(s)"; "SA-10k"; "t(s)" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* F13 — admission control under overload                              *)
(* ------------------------------------------------------------------ *)

let f13 () =
  heading "F13" "Admission control under overload (4x load, 60 Mbps APs)";
  note "Fixed fair-share surgery plans; with vs without admission control.";
  note "Rejected devices fall back to their fastest local surgery plan.";
  let cluster =
    Es_joint.Online.scale_rates
      (Scenario.build (Scenario.with_ap_mbps 60.0 Scenario.default))
      4.0
  in
  let assignment0 =
    let plans0 =
      Array.map
        (fun (d : Cluster.device) -> Es_surgery.Plan.server_only d.Cluster.model)
        cluster.Cluster.devices
    in
    Es_alloc.Assign.balanced_greedy cluster ~plans:plans0
  in
  let plans =
    Es_baselines.Baselines.fair_share_plans ~widths:Es_surgery.Candidate.default_widths cluster
      ~assignment:assignment0
  in
  let naive =
    match Es_alloc.Policy.decisions Es_alloc.Policy.Proportional cluster ~assignment:assignment0 ~plans with
    | Some ds -> ds
    | None -> assert false
  in
  let local_plan i =
    (* Fastest on-device candidate: the rejected device sacrifices accuracy
       to keep its own queue stable. *)
    Es_sim.Overload.fastest_local cluster.Cluster.devices.(i)
  in
  let admitted =
    Es_alloc.Admission.control ~weight:(fun d -> d.Cluster.rate) ~until:`Deadlines
      ~local_plan cluster ~assignment:assignment0 ~plans
  in
  let served_set = admitted.Es_alloc.Admission.served in
  let group_dsr (report : Es_sim.Metrics.report) ids =
    let hits = ref 0 and total = ref 0 in
    List.iter
      (fun i ->
        let d = report.Es_sim.Metrics.per_device.(i) in
        hits := !hits + d.Es_sim.Metrics.deadline_hits;
        total := !total + d.Es_sim.Metrics.generated)
      ids;
    if !total = 0 then nan else float_of_int !hits /. float_of_int !total
  in
  let all_ids = List.init (Cluster.n_devices cluster) Fun.id in
  let rejected_set = List.filter (fun i -> not (List.mem i served_set)) all_ids in
  let rows =
    List.map
      (fun (label, decisions, served) ->
        let report = simulate cluster decisions in
        [
          label;
          served;
          fmt_pct report.Es_sim.Metrics.dsr;
          fmt_pct (group_dsr report served_set);
          fmt_pct (group_dsr report rejected_set);
          fmt_ms report.Es_sim.Metrics.p50_s;
        ])
      [
        ( "no admission",
          naive,
          Printf.sprintf "%d/%d" (Cluster.n_devices cluster) (Cluster.n_devices cluster) );
        ( "admission",
          admitted.Es_alloc.Admission.decisions,
          Printf.sprintf "%d/%d" (List.length served_set) (Cluster.n_devices cluster) );
      ]
  in
  print_table
    ~align:[ Es_util.Table.Left ]
    ~header:
      [ "policy"; "offloading"; "DSR(%)"; "admitted-DSR(%)"; "rest-DSR(%)"; "p50(ms)" ]
    rows

(* ------------------------------------------------------------------ *)
(* F14 — device energy                                                 *)
(* ------------------------------------------------------------------ *)

let f14 () =
  heading "F14" "Device-side energy: fleet draw and per-request joules, default scenario";
  let cluster = Scenario.build Scenario.default in
  let rows =
    List.map
      (fun (p : Es_baselines.Baselines.t) ->
        let decisions = p.Es_baselines.Baselines.solve cluster in
        let per_req =
          Array.map (fun d -> Energy.per_request cluster d) decisions
        in
        let srv_w =
          Array.fold_left
            (fun acc (d : Decision.t) ->
              acc
              +. cluster.Cluster.devices.(d.Decision.device).Cluster.rate
                 *. Energy.server_joules cluster d)
            0.0 decisions
        in
        [
          p.Es_baselines.Baselines.name;
          fmt_f ~digits:2 (Energy.fleet_joules_per_s cluster decisions);
          fmt_f ~digits:3 (Es_util.Stats.mean_of per_req);
          fmt_f ~digits:3 (Es_util.Stats.percentile per_req 95.0);
          fmt_f ~digits:1 srv_w;
        ])
      (core_policies ())
  in
  print_table
    ~align:[ Es_util.Table.Left ]
    ~header:[ "policy"; "fleet(W)"; "J/req mean"; "J/req p95"; "server(W)" ]
    rows

(* ------------------------------------------------------------------ *)
(* F15 — multi-exit deployment in the loop                             *)
(* ------------------------------------------------------------------ *)

let f15 () =
  heading "F15" "Input-dependent early exits: fixed-depth plans vs multi-exit deployment";
  note "Same EdgeSurgeon decisions; multi-exit arm draws per-request depth";
  note "from the exit distribution (easy inputs leave early).";
  let cluster = Scenario.build Scenario.default in
  let out = Es_joint.Optimizer.solve cluster in
  let decisions = out.Es_joint.Optimizer.decisions in
  (* Per device: a multi-exit deployment of its plan's backbone at the
     plan's width, and the induced per-request work distribution. *)
  let deployments =
    Array.map
      (fun (d : Decision.t) ->
        let plan = d.Decision.plan in
        let me =
          (* kappa = 4: conservative confidence thresholds, trading less of
             the accuracy for most of the compute saving. *)
          Es_surgery.Multi_exit.build ~kappa:4.0 ~width:plan.Es_surgery.Plan.width
            cluster.Cluster.devices.(d.Decision.device).Cluster.model
        in
        let full = Es_dnn.Graph.total_flops plan.Es_surgery.Plan.graph in
        let ratios =
          Array.map
            (fun (e : Es_surgery.Plan.t) ->
              Float.min 1.0 (Es_dnn.Graph.total_flops e.Es_surgery.Plan.graph /. full))
            me.Es_surgery.Multi_exit.exits
        in
        (me, ratios))
      decisions
  in
  let work_scale ~device rng =
    let me, ratios = deployments.(device) in
    ratios.(Es_surgery.Multi_exit.sample_exit rng me)
  in
  let fixed = simulate cluster decisions in
  let multi = Es_sim.Runner.run ~options:(sim_options ()) ~work_scale cluster decisions in
  let fixed_acc = mean_accuracy decisions in
  let multi_acc =
    let total = ref 0.0 in
    Array.iter
      (fun (me, _) -> total := !total +. me.Es_surgery.Multi_exit.deployment_accuracy)
      deployments;
    !total /. float_of_int (Array.length deployments)
  in
  print_table
    ~align:[ Es_util.Table.Left ]
    ~header:[ "deployment"; "DSR(%)"; "mean(ms)"; "p95(ms)"; "mean-acc" ]
    [
      [
        "fixed-depth";
        fmt_pct fixed.Es_sim.Metrics.dsr;
        fmt_ms fixed.Es_sim.Metrics.mean_latency_s;
        fmt_ms fixed.Es_sim.Metrics.p95_s;
        fmt_f ~digits:3 fixed_acc;
      ];
      [
        "multi-exit";
        fmt_pct multi.Es_sim.Metrics.dsr;
        fmt_ms multi.Es_sim.Metrics.mean_latency_s;
        fmt_ms multi.Es_sim.Metrics.p95_s;
        fmt_f ~digits:3 multi_acc;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* T3 — optimizer runtime scalability                                  *)
(* ------------------------------------------------------------------ *)

let t3 () =
  heading "T3" "Optimizer runtime vs cluster size";
  let rows =
    parallel_cells
      (List.map
         (fun n () ->
           let cluster = Scenario.build (Scenario.with_n_devices n Scenario.default) in
           let out = Es_joint.Optimizer.solve cluster in
           [
             string_of_int n;
             fmt_f ~digits:3 out.Es_joint.Optimizer.solve_time_s;
             string_of_int out.Es_joint.Optimizer.iterations;
             fmt_f ~digits:4 out.Es_joint.Optimizer.objective;
             string_of_int (Es_joint.Objective.misses cluster out.Es_joint.Optimizer.decisions);
           ])
         [ 10; 25; 50; 100; 200 ])
  in
  print_table ~header:[ "devices"; "solve(s)"; "iters"; "objective"; "misses" ] rows

(* ------------------------------------------------------------------ *)
(* F16 — server-side batching                                          *)
(* ------------------------------------------------------------------ *)

let f16 () =
  heading "F16" "GPU batching at the server: dedicated shares vs batched accelerator";
  note "ServerOnly traffic (full offload); batching amortizes kernel launches";
  note "(alpha = 0.7) at the cost of a collection window.";
  let modes =
    [
      ("shares (no batch)", None);
      ("batch<=4, 2ms", Some { Es_sim.Runner.max_batch = 4; window_s = 0.002; alpha = 0.7 });
      ("batch<=16, 5ms", Some { Es_sim.Runner.max_batch = 16; window_s = 0.005; alpha = 0.7 });
    ]
  in
  List.iter
    (fun (load_label, n) ->
      note "%s (%d devices, 1 Gbps APs so compute is the bottleneck):" load_label n;
      let cluster =
        Scenario.build
          (Scenario.with_ap_mbps 1000.0 (Scenario.with_n_devices n Scenario.default))
      in
      let ds = Es_baselines.Baselines.server_only.Es_baselines.Baselines.solve cluster in
      let rows =
        List.map
          (fun (label, batching) ->
            let options = { (sim_options ()) with Es_sim.Runner.batching } in
            let r = Es_sim.Runner.run ~options cluster ds in
            [
              label;
              fmt_pct r.Es_sim.Metrics.dsr;
              fmt_ms r.Es_sim.Metrics.mean_latency_s;
              fmt_ms r.Es_sim.Metrics.p99_s;
              fmt_f ~digits:2
                (Array.fold_left Float.max 0.0 r.Es_sim.Metrics.server_utilization);
            ])
          modes
      in
      print_table
        ~align:[ Es_util.Table.Left ]
        ~header:[ "server mode"; "DSR(%)"; "mean(ms)"; "p99(ms)"; "peak-util" ]
        rows)
    [ ("moderate load", 20); ("heavy load", 60) ]

(* ------------------------------------------------------------------ *)
(* T4 — prefix cuts vs optimal min-cut DAG partitioning                *)
(* ------------------------------------------------------------------ *)

(* The pathological topology where prefix cuts genuinely lose: a heavy
   branch off a small stem, in topological order before a light branch that
   consumes the big raw input (see test_surgery.ml). *)
let forked_graph () =
  let open Es_dnn in
  let b, x = Graph.Builder.create ~name:"forked(synthetic)" ~input:(Shape.map ~c:8 ~h:64 ~w:64) in
  let stem =
    Graph.Builder.add b (Layer.Conv { out_c = 8; kernel = 8; stride = 8; pad = 0; groups = 1 }) [ x ]
  in
  let b1 =
    Graph.Builder.add b (Layer.Conv { out_c = 1024; kernel = 3; stride = 1; pad = 1; groups = 1 })
      [ stem ]
  in
  let b2 =
    Graph.Builder.add b (Layer.Conv { out_c = 8; kernel = 3; stride = 1; pad = 1; groups = 1 }) [ b1 ]
  in
  let a1 =
    Graph.Builder.add b (Layer.Conv { out_c = 8; kernel = 3; stride = 1; pad = 1; groups = 1 }) [ x ]
  in
  let a2 = Graph.Builder.add b Layer.Relu [ a1 ] in
  let a3 =
    Graph.Builder.add b (Layer.Pool { kind = Layer.Max; kernel = 8; stride = 8; pad = 0 }) [ a2 ]
  in
  let cat = Graph.Builder.add b Layer.Concat [ a3; b2 ] in
  Graph.Builder.finish ~output:cat b

let t4 () =
  heading "T4" "Partitioning audit: are prefix cuts ever beaten by the optimal min-cut split?";
  note "Raspberry-Pi device, edge GPU server; worst prefix-vs-min-cut gap over";
  note "10/50/200 Mbps uplinks.  (Plan restricts cuts to topological prefixes;";
  note "this audit justifies that design for real architectures.)";
  let device = Processor.raspberry_pi.Processor.perf in
  let server = Processor.edge_gpu.Processor.perf in
  let graphs =
    List.map (fun n -> Es_dnn.Zoo.by_name n) Es_dnn.Zoo.names @ [ forked_graph () ]
  in
  let rows =
    List.map
      (fun g ->
        let worst_gain = ref 0.0 and worst_bw = ref 0.0 in
        List.iter
          (fun bw ->
            let dev, srv, xfer =
              Es_surgery.Dag_cut.latency_costs ~device ~server ~bandwidth_bps:(bw *. 1e6) g
            in
            let split =
              Es_surgery.Dag_cut.optimal_split ~dev_cost:dev ~srv_cost:srv ~transfer_cost:xfer g
            in
            let _, prefix =
              Es_surgery.Dag_cut.best_prefix_cost ~dev_cost:dev ~srv_cost:srv
                ~transfer_cost:xfer g
            in
            let gain = 100.0 *. (prefix -. split.Es_surgery.Dag_cut.total_cost) /. prefix in
            if gain > !worst_gain then begin
              worst_gain := gain;
              worst_bw := bw
            end)
          [ 10.0; 50.0; 200.0 ];
        [
          g.Es_dnn.Graph.name;
          fmt_f ~digits:3 !worst_gain;
          (if !worst_gain > 1e-6 then fmt_f ~digits:0 !worst_bw else "-");
        ])
      graphs
  in
  print_table
    ~align:[ Es_util.Table.Left ]
    ~header:[ "model"; "max min-cut gain (%)"; "at (Mbps)" ]
    rows

(* ------------------------------------------------------------------ *)
(* T5 — capacity planning                                              *)
(* ------------------------------------------------------------------ *)

let t5 () =
  heading "T5" "Capacity planning: provisioning required for a zero-miss deployment";
  note "Bisection over provisioning, full joint solve per probe (~2%% resolution).";
  let config =
    { Es_joint.Optimizer.default_config with max_iters = 6; local_search_passes = 1 }
  in
  let rows =
    List.map
      (fun n ->
        let spec = Scenario.with_n_devices n Scenario.default in
        let bw = Es_joint.Planner.required_bandwidth_mbps ~config spec in
        let load = Es_joint.Planner.max_supported_load ~config spec in
        [
          string_of_int n;
          (if bw.Es_joint.Planner.feasible then fmt_f ~digits:0 bw.Es_joint.Planner.required
           else "> probe");
          string_of_int bw.Es_joint.Planner.solves;
          (if load.Es_joint.Planner.feasible then
             fmt_f ~digits:1 load.Es_joint.Planner.required
           else "> probe");
          string_of_int load.Es_joint.Planner.solves;
        ])
      [ 5; 10; 20; 40 ]
  in
  print_table
    ~header:[ "devices"; "req AP (Mbps)"; "solves"; "max load (x)"; "solves" ]
    rows

(* ------------------------------------------------------------------ *)
(* F17 — recovery timeline after a server crash                        *)
(* ------------------------------------------------------------------ *)

let f17 () =
  heading "F17" "Recovery timeline: busiest server crashes at t=20s, 5s bins";
  let duration = 40.0 in
  let crash_t = duration /. 2.0 in
  let cluster = Scenario.build Scenario.default in
  let out = Es_joint.Optimizer.solve cluster in
  let decisions = out.Es_joint.Optimizer.decisions in
  (* Crash the server carrying the most offloaded devices — the worst
     single-server loss for this decision set. *)
  let counts = Array.make (Cluster.n_servers cluster) 0 in
  Array.iter
    (fun (d : Decision.t) ->
      if Decision.offloads d then counts.(d.Decision.server) <- counts.(d.Decision.server) + 1)
    decisions;
  let crash = ref 0 in
  Array.iteri (fun s c -> if c > counts.(!crash) then crash := s) counts;
  let crash = !crash in
  let faults = Es_sim.Faults.scripted (Es_sim.Faults.crash ~at:crash_t crash) in
  let options resilience =
    { Es_sim.Runner.default_options with duration_s = duration; warmup_s = 0.0; faults; resilience }
  in
  let static = Es_sim.Runner.run ~options:(options None) cluster decisions in
  let local =
    Es_sim.Runner.run
      ~options:(options (Some Es_sim.Runner.default_resilience))
      cluster decisions
  in
  let recover = Es_joint.Recover.precompute ~jobs:(Atomic.get jobs) cluster in
  let reconfigure = Es_joint.Recover.schedule_for_faults recover ~decisions faults in
  let resolve =
    Es_sim.Runner.run
      ~options:(options (Some Es_sim.Runner.default_resilience))
      ~reconfigure cluster decisions
  in
  log_report ~point:"static" ~policy:"EdgeSurgeon" static;
  log_report ~point:"local" ~policy:"EdgeSurgeon" local;
  log_report ~point:"resolve" ~policy:"EdgeSurgeon" resolve;
  (* Deadline-hit rate per 5s bin: generated-vs-hit over the request
     resolution timeline (event_hits covers drops and timeouts too). *)
  let nbins = int_of_float (duration /. 5.0) in
  let bin_rates (r : Es_sim.Metrics.report) =
    let hits = Array.make nbins 0 and total = Array.make nbins 0 in
    Array.iter
      (fun (t, hit) ->
        let b = int_of_float (t /. 5.0) in
        if b >= 0 && b < nbins then begin
          total.(b) <- total.(b) + 1;
          if hit then hits.(b) <- hits.(b) + 1
        end)
      r.Es_sim.Metrics.event_hits;
    Array.init nbins (fun b ->
        if total.(b) = 0 then None else Some (float_of_int hits.(b) /. float_of_int total.(b)))
  in
  let s_bins = bin_rates static and l_bins = bin_rates local and r_bins = bin_rates resolve in
  let rows =
    List.init nbins (fun i ->
        let label = Printf.sprintf "%d-%ds" (i * 5) ((i + 1) * 5) in
        let cell = function None -> "-" | Some r -> fmt_pct r in
        [ label; cell s_bins.(i); cell l_bins.(i); cell r_bins.(i) ])
  in
  note "crash: server %d at t=%.0fs (%d of %d devices offload to it); detection delay 1s"
    crash crash_t counts.(crash) (Cluster.n_devices cluster);
  print_table
    ~align:[ Es_util.Table.Left ]
    ~header:[ "window"; "no recovery"; "local fallback"; "re-solve" ]
    rows;
  (* Post-crash rate over the devices that actually depended on the crashed
     server — the overall DSR dilutes the damage with unaffected traffic. *)
  let affected i =
    let d = decisions.(i) in
    Decision.offloads d && d.Decision.server = crash
  in
  let affected_rate (r : Es_sim.Metrics.report) =
    let hits = ref 0 and gen = ref 0 in
    Array.iteri
      (fun i (d : Es_sim.Metrics.device_stats) ->
        if affected i then begin
          hits := !hits + d.Es_sim.Metrics.deadline_hits;
          gen := !gen + d.Es_sim.Metrics.generated
        end)
      r.Es_sim.Metrics.per_device;
    float_of_int !hits /. float_of_int (max 1 !gen)
  in
  let pc resilience reconfigure =
    let opts =
      {
        Es_sim.Runner.default_options with
        duration_s = duration;
        warmup_s = crash_t;
        faults;
        resilience;
      }
    in
    match reconfigure with
    | None -> Es_sim.Runner.run ~options:opts cluster decisions
    | Some rc -> Es_sim.Runner.run ~options:opts ~reconfigure:rc cluster decisions
  in
  let s_aff = affected_rate (pc None None) in
  let l_aff = affected_rate (pc (Some Es_sim.Runner.default_resilience) None) in
  let r_aff = affected_rate (pc (Some Es_sim.Runner.default_resilience) (Some reconfigure)) in
  note "overall DSR: none %s%%  local %s%%  re-solve %s%%" (fmt_pct static.Es_sim.Metrics.dsr)
    (fmt_pct local.Es_sim.Metrics.dsr) (fmt_pct resolve.Es_sim.Metrics.dsr);
  note "post-crash hit rate on affected devices: none %s%%  local %s%%  re-solve %s%%"
    (fmt_pct s_aff) (fmt_pct l_aff) (fmt_pct r_aff)

(* ------------------------------------------------------------------ *)
(* MICRO — bechamel microbenchmarks of the hot paths                   *)
(* ------------------------------------------------------------------ *)

let micro () =
  heading "MICRO" "Bechamel microbenchmarks (ns/run, OLS fit)";
  let open Bechamel in
  let cluster = Scenario.build Scenario.default in
  let model = Es_dnn.Zoo.resnet18 () in
  let plans =
    Array.map
      (fun (d : Cluster.device) ->
        Es_surgery.Plan.make ~cut:(Es_dnn.Graph.n_nodes d.Cluster.model / 2) d.Cluster.model)
      cluster.Cluster.devices
  in
  let assignment = Es_alloc.Assign.balanced_greedy cluster ~plans in
  let decisions =
    match Es_alloc.Policy.decisions Es_alloc.Policy.Equal cluster ~assignment ~plans with
    | Some ds -> ds
    | None -> assert false
  in
  let tests =
    [
      Test.make ~name:"candidate-generation" (Staged.stage (fun () ->
          Es_surgery.Candidate.clear_cache ();
          ignore (Es_surgery.Candidate.pareto_candidates model)));
      Test.make ~name:"minmax-allocation" (Staged.stage (fun () ->
          ignore
            (Es_alloc.Policy.decisions Es_alloc.Policy.Minmax_alloc cluster ~assignment ~plans)));
      Test.make ~name:"analytic-objective" (Staged.stage (fun () ->
          ignore (Es_joint.Objective.of_decisions cluster decisions)));
      Test.make ~name:"simulate-40s" (Staged.stage (fun () ->
          ignore (simulate cluster decisions)));
      Test.make ~name:"jmsra-solve" (Staged.stage (fun () ->
          ignore (Es_joint.Optimizer.solve cluster)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false () in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        (* Bechamel hands results back in a hash table; sort by operation
           name so the printed table order is stable.  es_lint: sorted *)
        Hashtbl.fold
          (fun name raw acc ->
            let est = Analyze.one ols instance raw in
            let nanos =
              match Analyze.OLS.estimates est with
              | Some [ v ] -> v
              | _ -> nan
            in
            [ name; fmt_f ~digits:0 nanos; fmt_f ~digits:3 (nanos /. 1e6) ] :: acc)
          results []
        |> List.sort (fun r1 r2 ->
               String.compare
                 (match r1 with n :: _ -> n | [] -> "")
                 (match r2 with n :: _ -> n | [] -> "")))
      tests
    |> List.concat
  in
  print_table ~align:[ Es_util.Table.Left ] ~header:[ "operation"; "ns/run"; "ms/run" ] rows

(* ------------------------------------------------------------------ *)

let all : (string * string * (unit -> unit)) list =
  [
    ("T1", "model zoo inventory", t1);
    ("T2", "optimality gap vs exhaustive", t2);
    ("F1", "latency CDF", f1);
    ("F2", "scalability in devices", f2);
    ("F3", "DSR vs arrival rate", f3);
    ("F4", "latency vs bandwidth", f4);
    ("F5", "accuracy-latency trade-off", f5);
    ("F6", "server heterogeneity", f6);
    ("F7", "optimizer convergence", f7);
    ("F8", "ablation", f8);
    ("F9", "per-model gains", f9);
    ("F10", "online load burst", f10);
    ("F11", "quantization ablation", f11);
    ("F12", "search-strategy ablation", f12);
    ("F13", "admission control under overload", f13);
    ("F14", "device energy", f14);
    ("F15", "multi-exit deployment", f15);
    ("F16", "server-side batching", f16);
    ("F17", "recovery after server crash", f17);
    ("T3", "optimizer runtime", t3);
    ("T4", "prefix vs min-cut partitioning", t4);
    ("T5", "capacity planning", t5);
    ("MICRO", "bechamel microbenchmarks", micro);
  ]
