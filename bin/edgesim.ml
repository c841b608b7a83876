(* edgesim — command-line front end to the EdgeSurgeon library.

   Subcommands:
     models                     list the model zoo (or inspect one model)
     plan MODEL                 show a model's Pareto surgery candidates
     run                        solve + simulate one policy on a scenario
     compare                    run every policy on a scenario side by side
     online                     online re-optimization under a load burst *)

open Cmdliner
open Es_edge

(* ---------- shared arguments ---------- *)

let scenario_arg =
  let doc =
    Printf.sprintf "Scenario name: %s."
      (String.concat ", " Es_workload.Scenarios.names)
  in
  Arg.(value & opt string "default" & info [ "scenario" ] ~docv:"NAME" ~doc)

let devices_arg =
  let doc = "Override the number of devices." in
  Arg.(value & opt (some int) None & info [ "devices"; "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Scenario generation seed." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let ap_mbps_arg =
  let doc = "Override every access point's uplink capacity (Mbps)." in
  Arg.(value & opt (some float) None & info [ "ap-mbps" ] ~docv:"MBPS" ~doc)

let duration_arg =
  let doc = "Simulated seconds." in
  Arg.(value & opt float 40.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)

(* ---------- observability arguments ---------- *)

let metrics_out_arg =
  let doc = "Write a metric snapshot (counters, gauges, latency histograms) as JSONL to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Stream per-request trace spans (root request span + per-stage child segments) as JSONL to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let no_obs_arg =
  let doc =
    "Disable all observability (overrides $(b,--metrics-out)/$(b,--trace-out)): the simulator \
     runs on its uninstrumented noop path, for overhead measurements."
  in
  Arg.(value & flag & info [ "no-obs" ] ~doc)

(* Run [body ~metrics ~spans], honouring the three obs flags: the span sink
   streams to --trace-out while [body] runs; the metric registry is dumped
   to --metrics-out afterwards. *)
let with_obs ~metrics_out ~trace_out ~no_obs body =
  let metrics_out = if no_obs then None else metrics_out in
  let trace_out = if no_obs then None else trace_out in
  (* Open both files before the (possibly long) run so a bad path fails
     fast — and cleanly — instead of after the simulation has finished. *)
  let open_out_or_die path =
    try open_out path
    with Sys_error e ->
      Printf.eprintf "edgesim: cannot open %s: %s\n" path e;
      exit 1
  in
  let metrics_oc = Option.map (fun path -> (path, open_out_or_die path)) metrics_out in
  let trace_oc = Option.map (fun path -> (path, open_out_or_die path)) trace_out in
  let metrics = Option.map (fun _ -> Es_obs.Metric.create ()) metrics_out in
  let finally () =
    Option.iter (fun (_, oc) -> close_out oc) metrics_oc;
    Option.iter (fun (_, oc) -> close_out oc) trace_oc
  in
  Fun.protect ~finally (fun () ->
      let result =
        match trace_oc with
        | None -> body ~metrics ~spans:None
        | Some (path, oc) ->
            let r = body ~metrics ~spans:(Some (Es_obs.Export.jsonl_span_sink oc)) in
            Printf.printf "wrote trace spans to %s\n" path;
            r
      in
      (match (metrics, metrics_oc) with
      | Some reg, Some (path, oc) ->
          Es_obs.Export.metrics_to_jsonl oc reg;
          Printf.printf "wrote metrics to %s\n" path
      | _ -> ());
      result)

let build_spec scenario devices seed ap_mbps =
  match Es_workload.Scenarios.by_name scenario with
  | exception Not_found ->
      Error (Printf.sprintf "unknown scenario %S (try: %s)" scenario
               (String.concat ", " Es_workload.Scenarios.names))
  | spec ->
      let spec = match devices with Some n -> Scenario.with_n_devices n spec | None -> spec in
      let spec = match seed with Some s -> Scenario.with_seed s spec | None -> spec in
      let spec = match ap_mbps with Some b -> Scenario.with_ap_mbps b spec | None -> spec in
      Ok spec

let build_cluster scenario devices seed ap_mbps =
  Result.map Scenario.build (build_spec scenario devices seed ap_mbps)

let policy_by_name name =
  List.find_opt
    (fun (p : Es_baselines.Baselines.t) ->
      String.lowercase_ascii p.Es_baselines.Baselines.name = String.lowercase_ascii name)
    (Es_baselines.Baselines.all ())

(* ---------- models ---------- *)

let models_cmd =
  let inspect =
    let doc = "Print the full layer table of one model." in
    Arg.(value & opt (some string) None & info [ "inspect" ] ~docv:"MODEL" ~doc)
  in
  let export =
    let doc = "Serialize a zoo model to a file: MODEL:PATH." in
    Arg.(value & opt (some string) None & info [ "export" ] ~docv:"MODEL:PATH" ~doc)
  in
  let load =
    let doc = "Load a serialized model file, validate it, print its summary." in
    Arg.(value & opt (some string) None & info [ "load" ] ~docv:"PATH" ~doc)
  in
  let run inspect export load =
    match (inspect, export, load) with
    | _, Some spec, _ -> (
        match String.index_opt spec ':' with
        | None ->
            Printf.eprintf "--export expects MODEL:PATH\n";
            1
        | Some i -> (
            let name = String.sub spec 0 i in
            let path = String.sub spec (i + 1) (String.length spec - i - 1) in
            match Es_dnn.Zoo.by_name name with
            | g ->
                Es_dnn.Serialize.save g ~path;
                Printf.printf "wrote %s to %s\n" name path;
                0
            | exception Not_found ->
                Printf.eprintf "unknown model %S\n" name;
                1))
    | _, _, Some path -> (
        match Es_dnn.Serialize.load ~path with
        | Ok g ->
            Format.printf "%a" Es_dnn.Graph.pp_summary g;
            0
        | Error e ->
            Printf.eprintf "%s: %s\n" path e;
            1)
    | Some name, _, _ -> (
        match Es_dnn.Zoo.by_name name with
        | g ->
            Format.printf "%a" Es_dnn.Graph.pp_summary g;
            0
        | exception Not_found ->
            Printf.eprintf "unknown model %S\n" name;
            1)
    | None, None, None ->
        Printf.printf "%-16s %6s %8s %9s %6s\n" "model" "nodes" "GFLOPs" "Mparams" "exits";
        List.iter
          (fun g ->
            Printf.printf "%-16s %6d %8.2f %9.2f %6d\n" g.Es_dnn.Graph.name
              (Es_dnn.Graph.n_nodes g)
              (Es_dnn.Graph.total_flops g /. 1e9)
              (Es_dnn.Graph.total_params g /. 1e6)
              (List.length (Es_dnn.Graph.exit_candidate_ids g)))
          (Es_dnn.Zoo.all ());
        0
  in
  Cmd.v (Cmd.info "models" ~doc:"List, inspect, export or load models")
    Term.(const run $ inspect $ export $ load)

(* ---------- plan ---------- *)

let plan_cmd =
  let model =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc:"Zoo model name.")
  in
  let limit =
    Arg.(value & opt int 20 & info [ "limit" ] ~docv:"N" ~doc:"Show at most N candidates.")
  in
  let run model limit =
    match Es_dnn.Zoo.by_name model with
    | exception Not_found ->
        Printf.eprintf "unknown model %S\n" model;
        1
    | g ->
        let cands = Es_surgery.Candidate.pareto_candidates g in
        Printf.printf "%d Pareto candidates for %s (showing %d):\n" (List.length cands) model
          (min limit (List.length cands));
        List.iteri
          (fun i p ->
            if i < limit then
              Printf.printf "  %-50s dev=%7.1fM srv=%7.1fM xfer=%8.1fKB\n"
                (Es_surgery.Plan.describe p)
                (Es_surgery.Plan.dev_flops p /. 1e6)
                (Es_surgery.Plan.srv_flops p /. 1e6)
                (Es_surgery.Plan.transfer_bytes p /. 1e3))
          cands;
        0
  in
  Cmd.v (Cmd.info "plan" ~doc:"Show a model's Pareto surgery candidates")
    Term.(const run $ model $ limit)

(* ---------- run ---------- *)

(* Colon-separated overload flag specs ("32:0.5:5:3"); empty or missing
   fields fall back to the Overload defaults, so bare [--breaker] works. *)
let overload_policy ~admission ~breaker ~brownout ~shed =
  let fields s = if s = "" then [||] else Array.of_list (String.split_on_char ':' s) in
  let fget a i = if i < Array.length a && a.(i) <> "" then Some a.(i) else None in
  let ffloat ~flag a i ~default =
    match fget a i with
    | None -> default
    | Some s -> (
        match float_of_string_opt s with
        | Some v -> v
        | None -> failwith (Printf.sprintf "--%s: bad field %S (want a number)" flag s))
  in
  let fint ~flag a i ~default =
    match fget a i with
    | None -> default
    | Some s -> (
        match int_of_string_opt s with
        | Some v -> v
        | None -> failwith (Printf.sprintf "--%s: bad field %S (want an integer)" flag s))
  in
  try
    let admission =
      Option.map
        (fun s ->
          let a = fields s in
          let d = Es_sim.Overload.default_admission in
          { Es_sim.Overload.slack = ffloat ~flag:"admission" a 0 ~default:d.Es_sim.Overload.slack })
        admission
    in
    let breaker =
      Option.map
        (fun s ->
          let a = fields s in
          let d = Es_sim.Overload.default_breaker in
          {
            d with
            Es_sim.Overload.window = fint ~flag:"breaker" a 0 ~default:d.Es_sim.Overload.window;
            failure_rate = ffloat ~flag:"breaker" a 1 ~default:d.Es_sim.Overload.failure_rate;
            cooldown_s = ffloat ~flag:"breaker" a 2 ~default:d.Es_sim.Overload.cooldown_s;
            half_open_probes =
              fint ~flag:"breaker" a 3 ~default:d.Es_sim.Overload.half_open_probes;
          })
        breaker
    in
    let brownout =
      Option.map
        (fun s ->
          let a = fields s in
          let d = Es_sim.Overload.default_brownout in
          {
            d with
            Es_sim.Overload.high_watermark =
              fint ~flag:"brownout" a 0 ~default:d.Es_sim.Overload.high_watermark;
            low_watermark = fint ~flag:"brownout" a 1 ~default:d.Es_sim.Overload.low_watermark;
            check_every_s = ffloat ~flag:"brownout" a 2 ~default:d.Es_sim.Overload.check_every_s;
          })
        brownout
    in
    let rate_limit =
      Option.map
        (fun s ->
          let a = fields s in
          let d = Es_sim.Overload.default_rate_limit in
          {
            Es_sim.Overload.rate_per_server =
              ffloat ~flag:"shed" a 0 ~default:d.Es_sim.Overload.rate_per_server;
            burst = ffloat ~flag:"shed" a 1 ~default:d.Es_sim.Overload.burst;
          })
        shed
    in
    let policy = { Es_sim.Overload.admission; breaker; brownout; rate_limit } in
    Es_sim.Overload.validate policy;
    Ok policy
  with Failure e | Invalid_argument e -> Error e

let print_report name (r : Es_sim.Metrics.report) =
  (* Mirrors Metrics.pp_report's coverage: totals incl. drops, pooled
     quantiles, and per-server utilization — the same fields the JSONL
     export carries.  Degraded/timed-out counts appear only when non-zero,
     keeping fault-free output byte-identical to earlier builds. *)
  let resilience_part =
    (if r.Es_sim.Metrics.total_degraded > 0 then
       Printf.sprintf ", %d degraded" r.Es_sim.Metrics.total_degraded
     else "")
    ^ (if r.Es_sim.Metrics.total_timed_out > 0 then
         Printf.sprintf ", %d timed out" r.Es_sim.Metrics.total_timed_out
       else "")
    ^
    if r.Es_sim.Metrics.total_shed > 0 then
      Printf.sprintf ", %d shed" r.Es_sim.Metrics.total_shed
    else ""
  in
  Printf.printf
    "%-14s DSR %5.1f%%  mean %7.1fms  p50 %7.1fms  p95 %7.1fms  p99 %7.1fms  (%d reqs, %d \
     dropped%s, util [%s])\n"
    name (100.0 *. r.Es_sim.Metrics.dsr)
    (1000.0 *. r.Es_sim.Metrics.mean_latency_s)
    (1000.0 *. r.Es_sim.Metrics.p50_s)
    (1000.0 *. r.Es_sim.Metrics.p95_s)
    (1000.0 *. r.Es_sim.Metrics.p99_s)
    r.Es_sim.Metrics.total_generated r.Es_sim.Metrics.total_dropped resilience_part
    (String.concat "; "
       (Array.to_list
          (Array.map (fun u -> Printf.sprintf "%.2f" u) r.Es_sim.Metrics.server_utilization)))

let run_cmd =
  let policy =
    Arg.(value & opt string "EdgeSurgeon" & info [ "policy" ] ~docv:"NAME" ~doc:"Policy name.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every per-device decision.")
  in
  let faults =
    let doc =
      "Inject faults: an inline spec or a file of one event per line ($(b,#) comments). Tokens: \
       down:S@T[+DUR], up:S@T, outage:D@T+DUR, degrade:D:F@T+DUR, straggle:S:F@T+DUR."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC|FILE" ~doc)
  in
  let retries =
    let doc = "Retry a failed request attempt up to N times (exponential backoff)." in
    Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc)
  in
  let timeout_factor =
    let doc = "Time a request out after FACTOR x its device deadline (0 disables)." in
    Arg.(value & opt (some float) None & info [ "timeout-factor" ] ~docv:"FACTOR" ~doc)
  in
  let fallback =
    let doc =
      "Failure response: $(b,none) drops requests hit by a fault; $(b,local) re-executes them \
       on-device with the fastest local plan; $(b,resolve) additionally swaps in precomputed \
       recovery decisions (residual re-solve per failed server) shortly after each crash."
    in
    Arg.(
      value
      & opt (enum [ ("none", `None); ("local", `Local); ("resolve", `Resolve) ]) `None
      & info [ "fallback" ] ~docv:"MODE" ~doc)
  in
  let heavy_devices =
    let doc =
      "Replace the scenario's device list with a $(docv)-strong heavy-traffic population \
       stamped from a few archetypes (servers scale with it); arrivals come from an explicit \
       non-stationary trace instead of per-device Poisson draws."
    in
    Arg.(value & opt (some int) None & info [ "heavy-devices" ] ~docv:"N" ~doc)
  in
  let heavy_archetypes =
    let doc = "Number of device archetypes the heavy population is stamped from." in
    Arg.(value & opt int 4 & info [ "heavy-archetypes" ] ~docv:"K" ~doc)
  in
  let load_profile =
    let doc =
      Printf.sprintf "Load shape modulating every device's arrival rate over the run: %s."
        (String.concat ", " Es_workload.Heavy.profile_names)
    in
    Arg.(value & opt (some string) None & info [ "load-profile" ] ~docv:"NAME" ~doc)
  in
  let streaming =
    let doc =
      "Stream metrics incrementally (constant memory: pooled moments + a histogram sketch \
       instead of per-request samples) and print engine throughput and request-conservation \
       lines after the run."
    in
    Arg.(value & flag & info [ "streaming" ] ~doc)
  in
  let admission =
    let doc =
      "Deadline-aware admission control: shed a request at arrival when its backlog-based \
       completion estimate exceeds $(docv) x the latency budget (bare flag: slack 1.0)."
    in
    Arg.(value & opt ~vopt:(Some "") (some string) None & info [ "admission" ] ~docv:"SLACK" ~doc)
  in
  let breaker =
    let doc =
      "Per-server circuit breakers: trip on a rolling failure-rate window, reroute offloads \
       to the local plan while open, half-open probes re-close. Spec \
       $(b,WINDOW:FAILRATE:COOLDOWN:PROBES); empty fields (or a bare flag) use the defaults \
       32:0.5:5:3."
    in
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "breaker" ] ~docv:"W:F:C:P" ~doc)
  in
  let brownout =
    let doc =
      "Brownout plan degradation: above $(b,HIGH) queued jobs on a server its incoming \
       devices switch to their fastest local-only plans, restoring at or below $(b,LOW). \
       Spec $(b,HIGH:LOW[:PERIOD]); bare flag uses the defaults 32:8:0.5."
    in
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "brownout" ] ~docv:"HIGH:LOW" ~doc)
  in
  let shed =
    let doc =
      "Per-server token-bucket rate limiting: shed offloads arriving beyond \
       $(b,RATE[:BURST]) requests/s per server. Rate 0 (the bare-flag default) derives the \
       rate from each server's granted service capacity, tracking reconfigurations and \
       straggler faults."
    in
    Arg.(
      value & opt ~vopt:(Some "") (some string) None & info [ "shed" ] ~docv:"RATE:BURST" ~doc)
  in
  let run scenario devices seed ap_mbps duration policy verbose faults retries timeout_factor
      fallback admission breaker brownout shed heavy_devices heavy_archetypes load_profile
      streaming metrics_out trace_out no_obs =
    let heavy_setup =
      (* Heavy population and/or explicit profiled arrivals; [None] leaves
         the classic path (and its golden output) untouched. *)
      match build_spec scenario devices seed ap_mbps with
      | Error e -> Error e
      | Ok spec -> (
          let profile_r =
            match load_profile with
            | None -> Ok (Es_workload.Profiles.constant 1.0)
            | Some name -> (
                match Es_workload.Heavy.profile_by_name ~duration_s:duration name with
                | p -> Ok p
                | exception Not_found ->
                    Error
                      (Printf.sprintf "unknown --load-profile %S (try: %s)" name
                         (String.concat ", " Es_workload.Heavy.profile_names)))
          in
          match profile_r with
          | Error e -> Error e
          | Ok profile -> (
              match heavy_devices with
              | Some n when n < 1 -> Error "--heavy-devices must be >= 1"
              | Some _ when heavy_archetypes < 1 -> Error "--heavy-archetypes must be >= 1"
              | Some n ->
                  let cluster =
                    Es_workload.Heavy.population ~k:heavy_archetypes ~devices:n spec
                  in
                  let trace =
                    Es_workload.Heavy.trace ~seed:spec.Scenario.seed ~duration_s:duration
                      ~profile cluster
                  in
                  Ok (Some (cluster, Some trace))
              | None -> (
                  match load_profile with
                  | None -> Ok None
                  | Some _ ->
                      let cluster = Scenario.build spec in
                      let trace =
                        Es_workload.Heavy.trace ~seed:spec.Scenario.seed ~duration_s:duration
                          ~profile cluster
                      in
                      Ok (Some (cluster, Some trace)))))
    in
    let cluster_r =
      match heavy_setup with
      | Error e -> Error e
      | Ok (Some (cluster, trace)) -> Ok (cluster, trace)
      | Ok None ->
          Result.map (fun c -> (c, None)) (build_cluster scenario devices seed ap_mbps)
    in
    match cluster_r with
    | Error e ->
        Printf.eprintf "%s\n" e;
        1
    | Ok (cluster, arrivals) -> (
        match policy_by_name policy with
        | None ->
            Printf.eprintf "unknown policy %S (try: %s)\n" policy
              (String.concat ", "
                 (List.map
                    (fun (p : Es_baselines.Baselines.t) -> p.Es_baselines.Baselines.name)
                    (Es_baselines.Baselines.all ())));
            1
        | Some p -> (
            let fault_schedule =
              match faults with
              | None -> Ok Es_sim.Faults.empty
              | Some arg -> (
                  (* Index ranges are checked here against the scenario's
                     cluster so a typo dies with a CLI error, not an
                     uncaught exception out of the runner. *)
                  match Es_sim.Faults.of_spec_or_file arg with
                  | Error _ as e -> e
                  | Ok schedule -> (
                      match
                        Es_sim.Faults.validate
                          ~n_devices:(Cluster.n_devices cluster)
                          ~n_servers:(Cluster.n_servers cluster)
                          schedule
                      with
                      | Ok () -> Ok schedule
                      | Error _ as e -> e))
            in
            match fault_schedule with
            | Error e ->
                Printf.eprintf "bad --faults: %s\n" e;
                1
            | Ok fault_schedule -> (
            match overload_policy ~admission ~breaker ~brownout ~shed with
            | Error e ->
                Printf.eprintf "bad overload flags: %s\n" e;
                1
            | Ok overload ->
                (* A heavy population would print thousands of per-device
                   lines; summarize it instead. *)
                if heavy_devices <> None then
                  Printf.printf "cluster: %d devices (%d archetypes), %d servers\n"
                    (Cluster.n_devices cluster) heavy_archetypes (Cluster.n_servers cluster)
                else Format.printf "%a" Cluster.pp_summary cluster;
                if not (Es_sim.Faults.is_empty fault_schedule) then
                  Format.printf "fault schedule:@.%a@?" Es_sim.Faults.pp fault_schedule;
                let decisions = p.Es_baselines.Baselines.solve cluster in
                if verbose then
                  Array.iter (fun d -> Format.printf "  %a@." Decision.pp d) decisions;
                (* Any resilience knob (or a non-none fallback) switches the
                   per-request policy on; the defaults fill the gaps. *)
                let resilience =
                  if retries = None && timeout_factor = None && fallback = `None then None
                  else begin
                    let d = Es_sim.Runner.default_resilience in
                    Some
                      {
                        d with
                        Es_sim.Runner.max_retries =
                          Option.value retries ~default:d.Es_sim.Runner.max_retries;
                        timeout_factor =
                          Option.value timeout_factor ~default:d.Es_sim.Runner.timeout_factor;
                        local_fallback = fallback <> `None;
                      }
                  end
                in
                let reconfigure =
                  match fallback with
                  | `Resolve when not (Es_sim.Faults.is_empty fault_schedule) ->
                      let recover = Es_joint.Recover.precompute cluster in
                      let entries =
                        Es_joint.Recover.schedule_for_faults recover ~decisions fault_schedule
                      in
                      Printf.printf "recovery: %d precomputed fallback set(s), %d swap(s)\n"
                        (Cluster.n_servers cluster) (List.length entries);
                      entries
                  | _ -> []
                in
                let options =
                  {
                    Es_sim.Runner.default_options with
                    duration_s = duration;
                    faults = fault_schedule;
                    resilience;
                    streaming;
                    overload;
                  }
                in
                let engine_stats = ref None in
                let t0 = Es_obs.Obs.wall_clock () in
                let report =
                  with_obs ~metrics_out ~trace_out ~no_obs (fun ~metrics ~spans ->
                      Es_sim.Runner.run ~options ?metrics ?spans ~reconfigure ?arrivals
                        ~on_stats:(fun s -> engine_stats := Some s)
                        cluster decisions)
                in
                let wall_s = Es_obs.Obs.wall_clock () -. t0 in
                print_report p.Es_baselines.Baselines.name report;
                if streaming then begin
                  (match !engine_stats with
                  | Some (s : Es_sim.Engine.stats) ->
                      Printf.printf
                        "engine: %d events in %.2fs wall (%.0f events/s), max pending %d\n"
                        s.Es_sim.Engine.events_processed wall_s
                        (float_of_int s.Es_sim.Engine.events_processed /. Float.max 1e-9 wall_s)
                        s.Es_sim.Engine.max_pending
                  | None -> ());
                  let g = report.Es_sim.Metrics.total_generated in
                  let c = report.Es_sim.Metrics.total_completed in
                  let d = report.Es_sim.Metrics.total_dropped in
                  let t = report.Es_sim.Metrics.total_timed_out in
                  let s = report.Es_sim.Metrics.total_shed in
                  Printf.printf
                    "outcomes: %d completed (%d degraded) + %d dropped + %d timed out + %d \
                     shed = %d generated\n"
                    c report.Es_sim.Metrics.total_degraded d t s (c + d + t + s);
                  if s > 0 then
                    Printf.printf "admitted DSR %.1f%% over %d admitted\n"
                      (100.0 *. report.Es_sim.Metrics.dsr_admitted)
                      (g - s);
                  if Es_sim.Metrics.conserved report then begin
                    Printf.printf "conservation OK: %d = %d + %d + %d + %d\n" g c d t s;
                    0
                  end
                  else begin
                    Printf.printf "conservation VIOLATED: %d generated vs %d + %d + %d + %d\n"
                      g c d t s;
                    1
                  end
                end
                else 0)))
  in
  Cmd.v (Cmd.info "run" ~doc:"Solve and simulate one policy on a scenario")
    Term.(
      const run $ scenario_arg $ devices_arg $ seed_arg $ ap_mbps_arg $ duration_arg $ policy
      $ verbose $ faults $ retries $ timeout_factor $ fallback $ admission $ breaker
      $ brownout $ shed $ heavy_devices $ heavy_archetypes $ load_profile $ streaming
      $ metrics_out_arg $ trace_out_arg $ no_obs_arg)

(* ---------- compare ---------- *)

let compare_cmd =
  let run scenario devices seed ap_mbps duration =
    match build_cluster scenario devices seed ap_mbps with
    | Error e ->
        Printf.eprintf "%s\n" e;
        1
    | Ok cluster ->
        Format.printf "%a" Cluster.pp_summary cluster;
        List.iter
          (fun (p : Es_baselines.Baselines.t) ->
            let decisions = p.Es_baselines.Baselines.solve cluster in
            let options = { Es_sim.Runner.default_options with duration_s = duration } in
            let report = Es_sim.Runner.run ~options cluster decisions in
            print_report p.Es_baselines.Baselines.name report)
          (Es_baselines.Baselines.all ());
        0
  in
  Cmd.v (Cmd.info "compare" ~doc:"Run every policy on a scenario side by side")
    Term.(const run $ scenario_arg $ devices_arg $ seed_arg $ ap_mbps_arg $ duration_arg)

(* ---------- sweep ---------- *)

let sweep_cmd =
  let param =
    let doc = "Swept parameter: devices, ap-mbps, or rate (load multiplier)." in
    Arg.(value & opt string "ap-mbps" & info [ "param" ] ~docv:"NAME" ~doc)
  in
  let values =
    let doc = "Comma-separated sweep values." in
    Arg.(value & opt string "25,50,100,200" & info [ "values" ] ~docv:"V1,V2,..." ~doc)
  in
  let csv =
    let doc = "Write results as CSV to this file instead of a table on stdout." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc)
  in
  let jobs =
    let doc =
      "Run independent (value, policy) cells on this many domains (0 = auto). Results are \
       identical to a sequential sweep."
    in
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let run scenario devices seed duration param values csv jobs =
    let parsed_values =
      String.split_on_char ',' values |> List.filter_map float_of_string_opt
    in
    if parsed_values = [] then begin
      Printf.eprintf "no valid values in %S\n" values;
      1
    end
    else begin
      match build_cluster scenario devices seed None with
      | Error e ->
          Printf.eprintf "%s\n" e;
          1
      | Ok base ->
          let cluster_at v =
            match param with
            | "devices" ->
                Result.to_option
                  (build_cluster scenario (Some (int_of_float v)) seed None)
            | "ap-mbps" -> Result.to_option (build_cluster scenario devices seed (Some v))
            | "rate" -> Some (Es_joint.Online.scale_rates base v)
            | _ -> None
          in
          if cluster_at (List.hd parsed_values) = None then begin
            Printf.eprintf "unknown sweep parameter %S (devices|ap-mbps|rate)\n" param;
            1
          end
          else begin
            let policies = Es_baselines.Baselines.all () in
            (* Each (value, policy) cell is independent and deterministic
               (fixed sim seed), so they fan out over domains under --jobs;
               collection order below is input order either way. *)
            let cells =
              List.concat_map
                (fun v ->
                  match cluster_at v with
                  | None -> []
                  | Some cluster ->
                      List.map (fun (p : Es_baselines.Baselines.t) -> (v, cluster, p)) policies)
                parsed_values
            in
            let rows =
              Es_util.Par.parallel_map ~jobs
                (fun (v, cluster, (p : Es_baselines.Baselines.t)) ->
                  let decisions = p.Es_baselines.Baselines.solve cluster in
                  let options = { Es_sim.Runner.default_options with duration_s = duration } in
                  let r = Es_sim.Runner.run ~options cluster decisions in
                  ( v,
                    p.Es_baselines.Baselines.name,
                    r.Es_sim.Metrics.dsr,
                    r.Es_sim.Metrics.mean_latency_s,
                    r.Es_sim.Metrics.p99_s ))
                cells
            in
            (match csv with
            | Some path ->
                let oc = open_out path in
                Fun.protect
                  ~finally:(fun () -> close_out oc)
                  (fun () ->
                    Printf.fprintf oc "%s,policy,dsr,mean_s,p99_s\n" param;
                    List.iter
                      (fun (v, name, dsr, mean, p99) ->
                        Printf.fprintf oc "%g,%s,%.6f,%.6f,%.6f\n" v name dsr mean p99)
                      rows);
                Printf.printf "wrote %d rows to %s\n" (List.length rows) path
            | None ->
                Printf.printf "%-10s %-14s %8s %10s %10s\n" param "policy" "DSR(%)" "mean(ms)"
                  "p99(ms)";
                List.iter
                  (fun (v, name, dsr, mean, p99) ->
                    Printf.printf "%-10g %-14s %8.1f %10.1f %10.1f\n" v name (100. *. dsr)
                      (1000. *. mean) (1000. *. p99))
                  rows);
            0
          end
    end
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep a parameter across every policy, optionally to CSV")
    Term.(
      const run $ scenario_arg $ devices_arg $ seed_arg $ duration_arg $ param $ values $ csv
      $ jobs)

(* ---------- online ---------- *)

(* ---------- solve ---------- *)

let sharded_arg =
  let doc =
    "Use the sharded hierarchical solver (Es_scale): per-server subproblems under \
     dual-price coordination, instead of the monolithic optimizer."
  in
  Arg.(value & flag & info [ "sharded" ] ~doc)

let shards_max_sweeps_arg =
  let doc = "Coordination sweeps cap for the sharded solver." in
  Arg.(value & opt (some int) None & info [ "shards-max-sweeps" ] ~docv:"N" ~doc)

let sharded_config ~jobs ~max_sweeps =
  let base = Es_scale.default_config in
  let base = match jobs with Some j -> { base with Es_scale.jobs = j } | None -> base in
  match max_sweeps with
  | Some n -> { base with Es_scale.max_sweeps = n }
  | None -> base

let solve_cmd =
  let servers =
    Arg.(
      value & opt (some int) None
      & info [ "servers" ] ~docv:"K"
          ~doc:"Override the number of edge servers (cycles the scenario's server specs).")
  in
  let jobs =
    Arg.(
      value & opt (some int) None
      & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains for the solve (0 = auto).")
  in
  let vs_mono =
    Arg.(
      value & flag
      & info [ "vs-monolithic" ]
          ~doc:
            "Also run the monolithic optimizer on the same cluster and fail (exit 1) \
             when the sharded objective exceeds $(b,--tolerance) of it.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.25
      & info [ "tolerance" ] ~docv:"EPS"
          ~doc:"Relative objective slack for $(b,--vs-monolithic) (default 0.25).")
  in
  let run scenario devices servers seed ap_mbps jobs sharded max_sweeps vs_mono tolerance =
    match build_cluster scenario devices seed ap_mbps with
    | Error e ->
        Printf.eprintf "%s\n" e;
        1
    | Ok cluster ->
        let cluster =
          match servers with
          | None -> cluster
          | Some k ->
              Scenario.build
                (Es_workload.Scenarios.by_name scenario
                |> (match devices with Some n -> Scenario.with_n_devices n | None -> Fun.id)
                |> (match seed with Some s -> Scenario.with_seed s | None -> Fun.id)
                |> (match ap_mbps with Some b -> Scenario.with_ap_mbps b | None -> Fun.id)
                |> Scenario.with_n_servers k)
        in
        Printf.printf "cluster: %d devices, %d servers\n" (Cluster.n_devices cluster)
          (Cluster.n_servers cluster);
        let fail = ref false in
        let feasibility label decisions =
          match Decision.validate cluster decisions with
          | Ok () -> ()
          | Error e ->
              Printf.printf "%s: INFEASIBLE: %s\n" label e;
              fail := true
        in
        if sharded then begin
          let config = sharded_config ~jobs ~max_sweeps in
          let out = Es_scale.solve ~config cluster in
          Printf.printf
            "sharded:    objective %.6f  (%d sweeps, %d shard solves, %d moves, %.3fs)\n"
            out.Es_scale.objective out.Es_scale.sweeps out.Es_scale.shard_solves
            out.Es_scale.moves out.Es_scale.solve_time_s;
          feasibility "sharded" out.Es_scale.decisions;
          (* Determinism is part of the sharded solver's contract; check it
             whenever we are already solving (one extra solve). *)
          let alt_jobs = match jobs with Some j when j <> 1 -> 1 | _ -> 2 in
          let alt =
            Es_scale.solve ~config:{ config with Es_scale.jobs = alt_jobs } cluster
          in
          if
            Decision.fingerprint alt.Es_scale.decisions
            <> Decision.fingerprint out.Es_scale.decisions
          then begin
            Printf.printf "sharded: NOT deterministic across --jobs\n";
            fail := true
          end
          else Printf.printf "sharded:    bit-identical across --jobs\n";
          if vs_mono then begin
            let mono_cfg =
              match jobs with
              | Some j -> { Es_joint.Optimizer.default_config with jobs = j }
              | None -> Es_joint.Optimizer.default_config
            in
            let mono = Es_joint.Optimizer.solve ~config:mono_cfg cluster in
            let ratio = out.Es_scale.objective /. mono.Es_joint.Optimizer.objective in
            Printf.printf "monolithic: objective %.6f  (%.3fs)  sharded/mono %.3f\n"
              mono.Es_joint.Optimizer.objective mono.Es_joint.Optimizer.solve_time_s
              ratio;
            feasibility "monolithic" mono.Es_joint.Optimizer.decisions;
            if ratio > 1.0 +. tolerance then begin
              Printf.printf "sharded objective outside tolerance (%.3f > 1+%.2f)\n" ratio
                tolerance;
              fail := true
            end
          end
        end
        else begin
          let config =
            match jobs with
            | Some j -> { Es_joint.Optimizer.default_config with jobs = j }
            | None -> Es_joint.Optimizer.default_config
          in
          let out = Es_joint.Optimizer.solve ~config cluster in
          Printf.printf "monolithic: objective %.6f  (%d iterations, %.3fs)\n"
            out.Es_joint.Optimizer.objective out.Es_joint.Optimizer.iterations
            out.Es_joint.Optimizer.solve_time_s;
          feasibility "monolithic" out.Es_joint.Optimizer.decisions
        end;
        if !fail then 1 else 0
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Solve a scenario once (monolithic or sharded) and report the objective")
    Term.(
      const run $ scenario_arg $ devices_arg $ servers $ seed_arg $ ap_mbps_arg $ jobs
      $ sharded_arg $ shards_max_sweeps_arg $ vs_mono $ tolerance)

let online_cmd =
  let burst =
    Arg.(value & opt float 3.0 & info [ "burst" ] ~docv:"FACTOR" ~doc:"Burst load multiplier.")
  in
  let epoch =
    Arg.(value & opt float 15.0 & info [ "epoch" ] ~docv:"SECONDS" ~doc:"Re-optimization period.")
  in
  let warm_start =
    Arg.(
      value & opt bool true
      & info [ "warm-start" ] ~docv:"BOOL"
          ~doc:"Seed each epoch re-solve from the incumbent decisions (default true).")
  in
  let no_solve_cache =
    Arg.(
      value & flag
      & info [ "no-solve-cache" ]
          ~doc:"Disable the (cluster, config)-keyed solve cache for epoch re-solves.")
  in
  let run scenario devices seed ap_mbps burst epoch warm_start no_solve_cache sharded
      shards_max_sweeps =
    match build_cluster scenario devices seed ap_mbps with
    | Error e ->
        Printf.eprintf "%s\n" e;
        1
    | Ok cluster ->
        let duration = 180.0 in
        let profile =
          Es_workload.Profiles.step_burst ~start_s:(duration /. 3.0)
            ~stop_s:(2.0 *. duration /. 3.0) ~factor:burst
        in
        let options = { Es_sim.Runner.default_options with duration_s = duration } in
        let cache =
          if no_solve_cache then None else Some (Es_joint.Solve_cache.create ())
        in
        let solver =
          if sharded then
            Some
              (Es_scale.solver
                 ~config:(sharded_config ~jobs:None ~max_sweeps:shards_max_sweeps)
                 ?cache ())
          else None
        in
        let adaptive =
          Es_joint.Online.run ~options ?cache ?solver ~warm_start ~epoch_s:epoch
            ~rate_profile:profile cluster
        in
        let static = Es_joint.Online.run_static ~options ~rate_profile:profile cluster in
        Printf.printf "load burst x%.1f during [%.0fs, %.0fs) of %.0fs\n" burst (duration /. 3.0)
          (2.0 *. duration /. 3.0) duration;
        print_report "static" static.Es_joint.Online.report;
        print_report
          (Printf.sprintf "adaptive(%d)" adaptive.Es_joint.Online.resolve_count)
          adaptive.Es_joint.Online.report;
        (match cache with
        | None -> ()
        | Some sc ->
            let s = Es_joint.Solve_cache.stats sc in
            Printf.printf
              "solve cache: %d hits, %d misses, %d evictions, %d entries\n"
              s.Es_joint.Solve_cache.hits s.Es_joint.Solve_cache.misses
              s.Es_joint.Solve_cache.evictions s.Es_joint.Solve_cache.entries);
        0
  in
  Cmd.v (Cmd.info "online" ~doc:"Online re-optimization under a load burst")
    Term.(
      const run $ scenario_arg $ devices_arg $ seed_arg $ ap_mbps_arg $ burst $ epoch
      $ warm_start $ no_solve_cache $ sharded_arg $ shards_max_sweeps_arg)

(* ---------- trace ---------- *)

let trace_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH" ~doc:"Save the generated trace as CSV.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"PATH" ~doc:"Replay a CSV trace through the simulator.")
  in
  let burst =
    Arg.(
      value & opt (some float) None
      & info [ "burst" ] ~docv:"FACTOR"
          ~doc:"Generate with a step burst of this factor in the middle third.")
  in
  let run scenario devices seed duration out replay burst metrics_out trace_out no_obs =
    match build_cluster scenario devices seed None with
    | Error e ->
        Printf.eprintf "%s\n" e;
        1
    | Ok cluster -> (
        let arrivals =
          match replay with
          | Some path -> Es_workload.Traces.load_csv ~path
          | None ->
              let profile =
                match burst with
                | None -> Es_workload.Profiles.constant 1.0
                | Some factor ->
                    Es_workload.Profiles.step_burst ~start_s:(duration /. 3.0)
                      ~stop_s:(2.0 *. duration /. 3.0) ~factor
              in
              Ok
                (Es_workload.Traces.piecewise
                   ~seed:(Option.value seed ~default:7)
                   ~duration_s:duration ~rate_profile:profile cluster)
        in
        match arrivals with
        | Error e ->
            Printf.eprintf "%s\n" e;
            1
        | Ok arrivals -> (
            Printf.printf "%d arrivals over %.0fs for %d devices\n" (Array.length arrivals)
              duration (Cluster.n_devices cluster);
            match out with
            | Some path ->
                Es_workload.Traces.save_csv arrivals ~path;
                Printf.printf "saved to %s\n" path;
                0
            | None ->
                (* The optimizer and the simulator report into the same
                   registry/sink: solver iterations in wall-clock spans,
                   requests in simulated-time spans. *)
                let report =
                  with_obs ~metrics_out ~trace_out ~no_obs (fun ~metrics ~spans ->
                      let decisions =
                        (Es_joint.Optimizer.solve ?metrics ?spans cluster)
                          .Es_joint.Optimizer.decisions
                      in
                      let options =
                        { Es_sim.Runner.default_options with duration_s = duration }
                      in
                      Es_sim.Runner.run ~options ?metrics ?spans ~arrivals cluster decisions)
                in
                print_report "EdgeSurgeon" report;
                0))
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Generate, save, or replay arrival traces")
    Term.(
      const run $ scenario_arg $ devices_arg $ seed_arg $ duration_arg $ out $ replay $ burst
      $ metrics_out_arg $ trace_out_arg $ no_obs_arg)

let () =
  let info =
    Cmd.info "edgesim" ~version:"1.0.0"
      ~doc:"Joint model surgery and resource allocation for edge DNN inference"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ models_cmd; plan_cmd; solve_cmd; run_cmd; compare_cmd; sweep_cmd; online_cmd; trace_cmd ]))
