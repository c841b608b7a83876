open Es_dnn
open Es_surgery
open Es_edge

let resnet18 = Zoo.resnet18 ()

let small_cluster () =
  let devices =
    [
      Cluster.device ~id:0 ~proc:Processor.raspberry_pi ~link:Link.wifi ~model:resnet18
        ~rate:1.0 ~deadline:0.2 ~accuracy_floor:0.6 ();
      Cluster.device ~id:1 ~proc:Processor.jetson_nano ~link:Link.nr5g ~model:resnet18
        ~rate:2.0 ~deadline:0.1 ();
    ]
  in
  let servers =
    [
      Cluster.server ~id:0 ~proc:Processor.edge_gpu ~ap_bandwidth_mbps:200.0 ();
      Cluster.server ~id:1 ~proc:Processor.edge_cpu ~ap_bandwidth_mbps:100.0 ();
    ]
  in
  Cluster.make ~devices ~servers

(* ---------- Processor / Link ---------- *)

let test_processor_classes_ordered () =
  let speeds =
    Array.map (fun p -> p.Processor.perf.Profile.flops_per_s) Processor.device_classes
  in
  Array.iteri
    (fun i s -> if i > 0 then Alcotest.(check bool) "weakest first" true (s > speeds.(i - 1)))
    speeds

let test_processor_scaled () =
  let p = Processor.scaled Processor.edge_cpu 2.0 in
  Alcotest.(check (float 1.0)) "doubled flops"
    (2.0 *. Processor.edge_cpu.Processor.perf.Profile.flops_per_s)
    p.Processor.perf.Profile.flops_per_s;
  Alcotest.check_raises "bad factor" (Invalid_argument "Processor.scaled: non-positive factor")
    (fun () -> ignore (Processor.scaled Processor.edge_cpu 0.0))

let test_link_transfer_time () =
  (* 1 MB at 80 Mbps (under wifi's 120 peak) plus half the 4 ms RTT. *)
  let t = Link.transfer_time Link.wifi ~rate_bps:80e6 1e6 in
  Alcotest.(check (float 1e-6)) "volume/rate + rtt/2" ((8e6 /. 80e6) +. 0.002) t;
  (* Rate above the radio peak is capped. *)
  let capped = Link.transfer_time Link.wifi ~rate_bps:1e9 1e6 in
  Alcotest.(check (float 1e-6)) "peak capped" ((8e6 /. Link.wifi.Link.peak_bps) +. 0.002) capped;
  Alcotest.(check (float 0.0)) "zero bytes free" 0.0 (Link.transfer_time Link.wifi ~rate_bps:1.0 0.0)

let test_link_fading () =
  let rng = Es_util.Prng.create 1 in
  for _ = 1 to 100 do
    let eff = Link.effective_rate rng Link.lte 1e6 in
    Alcotest.(check bool) "fading only degrades" true (eff <= 1e6 && eff > 0.0)
  done;
  let eff = Link.effective_rate rng Link.ethernet 5e6 in
  Alcotest.(check (float 0.0)) "wired has no fading" 5e6 eff

(* ---------- Cluster ---------- *)

let test_cluster_make_renumbers () =
  let c = small_cluster () in
  Alcotest.(check int) "n_devices" 2 (Cluster.n_devices c);
  Alcotest.(check int) "n_servers" 2 (Cluster.n_servers c);
  Array.iteri
    (fun i d -> Alcotest.(check int) "device ids sequential" i d.Cluster.dev_id)
    c.Cluster.devices

let test_cluster_validation () =
  Alcotest.check_raises "empty devices" (Invalid_argument "Cluster.make: no devices") (fun () ->
      ignore
        (Cluster.make ~devices:[]
           ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_cpu ~ap_bandwidth_mbps:10.0 () ]));
  Alcotest.check_raises "bad rate" (Invalid_argument "Cluster.device: non-positive rate")
    (fun () ->
      ignore
        (Cluster.device ~id:0 ~proc:Processor.iot_board ~link:Link.wifi ~model:resnet18
           ~rate:0.0 ~deadline:1.0 ()))

(* ---------- Decision ---------- *)

let test_decision_offloads () =
  let c = small_cluster () in
  let local = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  Alcotest.(check bool) "local does not offload" false (Decision.offloads local);
  let remote =
    Decision.make ~device:1 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:50e6
      ~compute_share:0.5 ()
  in
  Alcotest.(check bool) "remote offloads" true (Decision.offloads remote);
  ignore c

let test_decision_requires_resources () =
  Alcotest.check_raises "offload needs bandwidth"
    (Invalid_argument "Decision.make: offloading needs bandwidth") (fun () ->
      ignore (Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ()))

let test_decision_validate_capacity () =
  let c = small_cluster () in
  let plan = Plan.server_only resnet18 in
  let ok =
    [|
      Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:100e6 ~compute_share:0.5 ();
      Decision.make ~device:1 ~server:0 ~plan ~bandwidth_bps:100e6 ~compute_share:0.5 ();
    |]
  in
  (match Decision.validate c ok with Ok () -> () | Error e -> Alcotest.fail e);
  let over_bw =
    [|
      Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:150e6 ~compute_share:0.4 ();
      Decision.make ~device:1 ~server:0 ~plan ~bandwidth_bps:150e6 ~compute_share:0.4 ();
    |]
  in
  (match Decision.validate c over_bw with
  | Ok () -> Alcotest.fail "bandwidth oversubscription must be rejected"
  | Error _ -> ());
  let over_cpu =
    [|
      Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:50e6 ~compute_share:0.7 ();
      Decision.make ~device:1 ~server:0 ~plan ~bandwidth_bps:50e6 ~compute_share:0.7 ();
    |]
  in
  match Decision.validate c over_cpu with
  | Ok () -> Alcotest.fail "compute oversubscription must be rejected"
  | Error _ -> ()

let test_decision_validate_finite_grants () =
  (* NaN and negative grants must be caught before they poison the capacity
     sums (NaN comparisons are all false, so the cap checks alone would
     silently pass them). *)
  let c = small_cluster () in
  let plan = Plan.server_only resnet18 in
  let base =
    [|
      Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:50e6 ~compute_share:0.4 ();
      Decision.make ~device:1 ~server:0 ~plan ~bandwidth_bps:50e6 ~compute_share:0.4 ();
    |]
  in
  let rejected label ds =
    match Decision.validate c ds with
    | Ok () -> Alcotest.fail (label ^ " must be rejected")
    | Error _ -> ()
  in
  rejected "NaN bandwidth" [| { base.(0) with Decision.bandwidth_bps = Float.nan }; base.(1) |];
  rejected "infinite bandwidth"
    [| { base.(0) with Decision.bandwidth_bps = Float.infinity }; base.(1) |];
  rejected "NaN compute share"
    [| base.(0); { base.(1) with Decision.compute_share = Float.nan } |];
  rejected "negative compute share"
    [| base.(0); { base.(1) with Decision.compute_share = -0.1 } |]

let test_decision_validate_accuracy_floor () =
  let c = small_cluster () in
  (* Device 0 requires accuracy >= 0.6; a width-0.5 early exit goes below. *)
  let exits = Graph.exit_candidate_ids resnet18 in
  let weak = Plan.make ~width:0.5 ~exit_node:(List.hd exits) resnet18 in
  Alcotest.(check bool) "plan is indeed below the floor" true (weak.Plan.accuracy < 0.6);
  let ds =
    [|
      Decision.make ~device:0 ~server:0 ~plan:weak ~bandwidth_bps:10e6 ~compute_share:0.1 ();
      Decision.make ~device:1 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:10e6
        ~compute_share:0.1 ();
    |]
  in
  match Decision.validate c ds with
  | Ok () -> Alcotest.fail "accuracy floor violation must be rejected"
  | Error _ -> ()

(* ---------- Latency ---------- *)

let test_latency_device_only () =
  let c = small_cluster () in
  let plan = Plan.device_only resnet18 in
  let d = Decision.make ~device:0 ~server:0 ~plan () in
  let b = Latency.breakdown c d in
  Alcotest.(check (float 1e-12)) "no uplink" 0.0 b.Latency.uplink_s;
  Alcotest.(check (float 1e-12)) "no server" 0.0 b.Latency.server_s;
  Alcotest.(check (float 1e-12)) "no downlink" 0.0 b.Latency.downlink_s;
  let dev = c.Cluster.devices.(0) in
  Alcotest.(check (float 1e-9)) "device time = plan walk"
    (Plan.device_time dev.Cluster.proc.Processor.perf plan)
    b.Latency.device_s

let test_latency_offload_formula () =
  let c = small_cluster () in
  let plan = Plan.server_only resnet18 in
  let d =
    Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:50e6 ~compute_share:0.5 ()
  in
  let b = Latency.breakdown c d in
  let dev = c.Cluster.devices.(0) and srv = c.Cluster.servers.(0) in
  Alcotest.(check (float 1e-9)) "uplink"
    (Link.transfer_time dev.Cluster.link ~rate_bps:50e6 (Plan.transfer_bytes plan))
    b.Latency.uplink_s;
  Alcotest.(check (float 1e-9)) "server at the granted share"
    (Plan.server_time srv.Cluster.sproc.Processor.perf plan /. 0.5)
    b.Latency.server_s;
  Alcotest.(check bool) "downlink counts the result" true (b.Latency.downlink_s > 0.0);
  Alcotest.(check (float 1e-9)) "total is the sum" (Latency.total b) (Latency.of_decision c d)

let test_latency_more_bandwidth_helps () =
  let c = small_cluster () in
  let plan = Plan.server_only resnet18 in
  let slow =
    Latency.of_decision c
      (Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:10e6 ~compute_share:0.5 ())
  in
  let fast =
    Latency.of_decision c
      (Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:100e6 ~compute_share:0.5 ())
  in
  Alcotest.(check bool) "more bandwidth, less latency" true (fast < slow)

let test_latency_stability () =
  let c = small_cluster () in
  let plan = Plan.server_only resnet18 in
  let starved =
    Decision.make ~device:1 ~server:0 ~plan ~bandwidth_bps:50e6 ~compute_share:0.001 ()
  in
  Alcotest.(check bool) "starved share is unstable" false (Latency.device_stable c starved);
  let fine =
    Decision.make ~device:1 ~server:0 ~plan ~bandwidth_bps:50e6 ~compute_share:0.5 ()
  in
  Alcotest.(check bool) "healthy share is stable" true (Latency.device_stable c fine)

let test_latency_aggregates () =
  let c = small_cluster () in
  let plan = Plan.server_only resnet18 in
  let ds =
    [|
      Decision.make ~device:0 ~server:0 ~plan ~bandwidth_bps:100e6 ~compute_share:0.5 ();
      Decision.make ~device:1 ~server:0 ~plan ~bandwidth_bps:100e6 ~compute_share:0.5 ();
    |]
  in
  let dsr = Latency.deadline_satisfaction c ds in
  Alcotest.(check bool) "dsr in [0,1]" true (dsr >= 0.0 && dsr <= 1.0);
  let load = Latency.server_load c ds in
  Alcotest.(check int) "per server" 2 (Array.length load);
  Alcotest.(check bool) "offloading loads server 0" true (load.(0) > 0.0);
  Alcotest.(check (float 1e-12)) "server 1 idle" 0.0 load.(1)

(* ---------- Energy ---------- *)

let test_energy_device_only () =
  let c = small_cluster () in
  let d = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  let e = Energy.breakdown c d in
  Alcotest.(check bool) "compute energy positive" true (e.Energy.compute_j > 0.0);
  Alcotest.(check (float 0.0)) "no tx" 0.0 e.Energy.tx_j;
  Alcotest.(check (float 0.0)) "no wait" 0.0 e.Energy.wait_j;
  Alcotest.(check (float 0.0)) "no rx" 0.0 e.Energy.rx_j;
  let dev = c.Cluster.devices.(0) in
  let expected =
    dev.Cluster.proc.Processor.power.Processor.busy_w
    *. Plan.device_time dev.Cluster.proc.Processor.perf (Plan.device_only resnet18)
  in
  Alcotest.(check (float 1e-9)) "busy power x compute time" expected (Energy.total e)

let test_energy_offload_components () =
  let c = small_cluster () in
  let d =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:50e6
      ~compute_share:0.5 ()
  in
  let e = Energy.breakdown c d in
  Alcotest.(check (float 0.0)) "no device compute" 0.0 e.Energy.compute_j;
  Alcotest.(check bool) "radio energy dominates" true (e.Energy.tx_j > 0.0);
  Alcotest.(check bool) "waits on the server" true (e.Energy.wait_j > 0.0);
  Alcotest.(check bool) "receives the result" true (e.Energy.rx_j > 0.0);
  Alcotest.(check (float 1e-12)) "total = sum" (Energy.total e) (Energy.per_request c d);
  Alcotest.(check bool) "server bills separately" true (Energy.server_joules c d > 0.0)

let test_energy_offload_saves_device_joules () =
  (* The textbook motivation: shipping resnet18 off a weak device costs less
     battery than computing it locally. *)
  let c = small_cluster () in
  let local = Decision.make ~device:0 ~server:0 ~plan:(Plan.device_only resnet18) () in
  let remote =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:80e6
      ~compute_share:0.8 ()
  in
  Alcotest.(check bool) "offloading saves energy" true
    (Energy.per_request c remote < Energy.per_request c local);
  Alcotest.(check bool) "fleet power positive" true
    (Energy.fleet_joules_per_s c [| local; local |] > 0.0)

let test_mm1_estimate () =
  let c = small_cluster () in
  let d =
    Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:50e6
      ~compute_share:0.5 ()
  in
  let plain = Latency.of_decision c d in
  let mm1 = Latency.mm1_estimate c d in
  Alcotest.(check bool) "queueing-aware estimate is pessimistic" true (mm1 >= plain);
  (* Saturated stage -> infinite estimate. *)
  let starved =
    Decision.make ~device:1 ~server:0 ~plan:(Plan.server_only resnet18) ~bandwidth_bps:50e6
      ~compute_share:0.002 ()
  in
  Alcotest.(check bool) "saturation detected" true
    (Latency.mm1_estimate c starved = infinity)

let prop_mm1_pessimistic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"M/M/1 estimate is never below the analytic latency"
       QCheck.(pair (float_range 1.0 100.0) (float_range 0.05 1.0))
       (fun (bw_mbps, share) ->
         let c = small_cluster () in
         let d =
           Decision.make ~device:0 ~server:0 ~plan:(Plan.server_only resnet18)
             ~bandwidth_bps:(bw_mbps *. 1e6) ~compute_share:share ()
         in
         Latency.mm1_estimate c d >= Latency.of_decision c d -. 1e-9))

(* The straight-line latency kernels (DESIGN.md §15) must reproduce the
   breakdown-record oracles to the last bit — including -0.0 vs 0.0, hence
   the bit-pattern comparison rather than (=). *)
let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

let prop_latency_flat_matches_breakdown =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"flat latency kernels = breakdown oracles (bit-exact)"
       QCheck.(triple (int_range 0 11) (float_range 0.1 200.0) (float_range 0.001 1.0))
       (fun (pick, bw_mbps, share) ->
         let c = small_cluster () in
         let device = pick mod 2 in
         let server = pick / 2 mod 2 in
         let plan =
           match pick mod 3 with
           | 0 -> Plan.device_only resnet18
           | 1 -> Plan.server_only resnet18
           | _ -> Plan.with_cut (Plan.server_only resnet18) (Graph.n_nodes resnet18 / 2)
         in
         let d =
           if Plan.is_device_only plan then Decision.make ~device ~server ~plan ()
           else
             Decision.make ~device ~server ~plan ~bandwidth_bps:(bw_mbps *. 1e6)
               ~compute_share:share ()
         in
         let ds =
           Array.init 2 (fun i ->
               if i = device then d
               else Decision.make ~device:i ~server:0 ~plan:(Plan.device_only resnet18) ())
         in
         let loads = Latency.server_load c ds
         and loads' = Es_oracle.Latency.server_load c ds in
         feq (Latency.of_decision c d) (Es_oracle.Latency.of_decision c d)
         && Latency.device_stable c d = Es_oracle.Latency.device_stable c d
         && feq (Latency.mm1_estimate c d) (Es_oracle.Latency.mm1_estimate c d)
         && Array.length loads = Array.length loads'
         && Array.for_all2 feq loads loads'
         && feq
              (Latency.deadline_satisfaction c ds)
              (Es_oracle.Latency.deadline_satisfaction c ds)
         && feq (Latency.mean_latency c ds) (Es_oracle.Latency.mean_latency c ds)))

(* ---------- Scenario ---------- *)

let test_scenario_deterministic () =
  let a = Scenario.build Scenario.default in
  let b = Scenario.build Scenario.default in
  Alcotest.(check int) "same size" (Cluster.n_devices a) (Cluster.n_devices b);
  Array.iteri
    (fun i (d : Cluster.device) ->
      let d' = b.Cluster.devices.(i) in
      Alcotest.(check string) "same device" d.Cluster.dev_name d'.Cluster.dev_name;
      Alcotest.(check (float 1e-12)) "same rate" d.Cluster.rate d'.Cluster.rate)
    a.Cluster.devices

let test_scenario_seed_changes () =
  let a = Scenario.build Scenario.default in
  let b = Scenario.build (Scenario.with_seed 999 Scenario.default) in
  let differs =
    Array.exists2
      (fun (x : Cluster.device) (y : Cluster.device) -> x.Cluster.rate <> y.Cluster.rate)
      a.Cluster.devices b.Cluster.devices
  in
  Alcotest.(check bool) "different seed, different population" true differs

let test_scenario_overrides () =
  let spec = Scenario.default |> Scenario.with_n_devices 7 |> Scenario.with_ap_mbps 123.0 in
  let c = Scenario.build spec in
  Alcotest.(check int) "device count" 7 (Cluster.n_devices c);
  Array.iter
    (fun s -> Alcotest.(check (float 1.0)) "ap override" 123e6 s.Cluster.ap_bandwidth_bps)
    c.Cluster.servers

let test_scenario_ranges_respected () =
  let c = Scenario.build Scenario.default in
  let lo, hi = Scenario.default.Scenario.rate_range in
  let dlo, dhi = Scenario.default.Scenario.deadline_range in
  Array.iter
    (fun (d : Cluster.device) ->
      Alcotest.(check bool) "rate in range" true (d.Cluster.rate >= lo && d.Cluster.rate <= hi);
      Alcotest.(check bool) "deadline in range" true
        (d.Cluster.deadline >= dlo && d.Cluster.deadline <= dhi);
      Alcotest.(check bool) "floor below published accuracy" true
        (d.Cluster.accuracy_floor
        < (Accuracy.profile_of_model d.Cluster.model.Graph.name).Accuracy.full_accuracy))
    c.Cluster.devices

let () =
  Alcotest.run "es_edge"
    [
      ( "processor+link",
        [
          Alcotest.test_case "device classes ordered" `Quick test_processor_classes_ordered;
          Alcotest.test_case "scaled" `Quick test_processor_scaled;
          Alcotest.test_case "transfer time" `Quick test_link_transfer_time;
          Alcotest.test_case "fading" `Quick test_link_fading;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "make renumbers" `Quick test_cluster_make_renumbers;
          Alcotest.test_case "validation" `Quick test_cluster_validation;
        ] );
      ( "decision",
        [
          Alcotest.test_case "offloads" `Quick test_decision_offloads;
          Alcotest.test_case "requires resources" `Quick test_decision_requires_resources;
          Alcotest.test_case "capacity validation" `Quick test_decision_validate_capacity;
          Alcotest.test_case "finite grants" `Quick test_decision_validate_finite_grants;
          Alcotest.test_case "accuracy floor" `Quick test_decision_validate_accuracy_floor;
        ] );
      ( "latency",
        [
          Alcotest.test_case "device only" `Quick test_latency_device_only;
          Alcotest.test_case "offload formula" `Quick test_latency_offload_formula;
          Alcotest.test_case "bandwidth monotone" `Quick test_latency_more_bandwidth_helps;
          Alcotest.test_case "stability" `Quick test_latency_stability;
          Alcotest.test_case "aggregates" `Quick test_latency_aggregates;
        ] );
      ( "energy",
        [
          Alcotest.test_case "device only" `Quick test_energy_device_only;
          Alcotest.test_case "offload components" `Quick test_energy_offload_components;
          Alcotest.test_case "offload saves joules" `Quick test_energy_offload_saves_device_joules;
          Alcotest.test_case "mm1 estimate" `Quick test_mm1_estimate;
          prop_mm1_pessimistic;
          prop_latency_flat_matches_breakdown;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "seed changes" `Quick test_scenario_seed_changes;
          Alcotest.test_case "overrides" `Quick test_scenario_overrides;
          Alcotest.test_case "ranges respected" `Quick test_scenario_ranges_respected;
        ] );
    ]
