(* Failure-aware recovery: precomputed fallback tables, fault-schedule
   compilation into reconfigurations, and the end-to-end recovery claim —
   after a server crash, the re-solve arm restores the deadline-hit rate of
   the affected devices where the no-recovery arm collapses. *)

open Es_edge

let default_cluster = lazy (Scenario.build Scenario.default)

let solved = lazy (Es_joint.Optimizer.solve (Lazy.force default_cluster))

(* ---------- fallback tables ---------- *)

let test_local_decisions_all_local () =
  let cluster = Lazy.force default_cluster in
  let ds = Es_sim.Overload.local_decisions cluster in
  Alcotest.(check int) "one decision per device" (Cluster.n_devices cluster) (Array.length ds);
  Array.iter
    (fun d -> Alcotest.(check bool) "device-only" false (Decision.offloads d))
    ds

let test_solve_without_avoids_failed_server () =
  let cluster = Lazy.force default_cluster in
  let ns = Cluster.n_servers cluster in
  for failed = 0 to ns - 1 do
    let ds = Es_joint.Recover.solve_without cluster ~failed:[ failed ] in
    (match Decision.validate cluster ds with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    Array.iter
      (fun (d : Decision.t) ->
        if Decision.offloads d then
          Alcotest.(check bool)
            (Printf.sprintf "device %d avoids failed server %d" d.Decision.device failed)
            true
            (d.Decision.server <> failed))
      ds
  done

let test_solve_without_all_failed_goes_local () =
  let cluster = Lazy.force default_cluster in
  let all = List.init (Cluster.n_servers cluster) Fun.id in
  let ds = Es_joint.Recover.solve_without cluster ~failed:all in
  Array.iter
    (fun d -> Alcotest.(check bool) "all failed: device-only" false (Decision.offloads d))
    ds

let test_solve_without_bad_index () =
  let cluster = Lazy.force default_cluster in
  match
    try
      ignore (Es_joint.Recover.solve_without cluster ~failed:[ 99 ]);
      `No_raise
    with Invalid_argument _ -> `Raised
  with
  | `Raised -> ()
  | `No_raise -> Alcotest.fail "out-of-range server index accepted"

let test_precompute_table () =
  let cluster = Lazy.force default_cluster in
  let t = Es_joint.Recover.precompute cluster in
  for s = 0 to Cluster.n_servers cluster - 1 do
    let ds = Es_joint.Recover.fallback t ~server:s in
    Array.iter
      (fun (d : Decision.t) ->
        if Decision.offloads d then
          Alcotest.(check bool) "fallback avoids its failure domain" true
            (d.Decision.server <> s))
      ds
  done;
  match
    try
      ignore (Es_joint.Recover.fallback t ~server:(-1));
      `No_raise
    with Invalid_argument _ -> `Raised
  with
  | `Raised -> ()
  | `No_raise -> Alcotest.fail "negative server index accepted"

(* ---------- schedule compilation ---------- *)

let test_schedule_for_faults_timing () =
  let cluster = Lazy.force default_cluster in
  let decisions = (Lazy.force solved).Es_joint.Optimizer.decisions in
  let t = Es_joint.Recover.precompute cluster in
  let faults = Es_sim.Faults.scripted (Es_sim.Faults.crash ~at:20.0 ~for_s:10.0 0) in
  match Es_joint.Recover.schedule_for_faults t ~decisions faults with
  | [ (t1, d1); (t2, d2) ] ->
      Alcotest.(check (float 1e-9)) "fallback 1s after the crash" 21.0 t1;
      Alcotest.(check (float 1e-9)) "restore 1s after the repair" 31.0 t2;
      Array.iter
        (fun (d : Decision.t) ->
          if Decision.offloads d then
            Alcotest.(check bool) "swap avoids crashed server" true (d.Decision.server <> 0))
        d1;
      Alcotest.(check bool) "original decisions restored" true (d2 == decisions)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 entries, got %d" (List.length l))

let test_schedule_ignores_non_server_events () =
  let cluster = Lazy.force default_cluster in
  let decisions = (Lazy.force solved).Es_joint.Optimizer.decisions in
  let t = Es_joint.Recover.precompute cluster in
  let faults = Es_sim.Faults.scripted (Es_sim.Faults.outage ~at:5.0 ~for_s:2.0 1) in
  Alcotest.(check int) "link events produce no swaps" 0
    (List.length (Es_joint.Recover.schedule_for_faults t ~decisions faults))

(* ---------- end-to-end recovery ---------- *)

(* The PR's acceptance experiment: crash the busiest server mid-run and
   compare post-crash deadline-hit rates on the devices that offloaded to
   it.  The re-solve arm must recover at least 2x the no-recovery arm (and
   actually recover — not 2 x epsilon). *)
let test_resolve_recovers_affected_devices () =
  let duration = 40.0 in
  let crash_t = duration /. 2.0 in
  let cluster = Lazy.force default_cluster in
  let decisions = (Lazy.force solved).Es_joint.Optimizer.decisions in
  let counts = Array.make (Cluster.n_servers cluster) 0 in
  Array.iter
    (fun (d : Decision.t) ->
      if Decision.offloads d then counts.(d.Decision.server) <- counts.(d.Decision.server) + 1)
    decisions;
  let crash = ref 0 in
  Array.iteri (fun s c -> if c > counts.(!crash) then crash := s) counts;
  let crash = !crash in
  Alcotest.(check bool) "some devices offload to the crashed server" true (counts.(crash) > 0);
  let faults = Es_sim.Faults.scripted (Es_sim.Faults.crash ~at:crash_t crash) in
  (* Measurement window = post-crash only. *)
  let opts resilience =
    {
      Es_sim.Runner.default_options with
      duration_s = duration;
      warmup_s = crash_t;
      faults;
      resilience;
    }
  in
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
    Alcotest.(check bool) "affected devices generated requests" true (!gen > 0);
    float_of_int !hits /. float_of_int !gen
  in
  let static = Es_sim.Runner.run ~options:(opts None) cluster decisions in
  let recover = Es_joint.Recover.precompute cluster in
  let reconfigure = Es_joint.Recover.schedule_for_faults recover ~decisions faults in
  let resolve =
    Es_sim.Runner.run
      ~options:(opts (Some Es_sim.Runner.default_resilience))
      ~reconfigure cluster decisions
  in
  let s_rate = affected_rate static and r_rate = affected_rate resolve in
  Alcotest.(check bool)
    (Printf.sprintf "re-solve %.3f recovers >= 2x static %.3f on affected devices" r_rate
       s_rate)
    true
    (r_rate >= 2.0 *. s_rate);
  Alcotest.(check bool)
    (Printf.sprintf "re-solve recovery is substantial (%.3f >= 0.5)" r_rate)
    true (r_rate >= 0.5);
  Alcotest.(check bool) "overall DSR also improves" true
    (resolve.Es_sim.Metrics.dsr > static.Es_sim.Metrics.dsr)

let test_schedule_repeat_runs_equal () =
  (* A full recovery pipeline — precomputed fallbacks compiled into
     reconfigurations around a crash, resilience on — must be bit-identical
     across repeat runs. *)
  let cluster = Lazy.force default_cluster in
  let decisions = (Lazy.force solved).Es_joint.Optimizer.decisions in
  let faults = Es_sim.Faults.scripted (Es_sim.Faults.crash ~at:15.0 ~for_s:10.0 0) in
  let recover = Es_joint.Recover.precompute cluster in
  let reconfigure = Es_joint.Recover.schedule_for_faults recover ~decisions faults in
  Alcotest.(check bool) "schedule has swaps" true (reconfigure <> []);
  let run () =
    Es_sim.Runner.run
      ~options:
        {
          Es_sim.Runner.default_options with
          duration_s = 40.0;
          warmup_s = 0.0;
          faults;
          resilience = Some Es_sim.Runner.default_resilience;
        }
      ~reconfigure cluster decisions
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "recovery run reports identical across repeat runs" true (r1 = r2);
  Alcotest.(check bool) "conservation (incl. shed outcome)" true (Es_sim.Metrics.conserved r1)

let () =
  Alcotest.run "es_joint_recover"
    [
      ( "fallbacks",
        [
          Alcotest.test_case "local decisions" `Quick test_local_decisions_all_local;
          Alcotest.test_case "solve_without avoids server" `Quick
            test_solve_without_avoids_failed_server;
          Alcotest.test_case "all failed goes local" `Quick
            test_solve_without_all_failed_goes_local;
          Alcotest.test_case "bad index" `Quick test_solve_without_bad_index;
          Alcotest.test_case "precompute table" `Quick test_precompute_table;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "timing" `Quick test_schedule_for_faults_timing;
          Alcotest.test_case "ignores link events" `Quick test_schedule_ignores_non_server_events;
          Alcotest.test_case "repeat runs equal" `Quick test_schedule_repeat_runs_equal;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "re-solve recovers affected devices" `Quick
            test_resolve_recovers_affected_devices;
        ] );
    ]
