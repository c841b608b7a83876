(* Warm-start and solve-cache semantics: the equal-or-better contract of
   Optimizer.solve's warm trajectory, bit-identical cache hits, fingerprint
   sensitivity to every cluster axis, and repair of stale incumbents. *)

open Es_edge
open Es_joint

(* Cheap optimizer settings: these tests solve many clusters. *)
let cheap = { Optimizer.default_config with max_iters = 4; local_search_passes = 1 }

let small_cluster ?(n = 6) () = Scenario.build (Scenario.with_n_devices n Scenario.default)

(* ---------- warm-start contract ---------- *)

let named_scenarios = [ "default"; "smart_city"; "ar_assistant"; "drone_swarm" ]

let test_warm_equal_or_better () =
  List.iter
    (fun name ->
      let spec = Scenario.with_n_devices 8 (Es_workload.Scenarios.by_name name) in
      let cluster = Scenario.build spec in
      (* Incumbent from nominal load, re-solved warm vs cold after a shift. *)
      let base = Optimizer.solve ~config:cheap cluster in
      let shifted = Online.scale_rates cluster 1.7 in
      let cold = Optimizer.solve ~config:cheap shifted in
      let warm =
        Optimizer.solve ~config:cheap ~warm_start:base.Optimizer.decisions shifted
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: warm (%.6f) <= cold (%.6f)" name warm.Optimizer.objective
           cold.Optimizer.objective)
        true
        (warm.Optimizer.objective <= cold.Optimizer.objective +. 1e-9))
    named_scenarios

let test_warm_jobs_deterministic () =
  let cluster = small_cluster () in
  let base = Optimizer.solve ~config:cheap cluster in
  let shifted = Online.scale_rates cluster 2.0 in
  let solve j =
    Optimizer.solve
      ~config:{ cheap with Optimizer.jobs = j }
      ~warm_start:base.Optimizer.decisions shifted
  in
  let a = solve 1 and b = solve 3 in
  Alcotest.(check string) "warm solve identical across jobs"
    (Decision.fingerprint a.Optimizer.decisions)
    (Decision.fingerprint b.Optimizer.decisions)

let test_warm_arity_mismatch_ignored () =
  let cluster = small_cluster () in
  let cold = Optimizer.solve ~config:cheap cluster in
  let bogus = Array.sub cold.Optimizer.decisions 0 2 in
  let warm = Optimizer.solve ~config:cheap ~warm_start:bogus cluster in
  Alcotest.(check string) "wrong-arity seed falls back to the cold solve"
    (Decision.fingerprint cold.Optimizer.decisions)
    (Decision.fingerprint warm.Optimizer.decisions)

(* A stale incumbent referencing a server that no longer exists must be
   repaired (device re-pointed), never crash the solve. *)
let test_stale_warm_repaired () =
  let cluster = small_cluster () in
  Alcotest.(check bool) "scenario has two servers" true (Cluster.n_servers cluster = 2);
  let base = Optimizer.solve ~config:cheap cluster in
  let residual =
    Cluster.make
      ~devices:(Array.to_list cluster.Cluster.devices)
      ~servers:[ cluster.Cluster.servers.(0) ]
  in
  (* Mark some seeds as pointing at the dead server (out of range now). *)
  let stale =
    Array.map
      (fun (d : Decision.t) -> { d with Decision.server = 1 })
      base.Optimizer.decisions
  in
  let out = Optimizer.solve ~config:cheap ~warm_start:stale residual in
  Alcotest.(check bool) "all offloads target the surviving server" true
    (Array.for_all
       (fun (d : Decision.t) -> (not (Decision.offloads d)) || d.Decision.server = 0)
       out.Optimizer.decisions);
  let cold = Optimizer.solve ~config:cheap residual in
  Alcotest.(check bool) "repaired warm solve equal-or-better than cold" true
    (out.Optimizer.objective <= cold.Optimizer.objective +. 1e-9)

let test_recover_warm_fallbacks () =
  let cluster = small_cluster () in
  let r = Recover.precompute ~config:cheap cluster in
  let base = Recover.baseline r in
  Alcotest.(check int) "baseline arity" (Cluster.n_devices cluster) (Array.length base);
  let ns = Cluster.n_servers cluster in
  for s = 0 to ns - 1 do
    let fb = Recover.fallback r ~server:s in
    Alcotest.(check bool)
      (Printf.sprintf "fallback %d avoids the dead server" s)
      true
      (Array.for_all
         (fun (d : Decision.t) -> (not (Decision.offloads d)) || d.Decision.server <> s)
         fb)
  done

(* ---------- cache behaviour ---------- *)

let test_cache_hit_identical () =
  let cluster = small_cluster () in
  let sc = Solve_cache.create () in
  let a = Solve_cache.solve sc ~config:cheap cluster in
  let b = Solve_cache.solve sc ~config:cheap cluster in
  Alcotest.(check string) "hit returns bit-identical decisions"
    (Decision.fingerprint a.Optimizer.decisions)
    (Decision.fingerprint b.Optimizer.decisions);
  Alcotest.(check bool) "hit returns identical objective" true
    (a.Optimizer.objective = b.Optimizer.objective);
  let s = Solve_cache.stats sc in
  Alcotest.(check int) "one miss" 1 s.Solve_cache.misses;
  Alcotest.(check int) "one hit" 1 s.Solve_cache.hits;
  ignore (Solve_cache.solve sc ~config:cheap (Online.scale_rates cluster 2.0));
  let s = Solve_cache.stats sc in
  Alcotest.(check (pair int int)) "a new load level is a miss" (1, 2)
    (s.Solve_cache.hits, s.Solve_cache.misses)

let test_cache_warm_hint_not_keyed () =
  (* warm_start is a hint, not part of the key: a warm solve after a cold
     one on the same cluster is a hit returning the first entry. *)
  let cluster = small_cluster () in
  let sc = Solve_cache.create () in
  let a = Solve_cache.solve sc ~config:cheap cluster in
  let other = Optimizer.solve ~config:cheap (Online.scale_rates cluster 3.0) in
  let b =
    Solve_cache.solve sc ~config:cheap ~warm_start:other.Optimizer.decisions cluster
  in
  Alcotest.(check string) "same entry regardless of warm hint"
    (Decision.fingerprint a.Optimizer.decisions)
    (Decision.fingerprint b.Optimizer.decisions);
  Alcotest.(check int) "second call was a hit" 1 (Solve_cache.stats sc).Solve_cache.hits

let test_cache_jobs_shared () =
  (* jobs is excluded from the key: sequential and parallel callers share
     entries (the solver's output is jobs-invariant). *)
  let cluster = small_cluster ~n:4 () in
  let sc = Solve_cache.create () in
  ignore (Solve_cache.solve sc ~config:{ cheap with Optimizer.jobs = 1 } cluster);
  ignore (Solve_cache.solve sc ~config:{ cheap with Optimizer.jobs = 4 } cluster);
  Alcotest.(check int) "jobs change is a hit" 1 (Solve_cache.stats sc).Solve_cache.hits

(* ---------- fingerprint sensitivity (qcheck) ---------- *)

(* Any structural mutation of the cluster must change the fingerprint. *)
let mutate cluster ~kind ~idx =
  let devices = Array.copy cluster.Cluster.devices in
  let servers = Array.copy cluster.Cluster.servers in
  let i = idx mod Array.length devices in
  let j = idx mod Array.length servers in
  let d = devices.(i) in
  match kind mod 6 with
  | 0 ->
      devices.(i) <- { d with Cluster.rate = (d.Cluster.rate *. 2.0) +. 1.0 };
      ("rate", { cluster with Cluster.devices = devices })
  | 1 ->
      devices.(i) <- { d with Cluster.deadline = d.Cluster.deadline +. 0.075 };
      ("deadline", { cluster with Cluster.devices = devices })
  | 2 ->
      devices.(i) <- { d with Cluster.accuracy_floor = d.Cluster.accuracy_floor /. 2.0 };
      ("accuracy_floor", { cluster with Cluster.devices = devices })
  | 3 ->
      servers.(j) <-
        { (servers.(j)) with Cluster.ap_bandwidth_bps = servers.(j).Cluster.ap_bandwidth_bps *. 1.5 };
      ("ap_bandwidth", { cluster with Cluster.servers = servers })
  | 4 ->
      ( "drop_device",
        Cluster.make
          ~devices:(Array.to_list (Array.sub devices 0 (Array.length devices - 1)))
          ~servers:(Array.to_list servers) )
  | _ ->
      devices.(i) <-
        {
          d with
          Cluster.link =
            { (d.Cluster.link) with Link.peak_bps = d.Cluster.link.Link.peak_bps /. 2.0 };
        };
      ("link", { cluster with Cluster.devices = devices })

let fingerprint_sensitive =
  QCheck.Test.make ~count:60 ~name:"cluster fingerprint changes on any mutation"
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (kind, idx) ->
      let cluster = small_cluster ~n:5 () in
      let base = Cluster.fingerprint cluster in
      let label, mutated = mutate cluster ~kind ~idx in
      let fp = Cluster.fingerprint mutated in
      if fp = base then QCheck.Test.fail_reportf "mutation %s left fingerprint %s" label fp
      else true)

let fingerprint_stable =
  QCheck.Test.make ~count:20 ~name:"cluster fingerprint is pure"
    QCheck.(int_bound 1000)
    (fun seed ->
      let cluster =
        Scenario.build (Scenario.with_seed seed (Scenario.with_n_devices 5 Scenario.default))
      in
      Cluster.fingerprint cluster = Cluster.fingerprint cluster)

let () =
  Alcotest.run "es_cache"
    [
      ( "warm_start",
        [
          Alcotest.test_case "equal-or-better on named scenarios" `Slow
            test_warm_equal_or_better;
          Alcotest.test_case "deterministic across jobs" `Quick test_warm_jobs_deterministic;
          Alcotest.test_case "arity mismatch ignored" `Quick test_warm_arity_mismatch_ignored;
          Alcotest.test_case "stale incumbent repaired" `Quick test_stale_warm_repaired;
          Alcotest.test_case "recover fallbacks warm-seeded" `Slow test_recover_warm_fallbacks;
        ] );
      ( "solve_cache",
        [
          Alcotest.test_case "hit is bit-identical" `Quick test_cache_hit_identical;
          Alcotest.test_case "warm hint not keyed" `Quick test_cache_warm_hint_not_keyed;
          Alcotest.test_case "jobs excluded from key" `Quick test_cache_jobs_shared;
        ] );
      ( "fingerprint",
        [
          QCheck_alcotest.to_alcotest fingerprint_sensitive;
          QCheck_alcotest.to_alcotest fingerprint_stable;
        ] );
    ]
