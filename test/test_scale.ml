(* Sharded-solver contract: feasibility on every named scenario, objective
   within a bounded factor of the monolithic solve, bit-identity across
   [jobs], and Delta re-solves that are exactly a touched-shard re-solve
   stitched into the incumbent. *)

open Es_edge
open Es_joint

let named_scenarios = [ "default"; "smart_city"; "ar_assistant"; "drone_swarm" ]

let cluster_of ~n ?(servers = 2) ?(seed = 0) name =
  Es_workload.Scenarios.by_name name
  |> Scenario.with_n_devices n
  |> Scenario.with_n_servers servers
  |> Scenario.with_seed seed |> Scenario.build

(* ---------- feasibility on named scenarios ---------- *)

let test_feasible_named () =
  List.iter
    (fun name ->
      let cluster = cluster_of ~n:12 ~servers:3 name in
      let out = Es_scale.solve cluster in
      (match Decision.validate cluster out.Es_scale.decisions with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: sharded solve infeasible: %s" name e);
      Alcotest.(check int)
        (name ^ ": full arity")
        (Cluster.n_devices cluster)
        (Array.length out.Es_scale.decisions);
      Alcotest.(check bool)
        (name ^ ": assignment matches decisions")
        true
        (Array.for_all2
           (fun (d : Decision.t) s -> d.Decision.server = s)
           out.Es_scale.decisions out.Es_scale.assignment))
    named_scenarios

(* ---------- qcheck: quality vs monolithic, determinism ---------- *)

(* Sharding trades a little objective for decomposition; the coordination
   layer must keep the gap bounded on clusters small enough to solve
   monolithically. *)
let quality_vs_monolithic =
  QCheck.Test.make ~count:6 ~name:"sharded objective <= (1+eps) * monolithic (<=25 devices)"
    QCheck.(pair (int_range 6 25) (int_range 0 1000))
    (fun (n, seed) ->
      let cluster = cluster_of ~n ~servers:2 ~seed "default" in
      let mono = Optimizer.solve cluster in
      let sh = Es_scale.solve cluster in
      (match Decision.validate cluster sh.Es_scale.decisions with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "infeasible: %s" e);
      if sh.Es_scale.objective > 1.25 *. mono.Optimizer.objective +. 1e-9 then
        QCheck.Test.fail_reportf "sharded %.6f vs monolithic %.6f (n=%d seed=%d)"
          sh.Es_scale.objective mono.Optimizer.objective n seed
      else true)

let bit_identity_across_jobs =
  QCheck.Test.make ~count:6 ~name:"sharded solve bit-identical for jobs in {1,4}"
    QCheck.(pair (int_range 4 18) (int_range 0 1000))
    (fun (n, seed) ->
      let cluster = cluster_of ~n ~servers:3 ~seed "default" in
      let solve j =
        Es_scale.solve ~config:{ Es_scale.default_config with Es_scale.jobs = j } cluster
      in
      let a = solve 1 and b = solve 4 in
      Decision.fingerprint a.Es_scale.decisions = Decision.fingerprint b.Es_scale.decisions
      && a.Es_scale.objective = b.Es_scale.objective
      && a.Es_scale.assignment = b.Es_scale.assignment)

(* ---------- Delta: incremental == touched-shard re-solve ---------- *)

(* With [delta_sweeps = 0], [Delta.apply] must be *exactly* one re-solve of
   the touched shard, warm-started from the carried-over incumbent, lifted
   over the untouched decisions.  We reconstruct that by hand per event and
   demand bit-identity. *)

let delta_cfg = { Es_scale.default_config with Es_scale.delta_sweeps = 0 }

let expected_stitch cfg cluster' ~assignment' ~carried ~touched =
  let next = Array.copy carried in
  List.iter
    (fun s ->
      match Es_scale.Shard.make cluster' ~assignment:assignment' ~server:s with
      | None -> ()
      | Some sh ->
          let out = Es_scale.Shard.solve ~config:(Es_scale.shard_config cfg) ~warm:carried sh in
          Es_scale.Shard.lift_into sh out next)
    (List.sort_uniq Int.compare touched);
  next

let check_delta name st event ~cluster' ~carried ~assignment' ~touched =
  let st' = Es_scale.Delta.apply st event in
  Alcotest.(check string)
    (name ^ ": rebuilt cluster matches")
    (Cluster.fingerprint cluster')
    (Cluster.fingerprint (Es_scale.Delta.cluster st'));
  let expected = expected_stitch delta_cfg cluster' ~assignment' ~carried ~touched in
  let got = (Es_scale.Delta.output st').Es_scale.decisions in
  Alcotest.(check string)
    (name ^ ": delta == touched-shard re-solve")
    (Decision.fingerprint expected) (Decision.fingerprint got);
  match Decision.validate cluster' got with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: delta result infeasible: %s" name e

let test_delta_rate_change () =
  let cluster = cluster_of ~n:10 ~servers:3 "default" in
  let st = Es_scale.Delta.init ~config:delta_cfg cluster in
  let out = Es_scale.Delta.output st in
  let i = 4 in
  let rate = cluster.Cluster.devices.(i).Cluster.rate *. 1.8 in
  let devices' =
    List.init (Cluster.n_devices cluster) (fun j ->
        let d = cluster.Cluster.devices.(j) in
        if j = i then { d with Cluster.rate } else d)
  in
  let cluster' =
    Cluster.make ~devices:devices' ~servers:(Array.to_list cluster.Cluster.servers)
  in
  check_delta "rate_change" st
    (Es_scale.Delta.Rate_change (i, rate))
    ~cluster'
    ~carried:(Array.copy out.Es_scale.decisions)
    ~assignment':out.Es_scale.assignment
    ~touched:[ out.Es_scale.assignment.(i) ]

let test_delta_leave () =
  let cluster = cluster_of ~n:10 ~servers:3 "default" in
  let st = Es_scale.Delta.init ~config:delta_cfg cluster in
  let out = Es_scale.Delta.output st in
  let i = 3 in
  let nd = Cluster.n_devices cluster in
  let keep j = if j < i then j else j + 1 in
  let cluster' =
    Cluster.make
      ~devices:(List.init (nd - 1) (fun j -> cluster.Cluster.devices.(keep j)))
      ~servers:(Array.to_list cluster.Cluster.servers)
  in
  let carried =
    Array.init (nd - 1) (fun j ->
        { (out.Es_scale.decisions.(keep j)) with Decision.device = j })
  in
  let assignment' = Array.init (nd - 1) (fun j -> out.Es_scale.assignment.(keep j)) in
  check_delta "leave" st (Es_scale.Delta.Leave i) ~cluster' ~carried ~assignment'
    ~touched:[ out.Es_scale.assignment.(i) ]

let test_delta_join () =
  let cluster = cluster_of ~n:10 ~servers:3 "default" in
  let donor = cluster_of ~n:10 ~servers:3 ~seed:99 "default" in
  let joining = { (donor.Cluster.devices.(0)) with Cluster.dev_id = 10 } in
  let st = Es_scale.Delta.init ~config:delta_cfg cluster in
  let out = Es_scale.Delta.output st in
  let st' = Es_scale.Delta.apply st (Es_scale.Delta.Join joining) in
  let cluster' = Es_scale.Delta.cluster st' in
  Alcotest.(check int) "join: one more device" 11 (Cluster.n_devices cluster');
  (* The join target is whatever Delta picked; reconstruct its stitch. *)
  let s = (Es_scale.Delta.output st').Es_scale.assignment.(10) in
  let seed_decision =
    Decision.make ~device:10 ~server:s
      ~plan:(Es_surgery.Plan.device_only joining.Cluster.model)
      ()
  in
  let carried = Array.append out.Es_scale.decisions [| seed_decision |] in
  let assignment' = Array.append out.Es_scale.assignment [| s |] in
  let expected = expected_stitch delta_cfg cluster' ~assignment' ~carried ~touched:[ s ] in
  Alcotest.(check string) "join: delta == touched-shard re-solve"
    (Decision.fingerprint expected)
    (Decision.fingerprint (Es_scale.Delta.output st').Es_scale.decisions);
  match Decision.validate cluster' (Es_scale.Delta.output st').Es_scale.decisions with
  | Ok () -> ()
  | Error e -> Alcotest.failf "join: delta result infeasible: %s" e

let test_delta_guards () =
  let cluster = cluster_of ~n:2 "default" in
  let st = Es_scale.Delta.init ~config:delta_cfg cluster in
  Alcotest.check_raises "out-of-range device"
    (Invalid_argument "Es_scale.Delta.Rate_change: device 9 out of range") (fun () ->
      ignore (Es_scale.Delta.apply st (Es_scale.Delta.Rate_change (9, 1.0))));
  let st = Es_scale.Delta.apply st (Es_scale.Delta.Leave 0) in
  Alcotest.check_raises "cannot remove last device"
    (Invalid_argument "Es_scale.Delta.Leave: cannot remove the last device") (fun () ->
      ignore (Es_scale.Delta.apply st (Es_scale.Delta.Leave 0)))

(* ---------- parked-shard pin ---------- *)

(* A 400-device smart_city population parks most of its local devices on
   one server's shard, which is where incremental re-solves spend their
   time.  The initial solve and six Delta events (rate changes of four of
   that shard's devices, a join, the leave of a fifth) are pinned bit for
   bit: decision fingerprints and objective bits, recorded before the
   surgery step, the fair-share count, the move pricing and the plan-cost
   table were made incremental. *)
let parked_expected =
  [
    ("init", "5a38e45c71208dbf", 4595924960488858054L);
    ("rate_change", "c5123567b9ae0531", 4595938464689402405L);
    ("rate_change", "c5123567b9ae0531", 4595938464689402405L);
    ("join", "4b94bcc9567da67b", 4595929146498421722L);
    ("rate_change", "4b94bcc9567da67b", 4595929146498421722L);
    ("leave", "7d02e866d94c9d00", 4595917869679314444L);
    ("rate_change", "7d02e866d94c9d00", 4595917869679314444L);
  ]

let parked_runs () =
  let cluster = Es_workload.Heavy.population ~devices:400 Es_workload.Scenarios.smart_city in
  let st = Es_scale.Delta.init cluster in
  let out = Es_scale.Delta.output st in
  let ns = Cluster.n_servers cluster in
  let size = Array.make ns 0 in
  Array.iter (fun s -> size.(s) <- size.(s) + 1) out.Es_scale.assignment;
  let largest = Array.fold_left max 0 size in
  let big = ref (-1) in
  Array.iteri (fun s n -> if n = largest && !big < 0 then big := s) size;
  (* Devices on the largest shard, in index order. *)
  let parked =
    List.filter (fun i -> out.Es_scale.assignment.(i) = !big)
      (List.init (Cluster.n_devices cluster) Fun.id)
  in
  let nth k = List.nth parked k in
  (* The shard's offloaders, so one event moves a device that holds
     grants, not only ones that run locally. *)
  let offloader =
    List.find (fun i -> Decision.offloads out.Es_scale.decisions.(i)) parked
  in
  let rate_change st i factor =
    let d = (Es_scale.Delta.cluster st).Cluster.devices.(i) in
    ("rate_change", Es_scale.Delta.Rate_change (i, d.Cluster.rate *. factor))
  in
  let events st k =
    match k with
    | 0 -> rate_change st (nth 0) 40.0
    | 1 -> rate_change st offloader 0.2
    | 2 ->
        let c = Es_scale.Delta.cluster st in
        let nd = Cluster.n_devices c in
        ("join", Es_scale.Delta.Join { (c.Cluster.devices.(nth 3)) with Cluster.dev_id = nd })
    | 3 -> rate_change st (nth 20) 30.0
    | 4 -> ("leave", Es_scale.Delta.Leave (nth 5))
    | _ -> rate_change st (nth 1) 25.0
  in
  let pin label (o : Es_scale.output) =
    (label, Decision.fingerprint o.Es_scale.decisions, Int64.bits_of_float o.Es_scale.objective)
  in
  let rec go st k acc =
    if k = 6 then List.rev acc
    else
      let label, ev = events st k in
      let st = Es_scale.Delta.apply st ev in
      go st (k + 1) (pin label (Es_scale.Delta.output st) :: acc)
  in
  (largest, Cluster.n_devices cluster, go st 0 [ pin "init" out ])

let test_parked_shard_pinned () =
  let largest, nd, runs = parked_runs () in
  Alcotest.(check bool)
    (Printf.sprintf "largest shard (%d of %d devices) holds more than half" largest nd)
    true
    (2 * largest > nd);
  let show (l, fp, bits) = Printf.sprintf "(%S, %S, %LdL)" l fp bits in
  if runs <> parked_expected then
    Alcotest.failf "parked-shard pins moved; computed:\n%s"
      (String.concat ";\n" (List.map show runs))

(* ---------- solver adapter + warm/assignment contract ---------- *)

let test_solver_adapter_online () =
  let cluster = cluster_of ~n:8 ~servers:2 "default" in
  let profile = Es_workload.Profiles.step_burst ~start_s:10.0 ~stop_s:20.0 ~factor:1.5 in
  let options =
    { Es_sim.Runner.default_options with duration_s = 30.0; warmup_s = 2.0 }
  in
  let solver = Es_scale.solver () in
  let sim = Online.run ~options ~solver ~epoch_s:10.0 ~rate_profile:profile cluster in
  Alcotest.(check int) "re-optimized at every epoch" 3 sim.Online.resolve_count;
  List.iter
    (fun (t, decisions) ->
      let scaled = Online.scale_rates cluster (profile t) in
      match Decision.validate scaled decisions with
      | Ok () -> ()
      | Error e -> Alcotest.failf "epoch at t=%.1f infeasible: %s" t e)
    sim.Online.schedule

let test_bad_inputs_ignored () =
  let cluster = cluster_of ~n:6 "default" in
  let base = Es_scale.solve cluster in
  let wrong_arity = Array.sub base.Es_scale.decisions 0 2 in
  let out = Es_scale.solve ~warm_start:wrong_arity cluster in
  Alcotest.(check string) "wrong-arity warm ignored"
    (Decision.fingerprint base.Es_scale.decisions)
    (Decision.fingerprint out.Es_scale.decisions);
  let out = Es_scale.solve ~assignment:[| 0; 7; 0; 0; 0; 0 |] cluster in
  Alcotest.(check string) "out-of-range assignment ignored"
    (Decision.fingerprint base.Es_scale.decisions)
    (Decision.fingerprint out.Es_scale.decisions)

let test_config_validation () =
  let cluster = cluster_of ~n:2 "default" in
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check bool)
        name true
        (try
           ignore (Es_scale.solve ~config:cfg cluster);
           false
         with Invalid_argument _ -> true))
    [
      ("max_sweeps 0", { Es_scale.default_config with Es_scale.max_sweeps = 0 });
      ("negative delta_sweeps", { Es_scale.default_config with Es_scale.delta_sweeps = -1 });
    ]

let test_counters () =
  let cluster = cluster_of ~n:5 "default" in
  let out = Es_scale.solve cluster in
  Alcotest.(check bool) "sweeps counted" true (out.Es_scale.sweeps >= 1);
  Alcotest.(check bool) "shard solves counted" true (out.Es_scale.shard_solves >= 1)

let () =
  Alcotest.run "es_scale"
    [
      ( "sharded",
        [
          Alcotest.test_case "feasible on named scenarios" `Slow test_feasible_named;
          Alcotest.test_case "bad warm/assignment ignored" `Quick test_bad_inputs_ignored;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "counters" `Quick test_counters;
          QCheck_alcotest.to_alcotest quality_vs_monolithic;
          QCheck_alcotest.to_alcotest bit_identity_across_jobs;
        ] );
      ( "delta",
        [
          Alcotest.test_case "rate change == shard re-solve" `Quick test_delta_rate_change;
          Alcotest.test_case "leave == shard re-solve" `Quick test_delta_leave;
          Alcotest.test_case "join == shard re-solve" `Quick test_delta_join;
          Alcotest.test_case "guards" `Quick test_delta_guards;
          Alcotest.test_case "parked shard pinned" `Quick test_parked_shard_pinned;
        ] );
      ( "online",
        [ Alcotest.test_case "solver adapter epochs feasible" `Slow test_solver_adapter_online ] );
    ]
