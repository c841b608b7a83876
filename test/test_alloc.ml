open Es_surgery
open Es_edge
open Es_alloc

let qtest ?(count = 60) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* The tests build and read the list shapes of the reference solver in
   test/oracle/: keyed item records, grants and results. *)
module L = Es_oracle.Minmax

let item ~key ?(fixed = 0.01) ?(bits = 8e6) ?(work = 0.01) ?(deadline = 0.2)
    ?(peak = 120e6) ?(rate = 2.0) () =
  { L.key; fixed_s = fixed; bits; work_s = work; deadline_s = deadline; peak_bps = peak; rate }

let latency_of_grant (it : L.item) (g : L.grant) =
  it.L.fixed_s
  +. (if it.L.bits > 0.0 then it.L.bits /. g.L.bandwidth_bps else 0.0)
  +. if it.L.work_s > 0.0 then it.L.work_s /. g.L.compute_share else 0.0

(* Filler for the slots around a solve's range: a solve must neither read
   nor write them. *)
let junk = -7.25e-7

(* [items] as a struct of arrays, at slots [pos ..] of arrays [pad] slots
   longer than the items need. *)
let arrays_at ~pos ~pad (items : L.item list) =
  let len = pos + List.length items + pad in
  let field f =
    let a = Array.make len junk in
    List.iteri (fun i it -> a.(pos + i) <- f it) items;
    a
  in
  {
    Minmax.fixed_s = field (fun it -> it.L.fixed_s);
    bits = field (fun it -> it.L.bits);
    work_s = field (fun it -> it.L.work_s);
    deadline_s = field (fun it -> it.L.deadline_s);
    peak_bps = field (fun it -> it.L.peak_bps);
    rate = field (fun it -> it.L.rate);
  }

let grants_at ~pos (items : L.item list) bw share =
  List.mapi
    (fun i (it : L.item) ->
      (it.L.key, { L.bandwidth_bps = bw.(pos + i); compute_share = share.(pos + i) }))
    items

(* [Minmax.solve] over [items] placed at slot [pos], in the reference's
   result shape; [Error] names a slot outside the range that changed. *)
let solve_at ~pos ~bandwidth_bps items =
  let n = List.length items in
  let xs = arrays_at ~pos ~pad:2 items in
  let bw = Array.make (pos + n + 2) junk and share = Array.make (pos + n + 2) junk in
  let theta = [| junk |] in
  let ok = Minmax.solve ~bandwidth_bps xs ~pos ~len:n ~bw ~share ~theta in
  let outside = ref None in
  Array.iteri
    (fun k v ->
      if (k < pos || k >= pos + n) && (v <> junk || share.(k) <> junk) then outside := Some k)
    bw;
  match !outside with
  | Some k -> Error k
  | None ->
      Ok (if ok then Some { L.theta = theta.(0); grants = grants_at ~pos items bw share } else None)

let solve ~bandwidth_bps items =
  match solve_at ~pos:0 ~bandwidth_bps items with
  | Ok r -> r
  | Error k -> Alcotest.failf "Minmax.solve wrote slot %d outside its range" k

(* A share rule over [items] placed at slot [pos], as a keyed grant list;
   [None] when it wrote outside the range. *)
let share_at ~pos rule ~bandwidth_bps items =
  let n = List.length items in
  let xs = arrays_at ~pos ~pad:2 items in
  let bw = Array.make (pos + n + 2) junk and share = Array.make (pos + n + 2) junk in
  rule ~bandwidth_bps xs ~pos ~len:n ~bw ~share;
  let clean = ref true in
  Array.iteri
    (fun k v -> if (k < pos || k >= pos + n) && (v <> junk || share.(k) <> junk) then clean := false)
    bw;
  if !clean then Some (grants_at ~pos items bw share) else None

let share rule ~bandwidth_bps items =
  match share_at ~pos:0 rule ~bandwidth_bps items with
  | Some gs -> gs
  | None -> Alcotest.fail "share rule wrote outside its range"

(* ---------- Minmax ---------- *)

let test_minmax_empty () =
  match solve ~bandwidth_bps:1e8 [] with
  | Some r ->
      Alcotest.(check (float 0.0)) "zero theta" 0.0 r.L.theta;
      Alcotest.(check int) "no grants" 0 (List.length r.L.grants)
  | None -> Alcotest.fail "empty allocation must succeed"

let test_minmax_single_item () =
  let it = item ~key:0 () in
  match solve ~bandwidth_bps:200e6 [ it ] with
  | None -> Alcotest.fail "single light item must be feasible"
  | Some r ->
      let g = List.assoc 0 r.L.grants in
      Alcotest.(check bool) "bandwidth positive" true (g.L.bandwidth_bps > 0.0);
      Alcotest.(check bool) "share positive" true (g.L.compute_share > 0.0);
      Alcotest.(check bool) "peak respected" true (g.L.bandwidth_bps <= 120e6 +. 1.0);
      Alcotest.(check bool) "share within 1" true (g.L.compute_share <= 1.0 +. 1e-9)

let test_minmax_respects_capacity () =
  let items = List.init 8 (fun k -> item ~key:k ()) in
  match solve ~bandwidth_bps:150e6 items with
  | None -> Alcotest.fail "8 light items must fit"
  | Some r ->
      let bw = List.fold_left (fun acc (_, g) -> acc +. g.L.bandwidth_bps) 0.0 r.L.grants in
      let sh = List.fold_left (fun acc (_, g) -> acc +. g.L.compute_share) 0.0 r.L.grants in
      Alcotest.(check bool) "bandwidth within AP" true (bw <= 150e6 *. 1.0001);
      Alcotest.(check bool) "shares within 1" true (sh <= 1.0001)

let test_minmax_theta_reflects_latency () =
  let items = [ item ~key:0 ~deadline:0.1 (); item ~key:1 ~deadline:0.3 () ] in
  match solve ~bandwidth_bps:200e6 items with
  | None -> Alcotest.fail "must be feasible"
  | Some r ->
      List.iter
        (fun it ->
          let g = List.assoc it.L.key r.L.grants in
          let ratio = latency_of_grant it g /. it.L.deadline_s in
          (* Post-solve scale-up can only improve on theta. *)
          Alcotest.(check bool)
            (Printf.sprintf "normalized latency %.3f <= theta %.3f" ratio r.L.theta)
            true
            (ratio <= r.L.theta +. 1e-6))
        items

let test_minmax_infeasible_offered_load () =
  (* Work demand alone: 10 items x rate 2 x 100ms of server time = 2.0 > 1. *)
  let items = List.init 10 (fun k -> item ~key:k ~work:0.1 ~rate:2.0 ()) in
  Alcotest.(check bool) "overload detected" true
    (solve ~bandwidth_bps:1e9 items = None)

let test_minmax_infeasible_bandwidth () =
  (* 4 items x rate 2 x 8 Mbit = 64 Mbps of demand on a 10 Mbps AP. *)
  let items = List.init 4 (fun k -> item ~key:k ~bits:8e6 ~rate:2.0 ()) in
  Alcotest.(check bool) "AP overload detected" true
    (solve ~bandwidth_bps:10e6 items = None)

let test_minmax_compute_only_item () =
  let items = [ item ~key:0 ~bits:0.0 ~work:0.02 () ] in
  match solve ~bandwidth_bps:1e8 items with
  | None -> Alcotest.fail "compute-only item must be feasible"
  | Some r ->
      let g = List.assoc 0 r.L.grants in
      Alcotest.(check (float 0.0)) "no bandwidth needed" 0.0 g.L.bandwidth_bps;
      Alcotest.(check bool) "share granted" true (g.L.compute_share > 0.0)

let test_minmax_transfer_only_item () =
  let items = [ item ~key:0 ~work:0.0 () ] in
  match solve ~bandwidth_bps:1e8 items with
  | None -> Alcotest.fail "transfer-only item must be feasible"
  | Some r ->
      let g = List.assoc 0 r.L.grants in
      Alcotest.(check bool) "bandwidth granted" true (g.L.bandwidth_bps > 0.0);
      Alcotest.(check (float 0.0)) "no share needed" 0.0 g.L.compute_share

let test_minmax_better_than_equal_split () =
  (* One heavy transfer + one heavy compute: the optimal split must beat an
     equal split on the max normalized latency. *)
  let heavy_transfer = item ~key:0 ~bits:40e6 ~work:0.001 ~deadline:0.5 ~peak:1e9 () in
  let heavy_compute = item ~key:1 ~bits:0.8e6 ~work:0.08 ~deadline:0.5 ~peak:1e9 () in
  let items = [ heavy_transfer; heavy_compute ] in
  let bandwidth = 100e6 in
  match solve ~bandwidth_bps:bandwidth items with
  | None -> Alcotest.fail "must be feasible"
  | Some r ->
      let equal_grant =
        { L.bandwidth_bps = bandwidth /. 2.0; compute_share = 0.5 }
      in
      let equal_max =
        List.fold_left
          (fun acc it ->
            Float.max acc (latency_of_grant it equal_grant /. it.L.deadline_s))
          0.0 items
      in
      let opt_max =
        List.fold_left
          (fun acc it ->
            let g = List.assoc it.L.key r.L.grants in
            Float.max acc (latency_of_grant it g /. it.L.deadline_s))
          0.0 items
      in
      Alcotest.(check bool)
        (Printf.sprintf "optimal %.4f <= equal %.4f" opt_max equal_max)
        true (opt_max <= equal_max +. 1e-6)

let prop_minmax_grants_feasible =
  qtest "grants never exceed capacity for random item sets"
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (float_range 0.5 30.0) (float_range 0.001 0.03)))
    (fun specs ->
      let items =
        List.mapi
          (fun k (mbits, work) -> item ~key:k ~bits:(mbits *. 1e6) ~work ~rate:1.0 ())
          specs
      in
      match solve ~bandwidth_bps:400e6 items with
      | None -> true (* infeasibility is a legal answer *)
      | Some r ->
          let bw =
            List.fold_left (fun acc (_, g) -> acc +. g.L.bandwidth_bps) 0.0 r.L.grants
          in
          let sh =
            List.fold_left (fun acc (_, g) -> acc +. g.L.compute_share) 0.0 r.L.grants
          in
          bw <= 400e6 *. 1.001
          && sh <= 1.001
          && List.for_all
               (fun (_, (g : L.grant)) ->
                 g.L.bandwidth_bps >= 0.0 && g.L.compute_share >= 0.0)
               r.L.grants)

let prop_minmax_brute_force_theta =
  (* Two items, one resource dimension active at a time: compare against a
     dense grid search over splits. *)
  qtest ~count:25 "theta matches a grid search within 2%"
    QCheck.(pair (float_range 2.0 30.0) (float_range 2.0 30.0))
    (fun (m1, m2) ->
      let items =
        [
          item ~key:0 ~bits:(m1 *. 1e6) ~work:0.01 ~deadline:0.2 ~peak:1e9 ~rate:0.5 ();
          item ~key:1 ~bits:(m2 *. 1e6) ~work:0.01 ~deadline:0.2 ~peak:1e9 ~rate:0.5 ();
        ]
      in
      let bandwidth = 200e6 in
      match solve ~bandwidth_bps:bandwidth items with
      | None -> false
      | Some r ->
          (* Grid over (bandwidth fraction, share fraction) for item 0. *)
          let best = ref infinity in
          for bi = 1 to 99 do
            for si = 1 to 99 do
              let fb = float_of_int bi /. 100.0 and fs = float_of_int si /. 100.0 in
              let g0 = { L.bandwidth_bps = bandwidth *. fb; compute_share = fs } in
              let g1 =
                { L.bandwidth_bps = bandwidth *. (1.0 -. fb); compute_share = 1.0 -. fs }
              in
              let v =
                Float.max
                  (latency_of_grant (List.nth items 0) g0 /. 0.2)
                  (latency_of_grant (List.nth items 1) g1 /. 0.2)
              in
              if v < !best then best := v
            done
          done;
          r.L.theta <= !best *. 1.02)

(* ---------- Share rules ---------- *)

let test_share_equal () =
  let items = [ item ~key:0 ~peak:1e9 (); item ~key:1 ~peak:1e9 () ] in
  let grants = share Share.equal ~bandwidth_bps:100e6 items in
  List.iter
    (fun (_, (g : L.grant)) ->
      Alcotest.(check (float 1e3)) "half the AP" 50e6 g.L.bandwidth_bps;
      Alcotest.(check (float 1e-6)) "half the server" 0.5 g.L.compute_share)
    grants

let test_share_equal_respects_peak () =
  let items = [ item ~key:0 ~peak:10e6 (); item ~key:1 ~peak:1e9 () ] in
  let grants = share Share.equal ~bandwidth_bps:200e6 items in
  let g0 = List.assoc 0 grants and g1 = List.assoc 1 grants in
  Alcotest.(check bool) "capped at the radio" true (g0.L.bandwidth_bps <= 10e6 +. 1.0);
  (* The spare bandwidth goes to the uncapped device. *)
  Alcotest.(check bool) "leftover redistributed" true (g1.L.bandwidth_bps > 100e6)

let test_share_proportional () =
  let items = [ item ~key:0 ~bits:30e6 ~work:0.03 ~peak:1e9 (); item ~key:1 ~bits:10e6 ~work:0.01 ~peak:1e9 () ] in
  let grants = share Share.proportional ~bandwidth_bps:100e6 items in
  let g0 = List.assoc 0 grants and g1 = List.assoc 1 grants in
  Alcotest.(check (float 1e4)) "3x the bandwidth" (3.0 *. g1.L.bandwidth_bps)
    g0.L.bandwidth_bps;
  Alcotest.(check (float 1e-6)) "3x the share" (3.0 *. g1.L.compute_share)
    g0.L.compute_share

let test_share_sqrt_rule () =
  (* Square-root rule: 4x the demand gets only 2x the bandwidth. *)
  let items =
    [ item ~key:0 ~bits:40e6 ~work:0.04 ~rate:1.0 ~peak:1e9 (); item ~key:1 ~bits:10e6 ~work:0.01 ~rate:1.0 ~peak:1e9 () ]
  in
  let grants = share Share.sqrt_rule ~bandwidth_bps:100e6 items in
  let g0 = List.assoc 0 grants and g1 = List.assoc 1 grants in
  Alcotest.(check (float 1e4)) "2x the bandwidth" (2.0 *. g1.L.bandwidth_bps)
    g0.L.bandwidth_bps

let test_share_zero_demand_gets_nothing () =
  let items = [ item ~key:0 ~bits:0.0 ~work:0.01 (); item ~key:1 ~bits:8e6 ~work:0.0 () ] in
  let grants = share Share.proportional ~bandwidth_bps:100e6 items in
  let g0 = List.assoc 0 grants and g1 = List.assoc 1 grants in
  Alcotest.(check (float 0.0)) "no bits, no bandwidth" 0.0 g0.L.bandwidth_bps;
  Alcotest.(check (float 0.0)) "no work, no share" 0.0 g1.L.compute_share;
  Alcotest.(check (float 1e-6)) "all compute to the worker" 1.0 g0.L.compute_share

(* ---------- Policy / Assign ---------- *)

let cluster () = Scenario.build Scenario.default

let test_policy_decisions_cover_all_devices () =
  let c = cluster () in
  let plans = Array.map (fun (d : Cluster.device) -> Plan.server_only d.Cluster.model) c.Cluster.devices in
  let assignment = Assign.balanced_greedy c ~plans in
  match Policy.decisions Policy.Equal c ~assignment ~plans with
  | None -> Alcotest.fail "equal allocation always succeeds"
  | Some ds ->
      Alcotest.(check int) "one per device" (Cluster.n_devices c) (Array.length ds);
      (match Decision.validate c ds with Ok () -> () | Error e -> Alcotest.fail e)

let test_policy_minmax_valid () =
  (* A hand-built, comfortably feasible instance: two light devices sharing
     one GPU server over WiFi. *)
  let model = Es_dnn.Zoo.mobilenet_v2 () in
  let c =
    Cluster.make
      ~devices:
        [
          Cluster.device ~id:0 ~proc:Processor.raspberry_pi ~link:Link.wifi ~model ~rate:1.0
            ~deadline:0.3 ();
          Cluster.device ~id:1 ~proc:Processor.smartphone ~link:Link.wifi ~model ~rate:1.0
            ~deadline:0.3 ();
        ]
      ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_gpu ~ap_bandwidth_mbps:300.0 () ]
  in
  let plans =
    Array.map
      (fun (d : Cluster.device) ->
        Plan.make ~cut:(Es_dnn.Graph.n_nodes d.Cluster.model / 2) d.Cluster.model)
      c.Cluster.devices
  in
  let assignment = Assign.balanced_greedy c ~plans in
  match Policy.decisions Policy.Minmax_alloc c ~assignment ~plans with
  | None -> Alcotest.fail "minmax should allocate this feasible instance"
  | Some ds -> (
      match Decision.validate c ds with Ok () -> () | Error e -> Alcotest.fail e)

let test_policy_device_only_plans_get_no_grants () =
  let c = cluster () in
  let plans = Array.map (fun (d : Cluster.device) -> Plan.device_only d.Cluster.model) c.Cluster.devices in
  let assignment = Array.make (Cluster.n_devices c) 0 in
  match Policy.decisions Policy.Minmax_alloc c ~assignment ~plans with
  | None -> Alcotest.fail "all-local allocation is trivially feasible"
  | Some ds ->
      Array.iter
        (fun (d : Decision.t) ->
          Alcotest.(check (float 0.0)) "no bandwidth" 0.0 d.Decision.bandwidth_bps;
          Alcotest.(check (float 0.0)) "no share" 0.0 d.Decision.compute_share)
        ds

let test_assign_balanced_greedy_spreads () =
  let c = cluster () in
  let plans = Array.map (fun (d : Cluster.device) -> Plan.server_only d.Cluster.model) c.Cluster.devices in
  let assignment = Assign.balanced_greedy c ~plans in
  let counts = Array.make (Cluster.n_servers c) 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) assignment;
  Array.iter
    (fun n -> Alcotest.(check bool) "both servers used" true (n > 0))
    counts

let test_local_search_improves () =
  (* Synthetic eval: server imbalance; local search must reach balance. *)
  let eval a =
    let c0 = Array.fold_left (fun acc s -> if s = 0 then acc + 1 else acc) 0 a in
    let c1 = Array.length a - c0 in
    Float.abs (float_of_int (c0 - c1))
  in
  let skewed = Array.make 10 0 in
  let result = Assign.local_search ~n_servers:2 ~eval skewed in
  Alcotest.(check (float 0.0)) "balanced" 0.0 (eval result);
  Alcotest.(check bool) "input untouched" true (Array.for_all (fun s -> s = 0) skewed)

(* ---------- Admission ---------- *)

(* A cluster whose full-offload load no allocation can stabilize. *)
let overloaded_cluster () =
  let model = Es_dnn.Zoo.resnet50 () in
  let devices =
    List.init 6 (fun i ->
        Cluster.device ~id:i ~proc:Processor.raspberry_pi ~link:Link.wifi ~model
          ~rate:(if i = 0 then 0.2 else 4.0)
          ~deadline:0.3 ())
  in
  Cluster.make ~devices
    ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_cpu ~ap_bandwidth_mbps:60.0 () ]

let admission_setup () =
  let c = overloaded_cluster () in
  let plans =
    Array.map (fun (d : Cluster.device) -> Plan.server_only d.Cluster.model) c.Cluster.devices
  in
  let assignment = Array.make (Cluster.n_devices c) 0 in
  (c, plans, assignment)

let test_admission_needed () =
  let c, plans, assignment = admission_setup () in
  Alcotest.(check bool) "instance is indeed infeasible" true
    (Policy.decisions Policy.Minmax_alloc c ~assignment ~plans = None)

let test_admission_serves_a_stable_subset () =
  let c, plans, assignment = admission_setup () in
  let local_plan i = Plan.device_only c.Cluster.devices.(i).Cluster.model in
  let out = Admission.control ~local_plan c ~assignment ~plans in
  Alcotest.(check bool) "someone rejected" true (out.Admission.rejected <> []);
  Alcotest.(check bool) "someone served" true (out.Admission.served <> []);
  Alcotest.(check int) "served + rejected = devices" (Cluster.n_devices c)
    (List.length out.Admission.served + List.length out.Admission.rejected);
  (match Decision.validate c out.Admission.decisions with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Served devices' grants are stable; rejected ones run locally. *)
  List.iter
    (fun i ->
      Alcotest.(check bool) "served stable" true
        (Latency.device_stable c out.Admission.decisions.(i)))
    out.Admission.served;
  List.iter
    (fun i ->
      Alcotest.(check bool) "rejected are local" false
        (Decision.offloads out.Admission.decisions.(i)))
    out.Admission.rejected

let test_admission_weight_protects () =
  let c, plans, assignment = admission_setup () in
  let local_plan i = Plan.device_only c.Cluster.devices.(i).Cluster.model in
  (* Give device 1 enormous value: it must survive eviction. *)
  let weight (d : Cluster.device) = if d.Cluster.dev_id = 1 then 1e6 else 1.0 in
  let out = Admission.control ~weight ~local_plan c ~assignment ~plans in
  Alcotest.(check bool) "high-value device kept" true (List.mem 1 out.Admission.served)

let test_admission_noop_when_feasible () =
  let model = Es_dnn.Zoo.mobilenet_v2 () in
  let c =
    Cluster.make
      ~devices:
        [
          Cluster.device ~id:0 ~proc:Processor.raspberry_pi ~link:Link.wifi ~model ~rate:1.0
            ~deadline:0.3 ();
        ]
      ~servers:[ Cluster.server ~id:0 ~proc:Processor.edge_gpu ~ap_bandwidth_mbps:300.0 () ]
  in
  let plans = [| Plan.server_only model |] in
  let out =
    Admission.control ~local_plan:(fun _ -> Plan.device_only model) c
      ~assignment:[| 0 |] ~plans
  in
  Alcotest.(check (list int)) "nobody rejected" [] out.Admission.rejected;
  Alcotest.(check (list int)) "device served" [ 0 ] out.Admission.served

let test_admission_rejects_bad_local_plan () =
  let c, plans, assignment = admission_setup () in
  Alcotest.check_raises "local_plan must be device-only"
    (Invalid_argument "Admission.control: local_plan must be device-only") (fun () ->
      ignore
        (Admission.control
           ~local_plan:(fun i -> Plan.server_only c.Cluster.devices.(i).Cluster.model)
           c ~assignment ~plans))

(* ---------- Token bucket ---------- *)

let test_bucket_drains_and_refills () =
  let b = Admission.Token_bucket.create ~rate:2.0 ~burst:4.0 () in
  Alcotest.(check (float 1e-12)) "starts full" 4.0 (Admission.Token_bucket.tokens b ~now:0.0);
  for _ = 1 to 4 do
    Alcotest.(check bool) "burst admits" true (Admission.Token_bucket.try_take b ~now:0.0)
  done;
  Alcotest.(check bool) "empty bucket refuses" false
    (Admission.Token_bucket.try_take b ~now:0.0);
  (* 0.5 s at 2 tokens/s buys exactly one request. *)
  Alcotest.(check bool) "refill admits again" true
    (Admission.Token_bucket.try_take b ~now:0.5);
  Alcotest.(check bool) "but only once" false (Admission.Token_bucket.try_take b ~now:0.5);
  (* A long idle period clamps at the burst, not rate x elapsed. *)
  Alcotest.(check (float 1e-12)) "refill clamps at burst" 4.0
    (Admission.Token_bucket.tokens b ~now:1000.0)

let test_bucket_set_rate_and_cost () =
  let b = Admission.Token_bucket.create ~rate:1.0 ~burst:10.0 () in
  for _ = 1 to 10 do
    ignore (Admission.Token_bucket.try_take b ~now:0.0)
  done;
  Alcotest.(check (float 1e-12)) "drained" 0.0 (Admission.Token_bucket.tokens b ~now:0.0);
  (* Settle the accrued tokens at t=2 (2 tokens), then switch to 4/s:
     by t=3 the bucket holds 2 + 4 = 6. *)
  Admission.Token_bucket.set_rate b ~now:2.0 4.0;
  Alcotest.(check (float 1e-12)) "rate change applies forward only" 6.0
    (Admission.Token_bucket.tokens b ~now:3.0);
  for _ = 1 to 6 do
    Alcotest.(check bool) "each take costs one token" true
      (Admission.Token_bucket.try_take b ~now:3.0)
  done;
  Alcotest.(check bool) "drained by six takes" false
    (Admission.Token_bucket.try_take b ~now:3.0);
  Alcotest.(check (float 1e-12)) "rate getter" 4.0 (Admission.Token_bucket.rate b);
  Alcotest.(check (float 1e-12)) "burst getter" 10.0 (Admission.Token_bucket.burst b)

let test_bucket_deterministic_sampling () =
  (* Lazy refill is a pure function of elapsed time: polling the bucket at
     different granularities must admit exactly the same request times. *)
  let admits step =
    let b = Admission.Token_bucket.create ~rate:0.5 ~burst:2.0 () in
    (* one token in hand at the first poll *)
    ignore (Admission.Token_bucket.try_take b ~now:0.0);
    let out = ref [] in
    let t = ref 0.0 in
    while !t < 20.0 do
      if Admission.Token_bucket.try_take b ~now:!t then out := !t :: !out;
      t := !t +. step
    done;
    List.rev !out
  in
  (* Coarser polling is a subset sampled at the same token schedule: at
     matching instants the two agree. *)
  let fine = admits 0.5 and coarse = admits 2.5 in
  List.iter
    (fun tc ->
      Alcotest.(check bool)
        (Printf.sprintf "admit at %.1f agrees across sampling rates" tc)
        true
        (List.exists (fun tf -> Float.abs (tf -. tc) < 1.25) fine))
    coarse

let test_bucket_rejects_bad_params () =
  let raises f =
    match
      try
        ignore (f ());
        `No_raise
      with Invalid_argument _ -> `Raised
    with
    | `Raised -> ()
    | `No_raise -> Alcotest.fail "bad bucket parameter accepted"
  in
  raises (fun () -> Admission.Token_bucket.create ~rate:(-1.0) ~burst:5.0 ());
  raises (fun () -> Admission.Token_bucket.create ~rate:1.0 ~burst:0.0 ());
  raises (fun () -> Admission.Token_bucket.create ~rate:Float.nan ~burst:5.0 ());
  let b = Admission.Token_bucket.create ~rate:1.0 ~burst:5.0 () in
  raises (fun () -> Admission.Token_bucket.set_rate b ~now:0.0 Float.infinity)

(* ---------- Flat scratch-buffer solver vs the record/closure oracle ---------- *)

(* Bit-pattern equality: stricter than (=), which conflates 0.0 and -0.0. *)
let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

let grants_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun (k, (g : L.grant)) (k', (g' : L.grant)) ->
         k = k'
         && feq g.L.bandwidth_bps g'.L.bandwidth_bps
         && feq g.L.compute_share g'.L.compute_share)
       a b

(* One item: (fixed_s, bits, work_s, deadline_s), (rate, peak).  The 0.0
   lower bounds on bits and work hit the transfer-only / compute-only
   special cases, and fixed_s close to deadline_s probes the infeasible-θ
   growth path. *)
let gen_spec =
  QCheck.Gen.(
    pair
      (quad (float_range 0.0 0.05) (float_range 0.0 2e7) (float_range 0.0 0.05)
         (float_range 0.05 0.3))
      (pair (float_range 0.2 5.0) (float_range 2e7 1.5e8)))

(* Rates scaled so the heavier of the bandwidth and compute loads sits at
   [level] of the 0.95 stability margin (above 1, the prechecks reject the
   instance). *)
let load_to ~bandwidth ~level specs =
  let bit_load = ref 0.0 and work_load = ref 0.0 in
  List.iter
    (fun ((_, bits, work, _), (rate, _)) ->
      bit_load := !bit_load +. (rate *. bits);
      work_load := !work_load +. (rate *. work))
    specs;
  let load = Float.max (!bit_load /. bandwidth) !work_load in
  let scale = if load > 0.0 then level *. 0.95 /. load else 1.0 in
  List.map (fun (item, (rate, peak)) -> (item, (rate *. scale, peak))) specs

(* Server bandwidth, up to 40 items and the slot the solve's range starts
   at.  A third of the instances are free draws and a third copies of at
   most three distinct items (exact ties in every sum), both loaded to
   5–110% of the margin.  The last third is tight: loaded to 97–100% of the
   margin, with fixed_s a hair under the deadline, so θ starts just under 1
   and the μ probes' load max lands near the 1 + 1e-9 verdict line. *)
let gen_instance =
  QCheck.Gen.(
    let* bandwidth = float_range 1e7 3e8 in
    let* n = int_range 0 40 in
    let* shape = int_range 0 2 in
    let* specs =
      match shape with
      | 0 -> list_repeat n gen_spec
      | 1 ->
          let* protos = list_repeat 3 gen_spec in
          let+ picks = list_repeat n (int_range 0 2) in
          List.map (List.nth protos) picks
      | _ ->
          let* gap = float_range 1e-6 1e-2 in
          let+ raw = list_repeat n gen_spec in
          List.map
            (fun ((_, bits, work, deadline), rest) ->
              ((deadline *. (1.0 -. gap), bits, work, deadline), rest))
            raw
    in
    let* level = if shape = 2 then float_range 0.97 1.0 else float_range 0.05 1.1 in
    let+ pos = int_range 0 3 in
    (bandwidth, load_to ~bandwidth ~level specs, pos))

let arb_instance =
  QCheck.make
    ~print:(fun (bandwidth, specs, pos) ->
      Printf.sprintf "bandwidth %h, pos %d, items [%s]" bandwidth pos
        (String.concat "; "
           (List.map
              (fun ((f, b, w, d), (r, p)) ->
                Printf.sprintf "(%h, %h, %h, %h, %h, %h)" f b w d r p)
              specs)))
    gen_instance

let items_of specs =
  List.mapi
    (fun i ((fixed, bits, work, deadline), (rate, peak)) ->
      item ~key:i ~fixed ~bits ~work ~deadline ~peak ~rate ())
    specs

let solve_agrees (bandwidth_bps, specs, pos) =
  let items = items_of specs in
  match (solve_at ~pos ~bandwidth_bps items, Es_oracle.Minmax.solve ~bandwidth_bps items) with
  | Error k, _ -> QCheck.Test.fail_reportf "wrote slot %d outside the range" k
  | Ok None, None -> true
  | Ok (Some r), Some r' -> feq r.L.theta r'.L.theta && grants_eq r.L.grants r'.L.grants
  | Ok _, _ -> false

let prop_minmax_flat_matches_oracle =
  qtest ~count:300 "flat scratch solve = record/closure solve (bit-exact)" arb_instance
    solve_agrees

let prop_share_rules_match_oracle =
  qtest ~count:200 "share rules = their _ref oracles (bit-exact)" arb_instance
    (fun (bandwidth_bps, specs, pos) ->
      let items = items_of specs in
      let agrees rule rule' =
        match share_at ~pos rule ~bandwidth_bps items with
        | Some gs -> grants_eq gs (rule' ~bandwidth_bps items)
        | None -> false
      in
      agrees Share.equal Es_oracle.Share.equal
      && agrees Share.proportional Es_oracle.Share.proportional
      && agrees Share.sqrt_rule Es_oracle.Share.sqrt_rule)

(* Steady-state kernels writing into caller arrays allocate nothing: the
   min-max solve and each share rule on eight items. *)
let test_kernels_zero_alloc () =
  let items = List.init 8 (fun k -> item ~key:k ~bits:(float_of_int (k + 1) *. 2e6) ()) in
  let xs = arrays_at ~pos:0 ~pad:0 items in
  let bw = Array.make 8 0.0 and share = Array.make 8 0.0 and theta = [| 0.0 |] in
  let feasible = ref false in
  let words =
    Es_util.Alloc_probe.minor_words (fun () ->
        feasible := Minmax.solve ~bandwidth_bps:2e8 xs ~pos:0 ~len:8 ~bw ~share ~theta)
  in
  Alcotest.(check bool) "the instance is feasible" true !feasible;
  Alcotest.(check (float 0.0)) "Minmax.solve allocates zero minor words" 0.0 words;
  List.iter
    (fun (name, rule) ->
      Alcotest.(check (float 0.0))
        (name ^ " allocates zero minor words")
        0.0
        (Es_util.Alloc_probe.minor_words (fun () ->
             rule ~bandwidth_bps:2e8 xs ~pos:0 ~len:8 ~bw ~share)))
    [
      ("Share.equal", Share.equal);
      ("Share.proportional", Share.proportional);
      ("Share.sqrt_rule", Share.sqrt_rule);
    ]

(* ---------- Pareto skyline allocation ---------- *)

(* One frontier over mobilenet_v2's 3,162 candidate keys.  The dominance
   tests compare unboxed floats, so the call allocates little beyond its
   output: the surviving cons cells (the array-sized scratch is large enough
   to go straight to the major heap). *)
let test_skyline_allocation () =
  let keys =
    List.map Candidate.plan_key (Candidate.generate (Es_dnn.Zoo.mobilenet_v2 ()))
  in
  let n = List.length keys in
  let words =
    Es_util.Alloc_probe.minor_words (fun () ->
        ignore (Sys.opaque_identity (Es_util.Pareto.frontier Fun.id keys)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= 4n = %d" words (4 * n))
    true
    (words <= float_of_int (4 * n))

let () =
  Alcotest.run "es_alloc"
    [
      ( "minmax",
        [
          Alcotest.test_case "empty" `Quick test_minmax_empty;
          Alcotest.test_case "single item" `Quick test_minmax_single_item;
          Alcotest.test_case "capacity" `Quick test_minmax_respects_capacity;
          Alcotest.test_case "theta vs latency" `Quick test_minmax_theta_reflects_latency;
          Alcotest.test_case "infeasible compute" `Quick test_minmax_infeasible_offered_load;
          Alcotest.test_case "infeasible bandwidth" `Quick test_minmax_infeasible_bandwidth;
          Alcotest.test_case "compute-only item" `Quick test_minmax_compute_only_item;
          Alcotest.test_case "transfer-only item" `Quick test_minmax_transfer_only_item;
          Alcotest.test_case "beats equal split" `Quick test_minmax_better_than_equal_split;
          prop_minmax_grants_feasible;
          prop_minmax_brute_force_theta;
          prop_minmax_flat_matches_oracle;
          Alcotest.test_case "kernels allocate nothing" `Quick test_kernels_zero_alloc;
        ] );
      ( "share",
        [
          Alcotest.test_case "equal" `Quick test_share_equal;
          Alcotest.test_case "equal respects peak" `Quick test_share_equal_respects_peak;
          Alcotest.test_case "proportional" `Quick test_share_proportional;
          Alcotest.test_case "sqrt rule" `Quick test_share_sqrt_rule;
          Alcotest.test_case "zero demand" `Quick test_share_zero_demand_gets_nothing;
          prop_share_rules_match_oracle;
        ] );
      ( "admission",
        [
          Alcotest.test_case "instance infeasible" `Quick test_admission_needed;
          Alcotest.test_case "stable subset" `Quick test_admission_serves_a_stable_subset;
          Alcotest.test_case "weights protect" `Quick test_admission_weight_protects;
          Alcotest.test_case "noop when feasible" `Quick test_admission_noop_when_feasible;
          Alcotest.test_case "bad local plan" `Quick test_admission_rejects_bad_local_plan;
        ] );
      ( "token-bucket",
        [
          Alcotest.test_case "drains and refills" `Quick test_bucket_drains_and_refills;
          Alcotest.test_case "set_rate and cost" `Quick test_bucket_set_rate_and_cost;
          Alcotest.test_case "deterministic sampling" `Quick test_bucket_deterministic_sampling;
          Alcotest.test_case "rejects bad params" `Quick test_bucket_rejects_bad_params;
        ] );
      ("pareto", [ Alcotest.test_case "skyline allocation" `Quick test_skyline_allocation ]);
      ( "policy+assign",
        [
          Alcotest.test_case "decisions cover devices" `Quick test_policy_decisions_cover_all_devices;
          Alcotest.test_case "minmax validates" `Quick test_policy_minmax_valid;
          Alcotest.test_case "local plans unresourced" `Quick test_policy_device_only_plans_get_no_grants;
          Alcotest.test_case "greedy spreads" `Quick test_assign_balanced_greedy_spreads;
          Alcotest.test_case "local search improves" `Quick test_local_search_improves;
        ] );
    ]
