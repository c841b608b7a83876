open Es_dnn
open Es_surgery

let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let resnet18 = Zoo.resnet18 ()
let alexnet = Zoo.alexnet ()
let yolo = Zoo.yolo_tiny ()

(* ---------- Accuracy ---------- *)

let test_accuracy_full_model () =
  let p = Accuracy.profile_of_model "resnet18" in
  Alcotest.(check (float 1e-9)) "full depth & width = published accuracy" p.Accuracy.full_accuracy
    (Accuracy.predict p ~depth_frac:1.0 ~width:1.0)

let test_accuracy_monotone_depth () =
  let p = Accuracy.profile_of_model "resnet50" in
  let prev = ref 0.0 in
  List.iter
    (fun d ->
      let a = Accuracy.predict p ~depth_frac:d ~width:1.0 in
      Alcotest.(check bool) "deeper is at least as accurate" true (a >= !prev -. 1e-12);
      prev := a)
    [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ]

let test_accuracy_monotone_width () =
  let p = Accuracy.profile_of_model "mobilenet_v1" in
  let a_half = Accuracy.predict p ~depth_frac:1.0 ~width:0.5 in
  let a_full = Accuracy.predict p ~depth_frac:1.0 ~width:1.0 in
  Alcotest.(check bool) "wider is more accurate" true (a_full > a_half)

let test_accuracy_errors () =
  let p = Accuracy.profile_of_model "alexnet" in
  Alcotest.check_raises "bad depth" (Invalid_argument "Accuracy.predict: depth_frac outside (0,1]")
    (fun () -> ignore (Accuracy.predict p ~depth_frac:0.0 ~width:1.0));
  Alcotest.check_raises "bad width" (Invalid_argument "Accuracy.predict: width outside (0,1]")
    (fun () -> ignore (Accuracy.predict p ~depth_frac:1.0 ~width:1.5))

let test_accuracy_unknown_model_generic () =
  let p = Accuracy.profile_of_model "mystery_net" in
  Alcotest.(check bool) "generic profile is sane" true
    (p.Accuracy.full_accuracy > 0.0 && p.Accuracy.full_accuracy <= 1.0)

let test_exit_distribution_sums_to_one () =
  let probs = Accuracy.exit_distribution [| 0.4; 0.6; 0.7 |] in
  let total = Array.fold_left ( +. ) 0.0 probs in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 total;
  Array.iter (fun p -> Alcotest.(check bool) "non-negative" true (p >= 0.0)) probs

let test_exit_distribution_kappa () =
  (* Higher kappa = harder inputs = fewer early exits. *)
  let acc = [| 0.4; 0.6; 0.7 |] in
  let easy = Accuracy.exit_distribution ~kappa:1.0 acc in
  let hard = Accuracy.exit_distribution ~kappa:6.0 acc in
  Alcotest.(check bool) "kappa shifts mass deeper" true (hard.(0) < easy.(0))

let test_expected_accuracy () =
  let e = Accuracy.expected_accuracy [| 0.5; 0.5 |] [| 0.6; 0.8 |] in
  Alcotest.(check (float 1e-9)) "inner product" 0.7 e;
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Accuracy.expected_accuracy: length mismatch") (fun () ->
      ignore (Accuracy.expected_accuracy [| 1.0 |] [| 0.5; 0.5 |]))

let prop_exit_distribution_valid =
  qtest "exit distribution is a distribution for any accuracy ladder"
    QCheck.(list_of_size (Gen.int_range 1 8) (float_range 0.1 1.0))
    (fun accs ->
      let sorted = List.sort compare accs in
      let probs = Accuracy.exit_distribution (Array.of_list sorted) in
      let total = Array.fold_left ( +. ) 0.0 probs in
      Array.for_all (fun p -> p >= -1e-9) probs && Float.abs (total -. 1.0) < 1e-9)

(* ---------- Plan ---------- *)

let test_truncate_shapes () =
  let exits = Graph.exit_candidate_ids resnet18 in
  List.iter
    (fun id ->
      let t = Plan.truncate_at resnet18 id in
      (match Graph.validate t with Ok () -> () | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "classifier head: 1000 classes" true
        (Shape.equal (Graph.output_shape t) (Shape.vec 1000));
      (* The last exit sits just before the original head, so its truncation
         costs about the same as the base; earlier exits must be strictly
         cheaper.  Allow 1% slack for the fresh exit head. *)
      Alcotest.(check bool) "truncation no bigger than the base" true
        (Graph.total_flops t <= 1.01 *. Graph.total_flops resnet18))
    exits;
  let first = Plan.truncate_at resnet18 (List.hd exits) in
  Alcotest.(check bool) "first exit strictly cheaper" true
    (Graph.total_flops first < 0.6 *. Graph.total_flops resnet18)

let test_truncate_detector () =
  let exits = Graph.exit_candidate_ids yolo in
  let t = Plan.truncate_at yolo (List.hd exits) in
  (match Graph.validate t with Ok () -> () | Error e -> Alcotest.fail e);
  match Graph.output_shape t with
  | Shape.Map { c; _ } -> Alcotest.(check int) "detector head keeps channels" 125 c
  | Shape.Vec _ -> Alcotest.fail "detector exit must stay convolutional"

let test_truncate_at_output_is_identity () =
  let t = Plan.truncate_at resnet18 resnet18.Graph.output in
  Alcotest.(check bool) "same graph" true (t == resnet18)

let test_plan_make_defaults () =
  let p = Plan.make resnet18 in
  Alcotest.(check bool) "full offload by default" true (Plan.is_server_only p);
  Alcotest.(check (float 1e-9)) "no device work" 0.0 (Plan.dev_flops p);
  Alcotest.(check (float 1e-9)) "depth fraction 1" 1.0 p.Plan.depth_frac;
  Alcotest.(check bool) "transfer = input bytes" true
    (Plan.transfer_bytes p = float_of_int (Shape.bytes resnet18.Graph.input_shape))

let test_plan_device_only () =
  let p = Plan.device_only resnet18 in
  Alcotest.(check bool) "is device only" true (Plan.is_device_only p);
  Alcotest.(check (float 1e-9)) "no server work" 0.0 (Plan.srv_flops p);
  Alcotest.(check (float 1e-9)) "no transfer" 0.0 (Plan.transfer_bytes p);
  Alcotest.(check (float 1e-9)) "no result downlink" 0.0 (Plan.result_bytes p)

let test_plan_flops_partition () =
  let n = Graph.n_nodes resnet18 in
  List.iter
    (fun cut ->
      let p = Plan.make ~cut resnet18 in
      Alcotest.(check (float 1.0)) "dev + srv = total"
        (Graph.total_flops resnet18)
        (Plan.dev_flops p +. Plan.srv_flops p))
    [ 0; 1; n / 3; n / 2; n - 1; n ]

let test_plan_validation () =
  Alcotest.check_raises "bad width" (Invalid_argument "Plan.make: width outside (0,1]")
    (fun () -> ignore (Plan.make ~width:0.0 resnet18));
  Alcotest.check_raises "bad cut" (Invalid_argument "Plan.make: cut out of range") (fun () ->
      ignore (Plan.make ~cut:10_000 resnet18));
  Alcotest.check_raises "non-exit node"
    (Invalid_argument "Plan.make: node 1 is not an exit candidate") (fun () ->
      ignore (Plan.make ~exit_node:1 resnet18))

let test_plan_width_reduces_cost_and_accuracy () =
  let full = Plan.device_only resnet18 in
  let slim = Plan.device_only ~width:0.5 resnet18 in
  Alcotest.(check bool) "slim has fewer flops" true (Plan.dev_flops slim < Plan.dev_flops full);
  Alcotest.(check bool) "slim is less accurate" true (slim.Plan.accuracy < full.Plan.accuracy)

let test_plan_exit_reduces_cost_and_accuracy () =
  let exits = Graph.exit_candidate_ids resnet18 in
  let early = Plan.device_only ~exit_node:(List.hd exits) resnet18 in
  let full = Plan.device_only resnet18 in
  Alcotest.(check bool) "early exit cheaper" true (Plan.dev_flops early < Plan.dev_flops full);
  Alcotest.(check bool) "early exit less accurate" true (early.Plan.accuracy < full.Plan.accuracy);
  Alcotest.(check bool) "depth fraction < 1" true (early.Plan.depth_frac < 1.0)

let test_plan_times_consistent () =
  let perf = Profile.perf ~flops_per_s:1e10 ~mem_bytes_per_s:1e10 ~layer_overhead_s:1e-5 in
  let n = Graph.n_nodes alexnet in
  let p = Plan.make ~cut:(n / 2) alexnet in
  let whole = Profile.total_latency perf p.Plan.graph in
  Alcotest.(check (float 1e-9)) "device + server = whole model" whole
    (Plan.device_time perf p +. Plan.server_time perf p)

let prop_with_cut_preserves_surgery =
  qtest "with_cut only moves the partition"
    QCheck.(int_range 0 70)
    (fun cut ->
      let base = Plan.make ~width:0.75 resnet18 in
      let cut = min cut (Graph.n_nodes base.Plan.graph) in
      let p = Plan.with_cut base cut in
      p.Plan.accuracy = base.Plan.accuracy
      && p.Plan.width = base.Plan.width
      && p.Plan.graph == base.Plan.graph
      && Float.abs (Plan.dev_flops p +. Plan.srv_flops p -. Graph.total_flops base.Plan.graph)
         < 1.0)

(* ---------- Memory footprint ---------- *)

let test_mem_monotone_in_cut () =
  let prev = ref 0.0 in
  let n = Graph.n_nodes resnet18 in
  List.iter
    (fun cut ->
      let m = Plan.device_mem_bytes (Plan.make ~cut resnet18) in
      Alcotest.(check bool) "footprint grows with the prefix" true (m >= !prev);
      prev := m)
    [ 0; n / 4; n / 2; n ]

let test_mem_zero_when_fully_offloaded () =
  Alcotest.(check (float 0.0)) "server-only holds nothing" 0.0
    (Plan.device_mem_bytes (Plan.server_only resnet18))

let test_mem_quantization_shrinks () =
  let fp32 = Plan.device_only resnet18 in
  let int8 = Plan.device_only ~precision:Precision.Int8 resnet18 in
  Alcotest.(check (float 1.0)) "int8 quarters the footprint"
    (Plan.device_mem_bytes fp32 /. 4.0)
    (Plan.device_mem_bytes int8)

let test_mem_vgg_exceeds_iot_board () =
  let vgg = Zoo.vgg16 () in
  let p = Plan.device_only vgg in
  (* 138M params at fp32 = 553 MB > the 512 MB IoT board. *)
  Alcotest.(check bool) "vgg16 fp32 does not fit an IoT board" true
    (Plan.device_mem_bytes p > 0.5e9);
  Alcotest.(check bool) "but dominated by weights, sane magnitude" true
    (Plan.device_mem_bytes p < 1e9)

(* ---------- Candidate ---------- *)

let test_generate_covers_extremes () =
  let plans =
    Candidate.generate ~widths:[ 1.0 ] ~exits:[ None ] ~precisions:[ Precision.Fp32 ] alexnet
  in
  Alcotest.(check int) "one per cut position" (Graph.n_nodes alexnet + 1) (List.length plans);
  Alcotest.(check bool) "has device-only" true (List.exists Plan.is_device_only plans);
  Alcotest.(check bool) "has server-only" true (List.exists Plan.is_server_only plans)

let test_pareto_subset_and_nondominated () =
  let plans = Candidate.generate alexnet in
  let frontier = Candidate.pareto plans in
  Alcotest.(check bool) "frontier is a subset" true
    (List.for_all (fun p -> List.memq p plans) frontier);
  Alcotest.(check bool) "frontier smaller" true (List.length frontier < List.length plans);
  let key = Candidate.plan_key in
  List.iter
    (fun p ->
      Alcotest.(check bool) "non-dominated" false
        (List.exists (fun q -> Es_util.Pareto.dominates (key q) (key p)) frontier))
    frontier

(* FNV digest of each zoo model's default frontier: every survivor's
   (exit, width, precision, cut) and the bits of its four keys, in order.
   Recorded before the graph cost tables and the typed skyline replaced the
   per-query folds; any change to a plan, a key bit or the survivor order
   moves a digest. *)
let frontier_digests =
  [
    ("alexnet", "1002d138bfdf2765");
    ("vgg16", "4f5119bcd5d43444");
    ("resnet18", "8449fc43ef90c5f7");
    ("resnet34", "854bd2239e520591");
    ("resnet50", "8a5d778932c6b2ea");
    ("mobilenet_v1", "269b523c46465d7b");
    ("mobilenet_v2", "fd63dc6a7dd8bc0c");
    ("inception_lite", "1ab15e04bf602c08");
    ("yolo_tiny", "36c16e63450a54dc");
    ("squeezenet", "dba5ab0db2d37028");
    ("densenet_lite", "5300515ae2c262ea");
  ]

let frontier_digest g =
  let h = Es_util.Fnv.create () in
  List.iter
    (fun (p : Plan.t) ->
      Es_util.Fnv.add_int h (Option.value p.Plan.exit_node ~default:(-1));
      Es_util.Fnv.add_float h p.Plan.width;
      Es_util.Fnv.add_string h (Precision.name p.Plan.precision);
      Es_util.Fnv.add_int h p.Plan.cut;
      Array.iter (Es_util.Fnv.add_float h) (Candidate.plan_key p))
    (Candidate.pareto_candidates g);
  Es_util.Fnv.to_hex h

let test_frontier_digests_pinned () =
  Alcotest.(check (list string)) "every zoo model" Zoo.names (List.map fst frontier_digests);
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string) name digest (frontier_digest (Zoo.by_name name)))
    frontier_digests

let test_pareto_keeps_best_accuracy () =
  let frontier = Candidate.pareto_candidates resnet18 in
  let best = List.fold_left (fun acc (p : Plan.t) -> Float.max acc p.Plan.accuracy) 0.0 frontier in
  let full = (Accuracy.profile_of_model "resnet18").Accuracy.full_accuracy in
  Alcotest.(check (float 1e-9)) "full accuracy survives pruning" full best

let test_candidate_cache () =
  Candidate.clear_cache ();
  let a = Candidate.pareto_candidates resnet18 in
  let b = Candidate.pareto_candidates resnet18 in
  Alcotest.(check bool) "memoized (physical equality)" true (a == b);
  Candidate.clear_cache ();
  let c = Candidate.pareto_candidates resnet18 in
  Alcotest.(check bool) "cache cleared" false (a == c);
  Alcotest.(check int) "same contents" (List.length a) (List.length c)

let test_cache_distinguishes_same_name () =
  (* Two structurally different models sharing a name must not share cached
     candidate sets. *)
  let mk out_c =
    Graph.sequential ~name:"twin" ~input:(Shape.map ~c:3 ~h:16 ~w:16)
      [
        (None, false, Layer.Conv { out_c; kernel = 3; stride = 1; pad = 1; groups = 1 });
        (None, true, Layer.Relu);
        (None, false, Layer.Flatten);
        (None, false, Layer.Fc { out_features = 10 });
      ]
  in
  let small = Candidate.pareto_candidates (mk 4) in
  let large = Candidate.pareto_candidates (mk 64) in
  let max_dev plans =
    List.fold_left (fun acc p -> Float.max acc (Plan.dev_flops p)) 0.0 plans
  in
  Alcotest.(check bool) "different architectures, different candidates" true
    (max_dev large > 2.0 *. max_dev small)

(* Widths that agree to three decimals are still different widths: the
   second call must build its own plans, not return the first call's. *)
let test_cache_distinguishes_nearby_widths () =
  Candidate.clear_cache ();
  let widths_of ws =
    List.sort_uniq Float.compare
      (List.map (fun (p : Plan.t) -> p.Plan.width) (Candidate.pareto_candidates ~widths:ws alexnet))
  in
  ignore (widths_of [ 0.5001 ]);
  Alcotest.(check (list (float 0.0))) "second width's own plans" [ 0.5004 ] (widths_of [ 0.5004 ])

let test_exit_nodes_listing () =
  let exits = Candidate.exit_nodes resnet18 in
  Alcotest.(check int) "all flagged exits plus full depth"
    (List.length (Graph.exit_candidate_ids resnet18) + 1)
    (List.length exits);
  Alcotest.(check bool) "full depth present" true (List.mem None exits)

(* ---------- Precision ---------- *)

let test_precision_basics () =
  Alcotest.(check int) "fp32 bytes" 4 (Precision.bytes_per_elt Precision.Fp32);
  Alcotest.(check int) "fp16 bytes" 2 (Precision.bytes_per_elt Precision.Fp16);
  Alcotest.(check int) "int8 bytes" 1 (Precision.bytes_per_elt Precision.Int8);
  Alcotest.(check bool) "scales ordered" true
    (Precision.compute_scale Precision.Fp32 < Precision.compute_scale Precision.Fp16
    && Precision.compute_scale Precision.Fp16 < Precision.compute_scale Precision.Int8);
  List.iter
    (fun p ->
      Alcotest.(check bool) "of_string roundtrip" true
        (Precision.of_string (Precision.name p) = Some p))
    Precision.all;
  Alcotest.(check bool) "unknown name" true (Precision.of_string "bf16" = None)

let test_precision_apply () =
  let perf = Profile.perf ~flops_per_s:1e9 ~mem_bytes_per_s:1e9 ~layer_overhead_s:1e-5 in
  let q = Precision.apply Precision.Int8 perf in
  Alcotest.(check (float 1.0)) "flops scaled" 2.5e9 q.Profile.flops_per_s;
  Alcotest.(check (float 1.0)) "memory scaled" 2.5e9 q.Profile.mem_bytes_per_s;
  Alcotest.(check (float 1e-12)) "overhead unchanged" 1e-5 q.Profile.layer_overhead_s

(* Plan costs come from one table keyed by graph uid, then by (base perf,
   precision scale).  Every zoo model, on every processor, at every
   precision and cut, must cost exactly what the precision-applied perf
   record costs. *)
let cost_processors =
  Array.append Es_oracle.Processor.device_classes
    Es_edge.Processor.[| edge_cpu; edge_gpu_small; edge_gpu |]

let test_plan_costs_match_oracle () =
  let bits = Int64.bits_of_float in
  let checked = ref 0 in
  List.iter
    (fun base ->
      List.iter
        (fun precision ->
          let plan = Plan.make ~precision base in
          Array.iter
            (fun (proc : Es_edge.Processor.t) ->
              let perf = proc.Es_edge.Processor.perf in
              for cut = 0 to Graph.n_nodes plan.Plan.graph do
                let p = Plan.with_cut plan cut in
                if
                  bits (Plan.device_time perf p) <> bits (Es_oracle.Plan.device_time perf p)
                  || bits (Plan.server_time perf p) <> bits (Es_oracle.Plan.server_time perf p)
                then
                  Alcotest.failf "%s on %s: cost differs from the oracle" (Plan.describe p)
                    proc.Es_edge.Processor.name;
                incr checked
              done)
            cost_processors)
        Precision.all)
    (Zoo.all ());
  Alcotest.(check bool) (Printf.sprintf "%d plans checked" !checked) true (!checked > 1000)

(* A warm plan-cost lookup allocates nothing but the float it returns:
   under dune's default -opaque build no float return across a module
   boundary is unboxed, so each call boxes its result (2 words). *)
let test_plan_costs_alloc () =
  let perf = Es_edge.Processor.raspberry_pi.Es_edge.Processor.perf in
  let p = Plan.make ~precision:Precision.Fp16 ~cut:(Graph.n_nodes resnet18 / 2) resnet18 in
  let out = Array.make 2 0.0 in
  let words =
    Es_util.Alloc_probe.minor_words (fun () ->
        out.(0) <- Plan.device_time perf p;
        out.(1) <- Plan.server_time perf p)
  in
  Alcotest.(check (float 0.0)) "two boxed results, nothing else" 4.0 words

let test_precision_plan_effects () =
  let fp32 = Plan.make ~cut:(Graph.n_nodes resnet18 / 2) resnet18 in
  let int8 = Plan.make ~precision:Precision.Int8 ~cut:(Graph.n_nodes resnet18 / 2) resnet18 in
  Alcotest.(check (float 1.0)) "int8 ships a quarter of the bytes"
    (Plan.transfer_bytes fp32 /. 4.0)
    (Plan.transfer_bytes int8);
  Alcotest.(check (float 1.0)) "result bytes quartered too"
    (Plan.result_bytes fp32 /. 4.0)
    (Plan.result_bytes int8);
  let perf = Profile.perf ~flops_per_s:1e10 ~mem_bytes_per_s:1e10 ~layer_overhead_s:0.0 in
  Alcotest.(check bool) "int8 computes faster" true
    (Plan.device_time perf int8 < Plan.device_time perf fp32);
  Alcotest.(check bool) "int8 is less accurate" true (int8.Plan.accuracy < fp32.Plan.accuracy);
  Alcotest.(check bool) "fp16 nearly free" true
    ((Plan.make ~precision:Precision.Fp16 resnet18).Plan.accuracy > 0.995 *. fp32.Plan.accuracy);
  Alcotest.(check (float 1e-9)) "same flops either way" (Plan.dev_flops fp32)
    (Plan.dev_flops int8)

let test_precision_in_candidates () =
  let plans = Candidate.pareto_candidates resnet18 in
  Alcotest.(check bool) "some int8 plans survive the frontier" true
    (List.exists (fun (p : Plan.t) -> p.Plan.precision = Precision.Int8) plans);
  Alcotest.(check bool) "fp32 plans survive too" true
    (List.exists (fun (p : Plan.t) -> p.Plan.precision = Precision.Fp32) plans)

(* ---------- Dag_cut ---------- *)

module Dag_cut = Es_oracle.Dag_cut

let toy_costs g =
  (* Unit-ish costs: device 3x slower than server; transfer = activation KB. *)
  let dev v = 3.0 *. Graph.node_flops g v /. 1e9 in
  let srv v = Graph.node_flops g v /. 1e9 in
  let xfer v = float_of_int (Shape.bytes (Graph.node_shape g v)) /. 1e6 in
  (dev, srv, xfer)

(* Experiment T4's claim, which justifies [Plan]'s restriction to prefix
   cuts: on every zoo model, under the latency costs of any device class,
   edge server and uplink rate, the DAG-aware min-cut split is valid and
   costs exactly what the best prefix cut costs (relative 1e-9).  330
   triples at another seed (6 s) showed a largest min-cut gain of exactly
   0; 5 keep the test under a second. *)
let prefix_cut_optimal_on_zoo =
  let servers = Es_edge.Processor.[| edge_cpu; edge_gpu_small; edge_gpu |] in
  let triple =
    QCheck.(
      triple
        (int_bound (Array.length Es_oracle.Processor.device_classes - 1))
        (int_bound (Array.length servers - 1))
        (float_range 0.0 3.0))
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4 |])
    (QCheck.Test.make ~count:5 ~name:"prefix cut optimal on zoo" triple (fun (d, s, log_mbps) ->
         let device = Es_oracle.Processor.device_classes.(d).Es_edge.Processor.perf in
         let server = servers.(s).Es_edge.Processor.perf in
         let bandwidth_bps = 1e6 *. (10.0 ** log_mbps) in
         List.for_all
           (fun name ->
             let g = Zoo.by_name name in
             let dev_cost, srv_cost, transfer_cost =
               Dag_cut.latency_costs ~device ~server ~bandwidth_bps g
             in
             let split = Dag_cut.optimal_split ~dev_cost ~srv_cost ~transfer_cost g in
             let _, prefix = Dag_cut.best_prefix_cost ~dev_cost ~srv_cost ~transfer_cost g in
             match Dag_cut.validate g split.Dag_cut.device_side with
             | Error e -> QCheck.Test.fail_reportf "%s: invalid split: %s" name e
             | Ok () ->
                 Float.abs (split.Dag_cut.total_cost -. prefix) <= 1e-9 *. prefix
                 || QCheck.Test.fail_reportf "%s at %.1f Mbps: min-cut %.9g vs prefix %.9g" name
                      (bandwidth_bps /. 1e6) split.Dag_cut.total_cost prefix)
           Zoo.names))

let test_dag_cut_extremes () =
  let g = Zoo.alexnet () in
  (* Server infinitely fast and transfer free: everything (but the pinned
     input) goes to the server. *)
  let split =
    Dag_cut.optimal_split
      ~dev_cost:(fun v -> Graph.node_flops g v /. 1e9)
      ~srv_cost:(fun _ -> 0.0)
      ~transfer_cost:(fun _ -> 0.0)
      g
  in
  let on_device = Array.fold_left (fun a b -> if b then a + 1 else a) 0 split.Dag_cut.device_side in
  Alcotest.(check int) "only the input stays" 1 on_device;
  (* Transfer prohibitively expensive: everything stays on the device. *)
  let split =
    Dag_cut.optimal_split
      ~dev_cost:(fun v -> Graph.node_flops g v /. 1e9)
      ~srv_cost:(fun _ -> 0.0)
      ~transfer_cost:(fun _ -> 1e12)
      g
  in
  Alcotest.(check bool) "all on device" true
    (Array.for_all (fun b -> b) split.Dag_cut.device_side)

let test_dag_cut_costs_consistent () =
  let g = Zoo.inception_lite () in
  let dev, srv, xfer = toy_costs g in
  let split = Dag_cut.optimal_split ~dev_cost:dev ~srv_cost:srv ~transfer_cost:xfer g in
  Alcotest.(check (float 1e-9)) "components sum to total"
    (split.Dag_cut.dev_cost +. split.Dag_cut.srv_cost +. split.Dag_cut.transfer_cost)
    split.Dag_cut.total_cost

let test_dag_cut_beats_prefix_on_branchy () =
  (* A DAG engineered so the prefix restriction hurts.  Topological order:
     input -> stem (small map) -> heavy branch B on the small map -> light
     branch A on the big raw input -> merge.  The optimal split keeps A (big
     activations, light compute) and the stem on the device while offloading
     B (heavy compute, tiny transfer).  No prefix can do that: keeping A
     local forces B local too (A comes after B), and offloading B via a
     prefix ships the huge raw input. *)
  let b, x = Graph.Builder.create ~name:"forked" ~input:(Shape.map ~c:8 ~h:64 ~w:64) in
  let stem =
    Graph.Builder.add b (Layer.Conv { out_c = 8; kernel = 8; stride = 8; pad = 0; groups = 1 }) [ x ]
  in
  let b1 =
    Graph.Builder.add b
      (Layer.Conv { out_c = 1024; kernel = 3; stride = 1; pad = 1; groups = 1 })
      [ stem ]
  in
  let b2 =
    Graph.Builder.add b (Layer.Conv { out_c = 8; kernel = 3; stride = 1; pad = 1; groups = 1 })
      [ b1 ]
  in
  let a1 =
    Graph.Builder.add b (Layer.Conv { out_c = 8; kernel = 3; stride = 1; pad = 1; groups = 1 })
      [ x ]
  in
  let a2 = Graph.Builder.add b Layer.Relu [ a1 ] in
  let a3 =
    Graph.Builder.add b (Layer.Pool { kind = Layer.Max; kernel = 8; stride = 8; pad = 0 }) [ a2 ]
  in
  let cat = Graph.Builder.add b Layer.Concat [ a3; b2 ] in
  let g = Graph.Builder.finish ~output:cat b in
  let dev v = 10.0 *. Graph.node_flops g v /. 1e9 in
  let srv v = 0.1 *. Graph.node_flops g v /. 1e9 in
  let xfer v = float_of_int (Shape.bytes (Graph.node_shape g v)) /. 1e6 in
  let split = Dag_cut.optimal_split ~dev_cost:dev ~srv_cost:srv ~transfer_cost:xfer g in
  let _, prefix = Dag_cut.best_prefix_cost ~dev_cost:dev ~srv_cost:srv ~transfer_cost:xfer g in
  Alcotest.(check bool)
    (Printf.sprintf "min-cut %.4f strictly beats prefix %.4f" split.Dag_cut.total_cost prefix)
    true
    (split.Dag_cut.total_cost < prefix -. 1e-9)

let test_dag_cut_validate_rejects () =
  let g = Zoo.alexnet () in
  let n = Graph.n_nodes g in
  let no_input = Array.make n true in
  no_input.(0) <- false;
  (match Dag_cut.validate g no_input with
  | Ok () -> Alcotest.fail "input off-device accepted"
  | Error _ -> ());
  (* Server node feeding a device node. *)
  let bad = Array.make n false in
  bad.(0) <- true;
  bad.(2) <- true;
  match Dag_cut.validate g bad with
  | Ok () -> Alcotest.fail "backward edge accepted"
  | Error _ -> ()

(* ---------- Multi_exit ---------- *)

let test_multi_exit_build () =
  let me = Multi_exit.build resnet18 in
  Alcotest.(check int) "exits = candidates + final"
    (List.length (Graph.exit_candidate_ids resnet18) + 1)
    (Array.length me.Multi_exit.exits);
  let total = Array.fold_left ( +. ) 0.0 me.Multi_exit.probs in
  Alcotest.(check (float 1e-9)) "probabilities sum to 1" 1.0 total;
  Alcotest.(check bool) "expected flops below full model" true
    (Multi_exit.expected_flops me < Graph.total_flops resnet18);
  Alcotest.(check bool) "deployment accuracy between first and last exit" true
    (me.Multi_exit.deployment_accuracy
     <= me.Multi_exit.exits.(Array.length me.Multi_exit.exits - 1).Plan.accuracy
    && me.Multi_exit.deployment_accuracy >= me.Multi_exit.exits.(0).Plan.accuracy)

let test_multi_exit_sample () =
  let me = Multi_exit.build resnet18 in
  let rng = Es_util.Prng.create 5 in
  for _ = 1 to 200 do
    let k = Multi_exit.sample_exit rng me in
    Alcotest.(check bool) "sampled exit in range" true
      (k >= 0 && k < Array.length me.Multi_exit.exits)
  done

let () =
  Alcotest.run "es_surgery"
    [
      ( "accuracy",
        [
          Alcotest.test_case "full model" `Quick test_accuracy_full_model;
          Alcotest.test_case "monotone depth" `Quick test_accuracy_monotone_depth;
          Alcotest.test_case "monotone width" `Quick test_accuracy_monotone_width;
          Alcotest.test_case "input validation" `Quick test_accuracy_errors;
          Alcotest.test_case "unknown model" `Quick test_accuracy_unknown_model_generic;
          Alcotest.test_case "exit distribution" `Quick test_exit_distribution_sums_to_one;
          Alcotest.test_case "kappa effect" `Quick test_exit_distribution_kappa;
          Alcotest.test_case "expected accuracy" `Quick test_expected_accuracy;
          prop_exit_distribution_valid;
        ] );
      ( "plan",
        [
          Alcotest.test_case "truncate shapes" `Quick test_truncate_shapes;
          Alcotest.test_case "truncate detector" `Quick test_truncate_detector;
          Alcotest.test_case "truncate at output" `Quick test_truncate_at_output_is_identity;
          Alcotest.test_case "defaults" `Quick test_plan_make_defaults;
          Alcotest.test_case "device only" `Quick test_plan_device_only;
          Alcotest.test_case "flops partition" `Quick test_plan_flops_partition;
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "width trade-off" `Quick test_plan_width_reduces_cost_and_accuracy;
          Alcotest.test_case "exit trade-off" `Quick test_plan_exit_reduces_cost_and_accuracy;
          Alcotest.test_case "times consistent" `Quick test_plan_times_consistent;
          prop_with_cut_preserves_surgery;
        ] );
      ( "memory",
        [
          Alcotest.test_case "monotone in cut" `Quick test_mem_monotone_in_cut;
          Alcotest.test_case "zero offloaded" `Quick test_mem_zero_when_fully_offloaded;
          Alcotest.test_case "quantization shrinks" `Quick test_mem_quantization_shrinks;
          Alcotest.test_case "vgg vs iot board" `Quick test_mem_vgg_exceeds_iot_board;
        ] );
      ( "candidate",
        [
          Alcotest.test_case "covers extremes" `Quick test_generate_covers_extremes;
          Alcotest.test_case "pareto sound" `Quick test_pareto_subset_and_nondominated;
          Alcotest.test_case "keeps best accuracy" `Quick test_pareto_keeps_best_accuracy;
          Alcotest.test_case "frontier digests pinned" `Quick test_frontier_digests_pinned;
          Alcotest.test_case "cache" `Quick test_candidate_cache;
          Alcotest.test_case "cache name collision" `Quick test_cache_distinguishes_same_name;
          Alcotest.test_case "cache nearby widths" `Quick test_cache_distinguishes_nearby_widths;
          Alcotest.test_case "exit nodes" `Quick test_exit_nodes_listing;
        ] );
      ( "precision",
        [
          Alcotest.test_case "basics" `Quick test_precision_basics;
          Alcotest.test_case "apply" `Quick test_precision_apply;
          Alcotest.test_case "plan effects" `Quick test_precision_plan_effects;
          Alcotest.test_case "plan costs match oracle" `Quick test_plan_costs_match_oracle;
          Alcotest.test_case "plan costs allocation" `Quick test_plan_costs_alloc;
          Alcotest.test_case "in candidates" `Quick test_precision_in_candidates;
        ] );
      ( "dag_cut",
        [
          prefix_cut_optimal_on_zoo;
          Alcotest.test_case "extremes" `Quick test_dag_cut_extremes;
          Alcotest.test_case "costs consistent" `Quick test_dag_cut_costs_consistent;
          Alcotest.test_case "beats prefix on branchy" `Quick test_dag_cut_beats_prefix_on_branchy;
          Alcotest.test_case "validate rejects" `Quick test_dag_cut_validate_rejects;
        ] );
      ( "multi_exit",
        [
          Alcotest.test_case "build" `Quick test_multi_exit_build;
          Alcotest.test_case "sample" `Quick test_multi_exit_sample;
        ] );
    ]
