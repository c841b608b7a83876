open Es_dnn

let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* ---------- Shape ---------- *)

let test_shape_basics () =
  let m = Shape.map ~c:3 ~h:224 ~w:224 in
  Alcotest.(check int) "elements" (3 * 224 * 224) (Shape.elements m);
  Alcotest.(check int) "bytes fp32" (3 * 224 * 224 * 4) (Shape.bytes m);
  Alcotest.(check int) "bytes int8" (3 * 224 * 224) (Shape.bytes ~bytes_per_elt:1 m);
  Alcotest.(check int) "channels" 3 (Shape.channels m);
  Alcotest.(check (pair int int)) "spatial" (224, 224) (Shape.spatial m);
  let v = Shape.vec 1000 in
  Alcotest.(check int) "vec elements" 1000 (Shape.elements v);
  Alcotest.(check (pair int int)) "vec spatial" (1, 1) (Shape.spatial v)

let test_shape_conv_out () =
  (* AlexNet's first conv: 224 -> 55 with k=11 s=4 p=2. *)
  let s = Shape.conv_out (Shape.map ~c:3 ~h:224 ~w:224) ~kernel:11 ~stride:4 ~pad:2 ~out_c:96 in
  Alcotest.(check bool) "alexnet conv1" true (Shape.equal s (Shape.map ~c:96 ~h:55 ~w:55));
  let s = Shape.conv_out (Shape.map ~c:64 ~h:56 ~w:56) ~kernel:3 ~stride:1 ~pad:1 ~out_c:64 in
  Alcotest.(check bool) "same padding preserves" true (Shape.equal s (Shape.map ~c:64 ~h:56 ~w:56))

let test_shape_errors () =
  Alcotest.check_raises "vec conv" (Invalid_argument "Shape.conv_out: convolution over a vector")
    (fun () -> ignore (Shape.conv_out (Shape.vec 10) ~kernel:3 ~stride:1 ~pad:0 ~out_c:1));
  Alcotest.check_raises "window too large"
    (Invalid_argument "Shape.conv_out: window does not fit") (fun () ->
      ignore (Shape.conv_out (Shape.map ~c:1 ~h:2 ~w:2) ~kernel:5 ~stride:1 ~pad:0 ~out_c:1));
  Alcotest.check_raises "bad dims" (Invalid_argument "Shape.map: non-positive dimension")
    (fun () -> ignore (Shape.map ~c:0 ~h:1 ~w:1))

let test_shape_scale_channels () =
  let m = Shape.scale_channels 0.5 (Shape.map ~c:64 ~h:8 ~w:8) in
  Alcotest.(check int) "half channels" 32 (Shape.channels m);
  let tiny = Shape.scale_channels 0.01 (Shape.map ~c:4 ~h:8 ~w:8) in
  Alcotest.(check int) "floored at 1" 1 (Shape.channels tiny)

(* ---------- Layer ---------- *)

let fm ~c ~h ~w = Shape.map ~c ~h ~w

let test_layer_conv_flops () =
  let layer = Layer.Conv { out_c = 64; kernel = 3; stride = 1; pad = 1; groups = 1 } in
  let flops = Layer.flops layer [ fm ~c:32 ~h:10 ~w:10 ] in
  Alcotest.(check (float 1.0)) "conv flops" (2.0 *. 9.0 *. 32.0 *. 64.0 *. 100.0) flops

let test_layer_depthwise_flops () =
  let dw = Layer.Conv { out_c = 32; kernel = 3; stride = 1; pad = 1; groups = 32 } in
  let flops = Layer.flops dw [ fm ~c:32 ~h:10 ~w:10 ] in
  Alcotest.(check (float 1.0)) "depthwise = dense/cin" (2.0 *. 9.0 *. 1.0 *. 32.0 *. 100.0) flops

let test_layer_fc () =
  let fc = Layer.Fc { out_features = 10 } in
  Alcotest.(check (float 0.001)) "fc flops" (2.0 *. 100.0 *. 10.0)
    (Layer.flops fc [ Shape.vec 100 ]);
  Alcotest.(check (float 0.001)) "fc params" (100.0 *. 10.0 +. 10.0)
    (Layer.params fc [ Shape.vec 100 ]);
  Alcotest.check_raises "fc over map"
    (Invalid_argument "Layer.output_shape: Fc over a feature map (flatten first)") (fun () ->
      ignore (Layer.output_shape fc [ fm ~c:1 ~h:2 ~w:2 ]))

let test_layer_add_concat () =
  let a = fm ~c:16 ~h:8 ~w:8 in
  Alcotest.(check bool) "add keeps shape" true
    (Shape.equal a (Layer.output_shape Layer.Add [ a; a ]));
  Alcotest.check_raises "add mismatched"
    (Invalid_argument "Layer.output_shape: Add over mismatched shapes") (fun () ->
      ignore (Layer.output_shape Layer.Add [ a; fm ~c:8 ~h:8 ~w:8 ]));
  let c = Layer.output_shape Layer.Concat [ a; fm ~c:8 ~h:8 ~w:8 ] in
  Alcotest.(check int) "concat channels" 24 (Shape.channels c);
  Alcotest.check_raises "concat mismatched spatial"
    (Invalid_argument "Layer.output_shape: Concat over mismatched maps") (fun () ->
      ignore (Layer.output_shape Layer.Concat [ a; fm ~c:8 ~h:4 ~w:4 ]))

let test_layer_pool_and_misc () =
  let p = Layer.Pool { kind = Layer.Max; kernel = 2; stride = 2; pad = 0 } in
  let out = Layer.output_shape p [ fm ~c:8 ~h:8 ~w:8 ] in
  Alcotest.(check bool) "pool halves" true (Shape.equal out (fm ~c:8 ~h:4 ~w:4));
  let g = Layer.output_shape (Layer.Global_pool Layer.Avg) [ fm ~c:8 ~h:7 ~w:7 ] in
  Alcotest.(check bool) "global pool 1x1" true (Shape.equal g (fm ~c:8 ~h:1 ~w:1));
  let f = Layer.output_shape Layer.Flatten [ fm ~c:8 ~h:2 ~w:2 ] in
  Alcotest.(check bool) "flatten" true (Shape.equal f (Shape.vec 32));
  Alcotest.(check (float 0.001)) "pool has no params" 0.0 (Layer.params p [ fm ~c:8 ~h:8 ~w:8 ]);
  Alcotest.(check (float 0.001)) "bn params 2c" 16.0
    (Layer.params Layer.Batch_norm [ fm ~c:8 ~h:4 ~w:4 ])

(* ---------- Graph ---------- *)

let small_chain () =
  Graph.sequential ~name:"tiny" ~input:(fm ~c:3 ~h:8 ~w:8)
    [
      (None, false, Layer.Conv { out_c = 4; kernel = 3; stride = 1; pad = 1; groups = 1 });
      (None, true, Layer.Relu);
      (None, false, Layer.Flatten);
      (Some "logits", false, Layer.Fc { out_features = 10 });
      (None, false, Layer.Softmax);
    ]

let branchy () =
  let b, x = Graph.Builder.create ~name:"branchy" ~input:(fm ~c:3 ~h:8 ~w:8) in
  let c1 =
    Graph.Builder.add b (Layer.Conv { out_c = 4; kernel = 1; stride = 1; pad = 0; groups = 1 }) [ x ]
  in
  let c2 =
    Graph.Builder.add b (Layer.Conv { out_c = 4; kernel = 3; stride = 1; pad = 1; groups = 1 }) [ x ]
  in
  let cat = Graph.Builder.add b Layer.Concat [ c1; c2 ] in
  Graph.Builder.finish ~output:cat b

let test_graph_build_validate () =
  let g = small_chain () in
  Alcotest.(check int) "nodes" 6 (Graph.n_nodes g);
  (match Graph.validate g with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "output is softmax shape" true
    (Shape.equal (Graph.output_shape g) (Shape.vec 10));
  Alcotest.(check (list int)) "exit candidates" [ 2 ] (Graph.exit_candidate_ids g)

let test_graph_builder_errors () =
  let b, _ = Graph.Builder.create ~name:"x" ~input:(fm ~c:1 ~h:4 ~w:4) in
  Alcotest.check_raises "unknown pred"
    (Invalid_argument "Graph.Builder.add: unknown predecessor 5") (fun () ->
      ignore (Graph.Builder.add b Layer.Relu [ 5 ]));
  Alcotest.check_raises "no preds"
    (Invalid_argument "Graph.Builder.add: a non-input node needs predecessors") (fun () ->
      ignore (Graph.Builder.add b Layer.Relu []))

let test_graph_flops_decompose () =
  let g = small_chain () in
  let total = Graph.total_flops g in
  let by_parts = Graph.prefix_flops g 3 +. Graph.suffix_flops g 3 in
  Alcotest.(check (float 1e-6)) "prefix + suffix = total" total by_parts;
  Alcotest.(check (float 1e-6)) "prefix at 0 empty" 0.0 (Graph.prefix_flops g 0);
  Alcotest.(check (float 1e-6)) "suffix at n empty" 0.0 (Graph.suffix_flops g (Graph.n_nodes g))

let test_graph_cut_transfer () =
  let g = small_chain () in
  Alcotest.(check (float 0.001)) "cut 0 = input bytes"
    (float_of_int (3 * 8 * 8 * 4))
    (Graph.cut_transfer_bytes g 0);
  Alcotest.(check (float 0.001)) "cut n = 0" 0.0 (Graph.cut_transfer_bytes g (Graph.n_nodes g));
  Alcotest.(check (float 0.001)) "single consumer"
    (float_of_int (4 * 8 * 8 * 4))
    (Graph.cut_transfer_bytes g 3)

let test_graph_cut_shared_activation () =
  (* Cutting right after the input: both branches consume node 0's output;
     it must be shipped once, not twice. *)
  let g = branchy () in
  Alcotest.(check (float 0.001)) "shared activation counted once"
    (float_of_int (3 * 8 * 8 * 4))
    (Graph.cut_transfer_bytes g 1)

let test_graph_successors () =
  let g = branchy () in
  Alcotest.(check (list int)) "input feeds both convs" [ 1; 2 ] (Graph.successors g 0);
  Alcotest.(check (list int)) "concat is terminal" [] (Graph.successors g 3)

let test_scale_width () =
  let g = small_chain () in
  let half = Graph.scale_width 0.5 g in
  (match Graph.validate half with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "fewer flops" true (Graph.total_flops half < Graph.total_flops g);
  Alcotest.(check bool) "classifier head unchanged" true
    (Shape.equal (Graph.output_shape half) (Shape.vec 10));
  Alcotest.(check bool) "width 1 is identity" true (Graph.scale_width 1.0 g == g);
  Alcotest.check_raises "bad factor" (Invalid_argument "Graph.scale_width: factor outside (0,1]")
    (fun () -> ignore (Graph.scale_width 1.5 g))

let test_scale_width_zoo () =
  (* Residual/branchy models must stay shape-consistent after slimming. *)
  List.iter
    (fun name ->
      let g = Zoo.by_name name in
      List.iter
        (fun w ->
          let s = Graph.scale_width w g in
          match Graph.validate s with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Printf.sprintf "%s @%.2f: %s" name w e))
        [ 0.75; 0.5; 0.25 ])
    [ "resnet50"; "mobilenet_v2"; "inception_lite" ]

(* ---------- Zoo ---------- *)

let test_zoo_all_valid () =
  List.iter
    (fun g ->
      match Graph.validate g with
      | Ok () -> ()
      | Error e -> Alcotest.fail (g.Graph.name ^ ": " ^ e))
    (Zoo.all ())

let close_pct ~pct expected actual =
  Float.abs (actual -. expected) /. expected < pct /. 100.0

(* Published GFLOPs (2 FLOPs per MAC) and Mparams; the zoo must land close
   since all surgery trade-offs are driven by these numbers. *)
let test_zoo_published_costs () =
  let check name gflops mparams tol_pct =
    let g = Zoo.by_name name in
    let got_f = Graph.total_flops g /. 1e9 in
    let got_p = Graph.total_params g /. 1e6 in
    if not (close_pct ~pct:tol_pct gflops got_f) then
      Alcotest.fail (Printf.sprintf "%s flops: expected ~%.2f got %.2f" name gflops got_f);
    if not (close_pct ~pct:tol_pct mparams got_p) then
      Alcotest.fail (Printf.sprintf "%s params: expected ~%.2f got %.2f" name mparams got_p)
  in
  check "vgg16" 31.0 138.4 5.0;
  check "resnet18" 3.6 11.7 5.0;
  check "resnet50" 8.2 25.6 5.0;
  check "mobilenet_v1" 1.14 4.2 8.0;
  check "mobilenet_v2" 0.6 3.5 8.0

let test_zoo_exits_exist () =
  List.iter
    (fun g ->
      let exits = Graph.exit_candidate_ids g in
      Alcotest.(check bool) (g.Graph.name ^ " has >=3 exits") true (List.length exits >= 3);
      List.iter
        (fun id -> Alcotest.(check bool) "exit id in range" true (id > 0 && id < Graph.n_nodes g))
        exits)
    (Zoo.all ())

let test_zoo_by_name () =
  List.iter
    (fun n ->
      let g = Zoo.by_name n in
      Alcotest.(check string) "name round-trips" n g.Graph.name)
    Zoo.names;
  Alcotest.check_raises "unknown model" Not_found (fun () -> ignore (Zoo.by_name "lenet"))

let test_zoo_classifier_output () =
  List.iter
    (fun n ->
      let g = Zoo.by_name n in
      Alcotest.(check bool) (n ^ " outputs 1000 classes") true
        (Shape.equal (Graph.output_shape g) (Shape.vec 1000)))
    [
      "alexnet"; "vgg16"; "resnet18"; "resnet34"; "resnet50"; "mobilenet_v1"; "mobilenet_v2";
      "inception_lite"; "squeezenet"; "densenet_lite";
    ]

let test_zoo_detector_output () =
  let g = Zoo.by_name "yolo_tiny" in
  Alcotest.(check bool) "13x13x125 grid" true
    (Shape.equal (Graph.output_shape g) (Shape.map ~c:125 ~h:13 ~w:13))

(* ---------- Profile ---------- *)

let perf_fast = Profile.perf ~flops_per_s:1e12 ~mem_bytes_per_s:1e11 ~layer_overhead_s:0.0
let perf_slow = Profile.perf ~flops_per_s:1e9 ~mem_bytes_per_s:1e9 ~layer_overhead_s:0.0

let test_profile_monotone_in_speed () =
  let g = Zoo.by_name "alexnet" in
  Alcotest.(check bool) "slower processor, higher latency" true
    (Profile.total_latency perf_slow g > Profile.total_latency perf_fast g)

let test_profile_range_additive () =
  let g = Zoo.by_name "resnet18" in
  let n = Graph.n_nodes g in
  let whole = Profile.total_latency perf_fast g in
  let split =
    Profile.range_latency perf_fast g ~lo:0 ~hi:(n / 2)
    +. Profile.range_latency perf_fast g ~lo:(n / 2) ~hi:n
  in
  Alcotest.(check (float 1e-9)) "ranges compose" whole split

let test_profile_overhead () =
  let g = Zoo.by_name "alexnet" in
  let with_oh = Profile.perf ~flops_per_s:1e12 ~mem_bytes_per_s:1e11 ~layer_overhead_s:0.001 in
  let diff = Profile.total_latency with_oh g -. Profile.total_latency perf_fast g in
  (* The input placeholder carries no overhead. *)
  Alcotest.(check (float 1e-9)) "overhead = (n_layers - 1) * oh"
    (0.001 *. float_of_int (Graph.n_nodes g - 1))
    diff

let test_profile_compute_bound () =
  let g =
    Graph.sequential ~name:"convy" ~input:(fm ~c:64 ~h:56 ~w:56)
      [ (None, false, Layer.Conv { out_c = 64; kernel = 3; stride = 1; pad = 1; groups = 1 }) ]
  in
  let p = Profile.perf ~flops_per_s:1e9 ~mem_bytes_per_s:1e15 ~layer_overhead_s:0.0 in
  let expected = Graph.node_flops g 1 /. 1e9 in
  Alcotest.(check (float 1e-9)) "flop bound" expected (Profile.layer_latency p g 1)

let test_profile_memory_bound () =
  let g =
    Graph.sequential ~name:"reluy" ~input:(fm ~c:64 ~h:56 ~w:56) [ (None, false, Layer.Relu) ]
  in
  let p = Profile.perf ~flops_per_s:1e15 ~mem_bytes_per_s:1e9 ~layer_overhead_s:0.0 in
  let expected = Profile.layer_bytes_touched g 1 /. 1e9 in
  Alcotest.(check (float 1e-9)) "memory bound" expected (Profile.layer_latency p g 1)

let prop_cut_transfer_nonneg =
  qtest "cut transfer bytes are positive strictly inside the graph"
    QCheck.(int_range 0 100)
    (fun k ->
      let g = Zoo.by_name "resnet18" in
      let k = min k (Graph.n_nodes g) in
      let b = Graph.cut_transfer_bytes g k in
      if k = Graph.n_nodes g then b = 0.0 else b > 0.0)

let prop_prefix_monotone =
  qtest "prefix flops grow with the cut"
    QCheck.(pair (int_range 0 60) (int_range 0 60))
    (fun (a, b) ->
      let g = Zoo.by_name "mobilenet_v1" in
      let n = Graph.n_nodes g in
      let a = min a n and b = min b n in
      let lo = min a b and hi = max a b in
      Graph.prefix_flops g lo <= Graph.prefix_flops g hi +. 1e-6)

(* Every cost query against the per-query folds of [Es_oracle.Graph], bit
   for bit, on every zoo model at every width, exit and cut (the graphs the
   candidate generator builds). *)
let test_graph_costs_match_oracle () =
  let module O = Es_oracle.Graph in
  let mismatches = ref [] in
  let check what g i expected actual =
    if Int64.bits_of_float expected <> Int64.bits_of_float actual then
      mismatches :=
        Printf.sprintf "%s %s@%d: %h <> %h" g.Graph.name what i expected actual :: !mismatches
  in
  let graphs = ref 0 in
  List.iter
    (fun base ->
      List.iter
        (fun width ->
          List.iter
            (fun exit_node ->
              let g = (Es_surgery.Plan.make ~width ?exit_node base).Es_surgery.Plan.graph in
              incr graphs;
              let n = Graph.n_nodes g in
              for i = 0 to n - 1 do
                check "node_flops" g i (O.node_flops g i) (Graph.node_flops g i);
                check "node_params" g i (O.node_params g i) (Graph.node_params g i)
              done;
              check "total_flops" g n (O.total_flops g) (Graph.total_flops g);
              for k = 0 to n do
                check "prefix_flops" g k (O.prefix_flops g k) (Graph.prefix_flops g k);
                check "suffix_flops" g k (O.suffix_flops g k) (Graph.suffix_flops g k);
                check "cut_transfer_bytes" g k (O.cut_transfer_bytes g k)
                  (Graph.cut_transfer_bytes g k);
                check "cut_transfer_bytes int8" g k
                  (O.cut_transfer_bytes ~bytes_per_elt:1 g k)
                  (Graph.cut_transfer_bytes ~bytes_per_elt:1 g k)
              done)
            (Es_surgery.Candidate.exit_nodes base))
        [ 1.0; 0.75; 0.5 ])
    (Zoo.all ());
  Alcotest.(check bool) "graphs checked" true (!graphs > 100);
  Alcotest.(check (list string)) "no cost differs from the oracle" [] (List.rev !mismatches)

(* ---------- Serialize ---------- *)

let graphs_equivalent (a : Graph.t) (b : Graph.t) =
  a.Graph.name = b.Graph.name
  && Shape.equal a.Graph.input_shape b.Graph.input_shape
  && Graph.n_nodes a = Graph.n_nodes b
  && a.Graph.output = b.Graph.output
  && Array.for_all2
       (fun (x : Graph.node) (y : Graph.node) ->
         x.Graph.node_name = y.Graph.node_name
         && x.Graph.layer = y.Graph.layer
         && x.Graph.preds = y.Graph.preds
         && x.Graph.exitable = y.Graph.exitable)
       a.Graph.nodes b.Graph.nodes

let test_serialize_roundtrip_zoo () =
  List.iter
    (fun g ->
      match Serialize.of_string (Serialize.to_string g) with
      | Error e -> Alcotest.fail (g.Graph.name ^ ": " ^ e)
      | Ok g' ->
          Alcotest.(check bool) (g.Graph.name ^ " round-trips") true (graphs_equivalent g g');
          Alcotest.(check (float 1.0)) "same flops" (Graph.total_flops g) (Graph.total_flops g'))
    (Zoo.all ())

let test_serialize_file_roundtrip () =
  let g = Zoo.resnet18 () in
  let path = Filename.temp_file "es_model" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save g ~path;
      match Serialize.load ~path with
      | Ok g' -> Alcotest.(check bool) "file round-trip" true (graphs_equivalent g g')
      | Error e -> Alcotest.fail e)

let test_serialize_tolerates_comments () =
  let text = Serialize.to_string (Zoo.alexnet ()) in
  let with_noise = "# a comment\n\n" ^ text ^ "\n# trailing\n" in
  match Serialize.of_string with_noise with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_serialize_rejects_garbage () =
  let bad input expect =
    match Serialize.of_string input with
    | Ok _ -> Alcotest.fail ("accepted: " ^ expect)
    | Error _ -> ()
  in
  bad "" "empty document";
  bad "input 3x4x5\n" "missing model header";
  bad "model m\ninput banana\n" "bad shape";
  bad "model m\ninput 3x4x5\nnode 1 x warp preds=0\noutput 1\n" "unknown layer";
  bad "model m\ninput 3x4x5\nnode 5 x relu preds=0\noutput 5\n" "non-sequential id";
  bad "model m\ninput 3x4x5\nnode 1 x relu preds=7\noutput 1\n" "dangling predecessor";
  bad "model m\ninput 3x4x5\nnode 1 x conv out_c=4 k=9 s=1 p=0 g=1 preds=0\n" "window too large"

let test_serialize_preserves_semantics () =
  (* A parsed graph must behave identically under surgery-relevant queries. *)
  let g = Zoo.mobilenet_v2 () in
  match Serialize.of_string (Serialize.to_string g) with
  | Error e -> Alcotest.fail e
  | Ok g' ->
      Alcotest.(check (list int)) "same exit candidates" (Graph.exit_candidate_ids g)
        (Graph.exit_candidate_ids g');
      List.iter
        (fun k ->
          Alcotest.(check (float 0.5)) "same cut transfer"
            (Graph.cut_transfer_bytes g k)
            (Graph.cut_transfer_bytes g' k))
        [ 0; 10; 50; 100 ]

(* Random chain-model generator for serializer fuzzing: a conv/pool/relu/bn
   stack that always type-checks (same-pad convs, halving pools guarded by
   size). *)
let random_chain seed =
  let rng = Es_util.Prng.create seed in
  let b, x = Graph.Builder.create ~name:"fuzz" ~input:(fm ~c:3 ~h:32 ~w:32) in
  let rec go prev h n =
    if n = 0 then prev
    else begin
      let prev, h =
        match Es_util.Prng.int rng 5 with
        | 0 ->
            let out_c = 1 + Es_util.Prng.int rng 32 in
            ( Graph.Builder.add b
                (Layer.Conv { out_c; kernel = 3; stride = 1; pad = 1; groups = 1 })
                [ prev ],
              h )
        | 1 when h >= 4 ->
            (Graph.Builder.add b (Layer.Pool { kind = Layer.Max; kernel = 2; stride = 2; pad = 0 }) [ prev ], h / 2)
        | 2 -> (Graph.Builder.add b ~exitable:(Es_util.Prng.bool rng) Layer.Relu [ prev ], h)
        | 3 -> (Graph.Builder.add b Layer.Batch_norm [ prev ], h)
        | _ -> (Graph.Builder.add b Layer.Relu [ prev ], h)
      in
      go prev h (n - 1)
    end
  in
  let last = go x 32 (3 + Es_util.Prng.int rng 12) in
  let pool = Graph.Builder.add b (Layer.Global_pool Layer.Avg) [ last ] in
  let flat = Graph.Builder.add b Layer.Flatten [ pool ] in
  let fc = Graph.Builder.add b (Layer.Fc { out_features = 10 }) [ flat ] in
  Graph.Builder.finish ~output:fc b

let prop_serialize_roundtrip_random =
  qtest ~count:60 "serializer round-trips random chain models" QCheck.(int_bound 100_000)
    (fun seed ->
      let g = random_chain seed in
      match Serialize.of_string (Serialize.to_string g) with
      | Error _ -> false
      | Ok g' ->
          graphs_equivalent g g'
          && Float.abs (Graph.total_flops g -. Graph.total_flops g') < 1.0)

let () =
  Alcotest.run "es_dnn"
    [
      ( "shape",
        [
          Alcotest.test_case "basics" `Quick test_shape_basics;
          Alcotest.test_case "conv out" `Quick test_shape_conv_out;
          Alcotest.test_case "errors" `Quick test_shape_errors;
          Alcotest.test_case "scale channels" `Quick test_shape_scale_channels;
        ] );
      ( "layer",
        [
          Alcotest.test_case "conv flops" `Quick test_layer_conv_flops;
          Alcotest.test_case "depthwise flops" `Quick test_layer_depthwise_flops;
          Alcotest.test_case "fc" `Quick test_layer_fc;
          Alcotest.test_case "add/concat" `Quick test_layer_add_concat;
          Alcotest.test_case "pool & misc" `Quick test_layer_pool_and_misc;
        ] );
      ( "graph",
        [
          Alcotest.test_case "build & validate" `Quick test_graph_build_validate;
          Alcotest.test_case "builder errors" `Quick test_graph_builder_errors;
          Alcotest.test_case "flops decompose" `Quick test_graph_flops_decompose;
          Alcotest.test_case "cut transfer" `Quick test_graph_cut_transfer;
          Alcotest.test_case "shared activation" `Quick test_graph_cut_shared_activation;
          Alcotest.test_case "successors" `Quick test_graph_successors;
          Alcotest.test_case "scale width" `Quick test_scale_width;
          Alcotest.test_case "scale width on zoo" `Quick test_scale_width_zoo;
          Alcotest.test_case "costs match the oracle" `Quick test_graph_costs_match_oracle;
          prop_cut_transfer_nonneg;
          prop_prefix_monotone;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "all valid" `Quick test_zoo_all_valid;
          Alcotest.test_case "published costs" `Quick test_zoo_published_costs;
          Alcotest.test_case "exits exist" `Quick test_zoo_exits_exist;
          Alcotest.test_case "by_name" `Quick test_zoo_by_name;
          Alcotest.test_case "classifier outputs" `Quick test_zoo_classifier_output;
          Alcotest.test_case "detector output" `Quick test_zoo_detector_output;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "zoo round-trip" `Quick test_serialize_roundtrip_zoo;
          Alcotest.test_case "file round-trip" `Quick test_serialize_file_roundtrip;
          Alcotest.test_case "comments tolerated" `Quick test_serialize_tolerates_comments;
          Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
          Alcotest.test_case "preserves semantics" `Quick test_serialize_preserves_semantics;
          prop_serialize_roundtrip_random;
        ] );
      ( "profile",
        [
          Alcotest.test_case "monotone in speed" `Quick test_profile_monotone_in_speed;
          Alcotest.test_case "ranges compose" `Quick test_profile_range_additive;
          Alcotest.test_case "overhead" `Quick test_profile_overhead;
          Alcotest.test_case "compute bound" `Quick test_profile_compute_bound;
          Alcotest.test_case "memory bound" `Quick test_profile_memory_bound;
        ] );
    ]
