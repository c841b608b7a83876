open Es_dnn

type t = {
  base_name : string;
  width : float;
  exit_node : int option;
  precision : Precision.t;
  graph : Graph.t;
  cut : int;
  depth_frac : float;
  accuracy : float;
}

(* Exit-head construction mirrors the standard practice: classifiers get
   global-pool + FC (+softmax), detectors a 1x1 conv to the original output
   channels at the current resolution. *)
let attach_head b ~base_output_shape last =
  let last_shape = Graph.Builder.shape_of b last in
  match base_output_shape with
  | Shape.Vec classes ->
      let x =
        match last_shape with
        | Shape.Map _ ->
            let p = Graph.Builder.add b ~name:"exit_pool" (Layer.Global_pool Layer.Avg) [ last ] in
            Graph.Builder.add b ~name:"exit_flatten" Layer.Flatten [ p ]
        | Shape.Vec _ -> last
      in
      let fc = Graph.Builder.add b ~name:"exit_fc" (Layer.Fc { out_features = classes }) [ x ] in
      Graph.Builder.add b ~name:"exit_softmax" Layer.Softmax [ fc ]
  | Shape.Map { c; _ } ->
      Graph.Builder.add b ~name:"exit_detect"
        (Layer.Conv { out_c = c; kernel = 1; stride = 1; pad = 0; groups = 1 })
        [ last ]

let truncate_at (base : Graph.t) id =
  let n = Graph.n_nodes base in
  if id < 0 || id >= n then invalid_arg "Plan.truncate_at: node id out of range";
  if id = base.output then base
  else begin
    let b, _ =
      Graph.Builder.create
        ~name:(Printf.sprintf "%s@exit%d" base.name id)
        ~input:base.input_shape
    in
    for i = 1 to id do
      let node = base.nodes.(i) in
      let got =
        Graph.Builder.add b ~name:node.node_name ~exitable:node.exitable node.layer
          (Array.to_list node.preds)
      in
      assert (got = i)
    done;
    let out = attach_head b ~base_output_shape:(Graph.output_shape base) id in
    Graph.Builder.finish ~output:out b
  end

let valid_exit base id =
  id = base.Graph.output || List.mem id (Graph.exit_candidate_ids base)

let make ?(width = 1.0) ?exit_node ?(precision = Precision.Fp32) ?(cut = 0) (base : Graph.t) =
  if width <= 0.0 || width > 1.0 then invalid_arg "Plan.make: width outside (0,1]";
  (match exit_node with
  | Some id when not (valid_exit base id) ->
      invalid_arg (Printf.sprintf "Plan.make: node %d is not an exit candidate" id)
  | _ -> ());
  let trunc = match exit_node with None -> base | Some id -> truncate_at base id in
  let depth_frac =
    Es_util.Numeric.clamp ~lo:1e-6 ~hi:1.0 (Graph.total_flops trunc /. Graph.total_flops base)
  in
  let graph = Graph.scale_width width trunc in
  let n = Graph.n_nodes graph in
  if cut < 0 || cut > n then invalid_arg "Plan.make: cut out of range";
  let accuracy =
    Accuracy.predict (Accuracy.profile_of_model base.name) ~depth_frac ~width
    *. Precision.accuracy_factor precision
  in
  { base_name = base.name; width; exit_node; precision; graph; cut; depth_frac; accuracy }

let device_only base =
  let p = make base in
  { p with cut = Graph.n_nodes p.graph }

let server_only base = make base

let with_cut t cut =
  let n = Graph.n_nodes t.graph in
  if cut < 0 || cut > n then invalid_arg "Plan.with_cut: cut out of range";
  { t with cut }

let dev_flops t = Graph.prefix_flops t.graph t.cut
let srv_flops t = Graph.suffix_flops t.graph t.cut

let transfer_bytes t =
  Graph.cut_transfer_bytes ~bytes_per_elt:(Precision.bytes_per_elt t.precision) t.graph t.cut

let result_bytes t =
  if t.cut >= Graph.n_nodes t.graph then 0.0
  else
    float_of_int
      (Shape.bytes ~bytes_per_elt:(Precision.bytes_per_elt t.precision)
         (Graph.output_shape t.graph))

let device_mem_bytes t =
  let bpe = float_of_int (Precision.bytes_per_elt t.precision) in
  let weights = ref 0.0 and peak_act = ref 0.0 in
  for i = 0 to t.cut - 1 do
    weights := !weights +. Graph.node_params t.graph i;
    peak_act := Float.max !peak_act (float_of_int (Shape.elements (Graph.node_shape t.graph i)))
  done;
  bpe *. (!weights +. (2.0 *. !peak_act))

let device_time perf t =
  Profile.scaled_range_latency perf ~scale:(Precision.compute_scale t.precision) t.graph ~lo:0
    ~hi:t.cut

let server_time perf t =
  Profile.scaled_range_latency perf ~scale:(Precision.compute_scale t.precision) t.graph
    ~lo:t.cut ~hi:(Graph.n_nodes t.graph)

let is_device_only t = t.cut >= Graph.n_nodes t.graph
let is_server_only t = t.cut = 0

let describe t =
  Printf.sprintf "%s w=%.2f exit=%s %s cut=%d/%d acc=%.3f" t.base_name t.width
    (match t.exit_node with None -> "full" | Some id -> string_of_int id)
    (Precision.name t.precision) t.cut (Graph.n_nodes t.graph) t.accuracy
