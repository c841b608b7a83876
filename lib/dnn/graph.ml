type node = {
  id : int;
  node_name : string;
  layer : Layer.t;
  preds : int array;
  exitable : bool;
}

type t = {
  uid : int;
  name : string;
  input_shape : Shape.t;
  nodes : node array;
  output : int;
  shapes : Shape.t array;
  flops : float array;
  params : float array;
  cum_flops : float array;
  last_use : int array;
}

let pred_shapes input_shape shapes node =
  if Array.length node.preds = 0 then [ input_shape ]
  else Array.to_list (Array.map (fun p -> shapes.(p)) node.preds)

module Builder = struct
  type b = {
    bname : string;
    binput : Shape.t;
    mutable rev_nodes : node list;
    mutable bshapes : Shape.t array;  (* [0, count) live, the rest spare capacity *)
    mutable count : int;
  }

  let create ~name ~input =
    let input_node =
      { id = 0; node_name = "input"; layer = Layer.Input; preds = [||]; exitable = false }
    in
    let b =
      {
        bname = name;
        binput = input;
        rev_nodes = [ input_node ];
        bshapes = Array.make 16 input;
        count = 1;
      }
    in
    (b, 0)

  let shape_of b id =
    if id < 0 || id >= b.count then
      invalid_arg (Printf.sprintf "Graph.Builder.shape_of: unknown node %d" id);
    b.bshapes.(id)

  let push_shape b shape =
    if b.count = Array.length b.bshapes then begin
      let grown = Array.make (2 * b.count) b.binput in
      Array.blit b.bshapes 0 grown 0 b.count;
      b.bshapes <- grown
    end;
    b.bshapes.(b.count) <- shape

  let add b ?name ?(exitable = false) layer preds =
    List.iter
      (fun p ->
        if p < 0 || p >= b.count then
          invalid_arg (Printf.sprintf "Graph.Builder.add: unknown predecessor %d" p))
      preds;
    if preds = [] then invalid_arg "Graph.Builder.add: a non-input node needs predecessors";
    (match layer with
    | Layer.Conv { stride; groups; _ } when stride < 1 || groups < 1 ->
        invalid_arg "Graph.Builder.add: conv stride and groups must be at least 1"
    | Layer.Pool { stride; _ } when stride < 1 ->
        invalid_arg "Graph.Builder.add: pool stride must be at least 1"
    | _ -> ());
    let id = b.count in
    let node_name = match name with Some n -> n | None -> Layer.name layer in
    let shape = Layer.output_shape layer (List.map (shape_of b) preds) in
    let node = { id; node_name; layer; preds = Array.of_list preds; exitable } in
    b.rev_nodes <- node :: b.rev_nodes;
    push_shape b shape;
    b.count <- id + 1;
    id

  (* Atomic: graphs are built from multiple domains under --jobs, and a
     duplicated uid would alias entries in the per-(graph, processor)
     profile caches. *)
  let next_uid =
    let counter = Atomic.make 0 in
    fun () -> Atomic.fetch_and_add counter 1 + 1

  (* The cost tables every query reads.  [cum_flops.(k)] is the FLOPs of
     nodes [0, k) summed left to right from [0.0], the same order as a fold
     over the nodes, so prefix sums are bit-identical to the folds they
     replace. *)
  let finish ?output b =
    let nodes = Array.of_list (List.rev b.rev_nodes) in
    let shapes = Array.sub b.bshapes 0 b.count in
    let output = match output with Some o -> o | None -> b.count - 1 in
    if output < 0 || output >= b.count then invalid_arg "Graph.Builder.finish: bad output id";
    let n = b.count in
    let cost f = Array.map (fun nd -> f nd.layer (pred_shapes b.binput shapes nd)) nodes in
    let flops = cost Layer.flops and params = cost Layer.params in
    let cum_flops = Array.make (n + 1) 0.0 in
    let last_use = Array.make n (-1) in
    for i = 0 to n - 1 do
      cum_flops.(i + 1) <- cum_flops.(i) +. flops.(i);
      Array.iter (fun p -> last_use.(p) <- i) nodes.(i).preds
    done;
    {
      uid = next_uid ();
      name = b.bname;
      input_shape = b.binput;
      nodes;
      output;
      shapes;
      flops;
      params;
      cum_flops;
      last_use;
    }
end

let sequential ~name ~input layers =
  let b, first = Builder.create ~name ~input in
  let last =
    List.fold_left
      (fun prev (lname, exitable, layer) -> Builder.add b ?name:lname ~exitable layer [ prev ])
      first layers
  in
  Builder.finish ~output:last b

let n_nodes g = Array.length g.nodes
let node_shape g id = g.shapes.(id)

let node_pred_shapes g node = pred_shapes g.input_shape g.shapes node

let node_flops g id = g.flops.(id)
let node_params g id = g.params.(id)

let fold_nodes f init g =
  let acc = ref init in
  for i = 0 to n_nodes g - 1 do
    acc := f !acc i
  done;
  !acc

let total_flops g = g.cum_flops.(n_nodes g)
let total_params g = Array.fold_left ( +. ) 0.0 g.params
let output_shape g = g.shapes.(g.output)

let exit_candidate_ids g =
  fold_nodes (fun acc i -> if g.nodes.(i).exitable then i :: acc else acc) [] g |> List.rev

let validate g =
  let n = n_nodes g in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if n = 0 then err "empty graph"
  else if g.output < 0 || g.output >= n then err "output id %d out of range" g.output
  else if g.nodes.(0).layer <> Layer.Input then err "node 0 is not the input"
  else begin
    let rec check i =
      if i >= n then Ok ()
      else begin
        let node = g.nodes.(i) in
        if node.id <> i then err "node %d has id %d" i node.id
        else if Array.exists (fun p -> p >= i || p < 0) node.preds then
          err "node %d has a non-topological predecessor" i
        else begin
          match Layer.output_shape node.layer (node_pred_shapes g node) with
          | shape ->
              if Shape.equal shape g.shapes.(i) then check (i + 1)
              else err "node %d shape mismatch" i
          | exception Invalid_argument m -> err "node %d: %s" i m
        end
      end
    in
    check 0
  end

let prefix_flops g k = g.cum_flops.(max 0 (min k (n_nodes g)))

(* Summed upwards from the cut, as the fold did: [total - prefix] would
   round differently. *)
let suffix_flops g k =
  let acc = ref 0.0 in
  for i = max 0 k to n_nodes g - 1 do
    acc := !acc +. g.flops.(i)
  done;
  !acc

let cut_transfer_bytes ?(bytes_per_elt = 4) g k =
  let n = n_nodes g in
  if k <= 0 then float_of_int (Shape.bytes ~bytes_per_elt g.input_shape)
  else if k >= n then 0.0
  else begin
    (* A node i < k crosses the cut when its last consumer has id >= k.
       Each crossing activation is shipped once even with several consumers. *)
    let total = ref 0.0 in
    for i = 0 to k - 1 do
      if g.last_use.(i) >= k then
        total := !total +. float_of_int (Shape.elements g.shapes.(i) * bytes_per_elt)
    done;
    !total
  end

let scale_width f g =
  if f <= 0.0 || f > 1.0 then invalid_arg "Graph.scale_width: factor outside (0,1]";
  if f = 1.0 then g
  else begin
    let b, _ = Builder.create ~name:(Printf.sprintf "%s@w%.2f" g.name f) ~input:g.input_shape in
    Array.iter
      (fun node ->
        if node.id > 0 then begin
          let layer =
            (* The classifier head (the output node) keeps its dimension so
               the model still predicts the same classes. *)
            if node.id = g.output then node.layer else Layer.scale_width f node.layer
          in
          let id =
            Builder.add b ~name:node.node_name ~exitable:node.exitable layer
              (Array.to_list node.preds)
          in
          assert (id = node.id)
        end)
      g.nodes;
    Builder.finish ~output:g.output b
  end

let pp_summary fmt g =
  Format.fprintf fmt "%s: %d nodes, %.1f MFLOPs, %.2f M params@."
    g.name (n_nodes g) (total_flops g /. 1e6) (total_params g /. 1e6);
  Array.iter
    (fun node ->
      Format.fprintf fmt "  %3d %-12s %-12s %-10s %8.2f MFLOPs%s@." node.id node.node_name
        (Layer.name node.layer)
        (Shape.to_string g.shapes.(node.id))
        (node_flops g node.id /. 1e6)
        (if node.exitable then "  [exit]" else ""))
    g.nodes
