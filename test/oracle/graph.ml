(* [Es_dnn.Graph]'s cost queries as the original per-query folds: each
   node's cost re-derived from its layer and predecessor shapes, each cut
   query a walk over the whole graph.  The library's per-graph cost tables
   must agree with these bit for bit. *)

open Es_dnn

let pred_shapes (g : Graph.t) id =
  let node = g.Graph.nodes.(id) in
  if Array.length node.Graph.preds = 0 then [ g.Graph.input_shape ]
  else Array.to_list (Array.map (fun p -> g.Graph.shapes.(p)) node.Graph.preds)

let node_flops (g : Graph.t) id = Layer.flops g.Graph.nodes.(id).Graph.layer (pred_shapes g id)
let node_params (g : Graph.t) id = Layer.params g.Graph.nodes.(id).Graph.layer (pred_shapes g id)

let fold_nodes f init g =
  let acc = ref init in
  for i = 0 to Graph.n_nodes g - 1 do
    acc := f !acc i
  done;
  !acc

let total_flops g = fold_nodes (fun acc i -> acc +. node_flops g i) 0.0 g
let prefix_flops g k = fold_nodes (fun acc i -> if i < k then acc +. node_flops g i else acc) 0.0 g
let suffix_flops g k = fold_nodes (fun acc i -> if i >= k then acc +. node_flops g i else acc) 0.0 g

let cut_transfer_bytes ?(bytes_per_elt = 4) (g : Graph.t) k =
  let n = Graph.n_nodes g in
  if k <= 0 then float_of_int (Shape.bytes ~bytes_per_elt g.Graph.input_shape)
  else if k >= n then 0.0
  else begin
    let crosses = Array.make k false in
    for i = k to n - 1 do
      Array.iter (fun p -> if p < k then crosses.(p) <- true) g.Graph.nodes.(i).Graph.preds
    done;
    let total = ref 0.0 in
    for i = 0 to k - 1 do
      if crosses.(i) then
        total := !total +. float_of_int (Shape.bytes ~bytes_per_elt g.Graph.shapes.(i))
    done;
    !total
  end
