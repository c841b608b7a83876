(* Optimal DAG partitioning by minimum cut, the reference experiment T4
   and its tier-1 property hold [Es_surgery.Plan]'s prefix cuts against.

   [Plan] restricts partitions to prefixes of the topological order, which
   is optimal for chains; a branchy model could admit a cheaper split that
   keeps one branch on the device while offloading another.  Following the
   DADS reduction, the minimum-cost split is an s-t min-cut of a flow
   network:
   - node [v] on the device costs [dev_cost v] (edge v->t),
   - node [v] on the server costs [srv_cost v] (edge s->v),
   - an activation produced on the device and consumed on the server is
     uplinked once, costing [transfer_cost v] (auxiliary-node gadget),
   - server->device data flow is forbidden (infinite reverse edges), and
     the input node is pinned to the device.
   All costs share a unit (seconds, or seconds per second at a request
   rate).  [best_prefix_cost] prices every prefix cut under the same model
   and returns (cut position, cost); the min-cut split is never worse.
   [validate] checks a split's physical validity: input on the device and
   no edge from a server node into a device node. *)

type split = {
  device_side : bool array;  (* per node id; [true] = runs on the device *)
  total_cost : float;  (* device + server + transfer cost of the split *)
  dev_cost : float;
  srv_cost : float;
  transfer_cost : float;
}

(* The consumers of node [id], in topological order. *)
let successors (g : Es_dnn.Graph.t) id =
  List.filter
    (fun i -> Array.mem id g.Es_dnn.Graph.nodes.(i).Es_dnn.Graph.preds)
    (List.init (Es_dnn.Graph.n_nodes g) Fun.id)

let split_costs ~dev_cost ~srv_cost ~transfer_cost g device_side =
  let n = Es_dnn.Graph.n_nodes g in
  let dev = ref 0.0 and srv = ref 0.0 and xfer = ref 0.0 in
  for v = 0 to n - 1 do
    if device_side.(v) then dev := !dev +. dev_cost v else srv := !srv +. srv_cost v
  done;
  for v = 0 to n - 1 do
    if device_side.(v) then begin
      let ships =
        List.exists (fun c -> not device_side.(c)) (successors g v)
      in
      if ships then xfer := !xfer +. transfer_cost v
    end
  done;
  (!dev, !srv, !xfer)

let optimal_split ~dev_cost ~srv_cost ~transfer_cost g =
  let n = Es_dnn.Graph.n_nodes g in
  (* Vertex layout: graph nodes 0..n-1, one auxiliary vertex per node that
     has successors, then source and sink. *)
  let succs = Array.init n (fun v -> successors g v) in
  let aux_index = Array.make n (-1) in
  let n_aux = ref 0 in
  Array.iteri
    (fun v s ->
      if s <> [] then begin
        aux_index.(v) <- n + !n_aux;
        incr n_aux
      end)
    succs;
  let source = n + !n_aux and sink = n + !n_aux + 1 in
  let net = Maxflow.create ~n:(n + !n_aux + 2) in
  for v = 0 to n - 1 do
    (* Device side pays dev_cost when v is cut off from the sink. *)
    let dc = dev_cost v and sc = srv_cost v in
    if dc > 0.0 then Maxflow.add_edge net ~src:v ~dst:sink ~capacity:dc;
    if sc > 0.0 then Maxflow.add_edge net ~src:source ~dst:v ~capacity:sc;
    (* Activation gadget: u -> aux(u) with the transfer cost, aux -> each
       consumer with infinity, so the cost is charged once iff any consumer
       lands on the server while u stays on the device. *)
    if succs.(v) <> [] then begin
      let a = aux_index.(v) in
      Maxflow.add_edge net ~src:v ~dst:a ~capacity:(transfer_cost v);
      List.iter
        (fun c ->
          Maxflow.add_edge net ~src:a ~dst:c ~capacity:infinity;
          (* Forbid server -> device data flow. *)
          Maxflow.add_edge net ~src:c ~dst:v ~capacity:infinity)
        succs.(v)
    end
  done;
  (* Pin the input to the device. *)
  Maxflow.add_edge net ~src:source ~dst:0 ~capacity:infinity;
  let _value = Maxflow.max_flow net ~source ~sink in
  let side = Maxflow.min_cut_side net ~source in
  let device_side = Array.init n (fun v -> side.(v)) in
  let dev, srv, xfer = split_costs ~dev_cost ~srv_cost ~transfer_cost g device_side in
  { device_side; total_cost = dev +. srv +. xfer; dev_cost = dev; srv_cost = srv;
    transfer_cost = xfer }

(* The cost triple in seconds: per-node device and server execution time,
   and activation transfer time at the given uplink rate. *)
let latency_costs ~device ~server ~bandwidth_bps g =
  let dev v = Es_dnn.Profile.layer_latency device g v in
  let srv v = Es_dnn.Profile.layer_latency server g v in
  let xfer v =
    float_of_int (Es_dnn.Shape.bytes (Es_dnn.Graph.node_shape g v)) *. 8.0 /. bandwidth_bps
  in
  (dev, srv, xfer)

let best_prefix_cost ~dev_cost ~srv_cost ~transfer_cost g =
  let n = Es_dnn.Graph.n_nodes g in
  let best_cut = ref 0 and best = ref infinity in
  for cut = 0 to n do
    let device_side = Array.init n (fun v -> v < cut) in
    let dev, srv, xfer = split_costs ~dev_cost ~srv_cost ~transfer_cost g device_side in
    (* A prefix cut of 0 still ships the raw input: charge node 0's
       transfer explicitly since nothing is on the device side. *)
    let xfer = if cut = 0 then transfer_cost 0 else xfer in
    let cost = dev +. srv +. xfer in
    if cost < !best then begin
      best := cost;
      best_cut := cut
    end
  done;
  (!best_cut, !best)

let validate g device_side =
  let n = Es_dnn.Graph.n_nodes g in
  if Array.length device_side <> n then Error "split size mismatch"
  else if not device_side.(0) then Error "input node must stay on the device"
  else begin
    let bad = ref None in
    for v = 0 to n - 1 do
      if not device_side.(v) then
        List.iter
          (fun c -> if device_side.(c) then bad := Some (v, c))
          (successors g v)
    done;
    match !bad with
    | Some (v, c) -> Error (Printf.sprintf "server node %d feeds device node %d" v c)
    | None -> Ok ()
  end
