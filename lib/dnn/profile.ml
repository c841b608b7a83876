type perf = {
  flops_per_s : float;
  mem_bytes_per_s : float;
  layer_overhead_s : float;
}

let perf ~flops_per_s ~mem_bytes_per_s ~layer_overhead_s =
  if flops_per_s <= 0.0 || mem_bytes_per_s <= 0.0 then
    invalid_arg "Profile.perf: non-positive throughput";
  if layer_overhead_s < 0.0 then invalid_arg "Profile.perf: negative overhead";
  { flops_per_s; mem_bytes_per_s; layer_overhead_s }

let layer_bytes_touched (g : Graph.t) id =
  let node = g.nodes.(id) in
  let input_bytes =
    if Array.length node.preds = 0 then float_of_int (Shape.bytes g.input_shape)
    else
      Array.fold_left
        (fun acc p -> acc +. float_of_int (Shape.bytes g.shapes.(p)))
        0.0 node.preds
  in
  let output_bytes = float_of_int (Shape.bytes g.shapes.(id)) in
  let param_bytes = 4.0 *. Graph.node_params g id in
  input_bytes +. output_bytes +. param_bytes

let layer_latency perf g id =
  (* The input node is a placeholder, not a kernel: no cost anywhere. *)
  if g.Graph.nodes.(id).Graph.layer = Layer.Input then 0.0
  else begin
    let compute = Graph.node_flops g id /. perf.flops_per_s in
    let memory = layer_bytes_touched g id /. perf.mem_bytes_per_s in
    Float.max compute memory +. perf.layer_overhead_s
  end

(* Prefix sums of layer latencies, per graph and per (processor perf,
   compute scale) it runs on.  The optimizer's inner loops evaluate millions
   of (cut, processor, precision) latencies on a handful of graphs;
   memoizing turns each evaluation into two array reads.  The lookup goes
   by graph uid, then by a short scan of that graph's rows, so a hit builds
   no key, no scaled perf record and hashes one int: reduced precision is
   the row's [scale], never a second record.  The cache is domain-local (one
   table per domain, no locking): this lookup is hot enough that even an
   uncontended mutex measurably slows the solver, and a contended one
   serializes parallel trajectories outright.  Each domain recomputes at
   most (graphs × processors × precisions) small arrays. *)
type row = { base : perf; scale : float; sums : float array }

module Uid_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (uid : int) = uid
end)

let prefix_cache : row list Uid_tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Uid_tbl.create 64)

let same_perf a b =
  a == b
  || Float.equal a.flops_per_s b.flops_per_s
     && Float.equal a.mem_bytes_per_s b.mem_bytes_per_s
     && Float.equal a.layer_overhead_s b.layer_overhead_s

(* The row's sums, or [[||]] on a miss (real sums have n + 1 >= 1 cells). *)
let rec find_row base scale = function
  | [] -> [||]
  | r :: rest ->
      if Float.equal r.scale scale && same_perf r.base base then r.sums
      else find_row base scale rest

let prefix_sums base ~scale g =
  let cache = Domain.DLS.get prefix_cache in
  let rows = match Uid_tbl.find cache g.Graph.uid with rows -> rows | exception Not_found -> [] in
  let sums = find_row base scale rows in
  if Array.length sums > 0 then sums
  else begin
    let perf =
      {
        flops_per_s = base.flops_per_s *. scale;
        mem_bytes_per_s = base.mem_bytes_per_s *. scale;
        layer_overhead_s = base.layer_overhead_s;
      }
    in
    let n = Graph.n_nodes g in
    let sums = Array.make (n + 1) 0.0 in
    for i = 0 to n - 1 do
      sums.(i + 1) <- sums.(i) +. layer_latency perf g i
    done;
    Uid_tbl.replace cache g.Graph.uid ({ base; scale; sums } :: rows);
    sums
  end

let scaled_range_latency perf ~scale g ~lo ~hi =
  let n = Graph.n_nodes g in
  let lo = max lo 0 and hi = min hi n in
  if hi <= lo then 0.0
  else begin
    let sums = prefix_sums perf ~scale g in
    sums.(hi) -. sums.(lo)
  end

let range_latency perf g ~lo ~hi = scaled_range_latency perf ~scale:1.0 g ~lo ~hi

let total_latency perf g = range_latency perf g ~lo:0 ~hi:(Graph.n_nodes g)
