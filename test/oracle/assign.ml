(* [Es_alloc.Assign.balanced_greedy] with each device's demand recomputed
   inside the sort comparator and its bytes re-read per server. *)

open Es_edge
open Es_surgery

let balanced_greedy cluster ~plans =
  let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
  if Array.length plans <> nd then invalid_arg "Assign.balanced_greedy: plans size mismatch";
  let bw_load = Array.make ns 0.0 in
  let cpu_load = Array.make ns 0.0 in
  let assignment = Array.make nd 0 in
  let demand dev_id =
    let dev = cluster.Cluster.devices.(dev_id) in
    let plan = plans.(dev_id) in
    dev.Cluster.rate
    *. ((8.0 *. Plan.transfer_bytes plan /. 1e6) +. (Plan.srv_flops plan /. 1e9))
  in
  let order = Array.init nd (fun i -> i) in
  Array.sort (fun a b -> Float.compare (demand b) (demand a)) order;
  Array.iter
    (fun dev_id ->
      let dev = cluster.Cluster.devices.(dev_id) in
      let plan = plans.(dev_id) in
      let best = ref 0 and best_load = ref infinity in
      for s = 0 to ns - 1 do
        let srv = cluster.Cluster.servers.(s) in
        let work = Plan.server_time srv.Cluster.sproc.Processor.perf plan in
        let bw =
          bw_load.(s)
          +. (dev.Cluster.rate *. 8.0 *. Plan.transfer_bytes plan /. srv.Cluster.ap_bandwidth_bps)
        in
        let cpu = cpu_load.(s) +. (dev.Cluster.rate *. work) in
        let load = Float.max bw cpu in
        if load < !best_load then begin
          best_load := load;
          best := s
        end
      done;
      let s = !best in
      assignment.(dev_id) <- s;
      if not (Plan.is_device_only plan) then begin
        let srv = cluster.Cluster.servers.(s) in
        let work = Plan.server_time srv.Cluster.sproc.Processor.perf plan in
        bw_load.(s) <-
          bw_load.(s)
          +. (dev.Cluster.rate *. 8.0 *. Plan.transfer_bytes plan /. srv.Cluster.ap_bandwidth_bps);
        cpu_load.(s) <- cpu_load.(s) +. (dev.Cluster.rate *. work)
      end)
    order;
  assignment
