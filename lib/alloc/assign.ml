open Es_edge
open Es_surgery

let balanced_greedy cluster ~plans =
  let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
  if Array.length plans <> nd then invalid_arg "Assign.balanced_greedy: plans size mismatch";
  let bw_load = Array.make ns 0.0 in
  let cpu_load = Array.make ns 0.0 in
  let assignment = Array.make nd 0 in
  (* Each device's uplink bytes and demand are read once: the sort compares
     array cells, and the placement loop prices every server from them. *)
  let bytes = Array.map Plan.transfer_bytes plans in
  let demand =
    Array.mapi
      (fun dev_id plan ->
        cluster.Cluster.devices.(dev_id).Cluster.rate
        *. ((8.0 *. bytes.(dev_id) /. 1e6) +. (Plan.srv_flops plan /. 1e9)))
      plans
  in
  let order = Array.init nd (fun i -> i) in
  Array.sort (fun a b -> Float.compare demand.(b) demand.(a)) order;
  Array.iter
    (fun dev_id ->
      let dev = cluster.Cluster.devices.(dev_id) in
      let plan = plans.(dev_id) in
      let bytes = bytes.(dev_id) in
      let best = ref 0 and best_load = ref infinity in
      for s = 0 to ns - 1 do
        let srv = cluster.Cluster.servers.(s) in
        let work = Plan.server_time srv.Cluster.sproc.Processor.perf plan in
        let bw =
          bw_load.(s)
          +. (dev.Cluster.rate *. 8.0 *. bytes /. srv.Cluster.ap_bandwidth_bps)
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
          +. (dev.Cluster.rate *. 8.0 *. bytes /. srv.Cluster.ap_bandwidth_bps);
        cpu_load.(s) <- cpu_load.(s) +. (dev.Cluster.rate *. work)
      end)
    order;
  assignment

let local_search ?(max_passes = 3) ~n_servers ~eval assignment =
  let a = Array.copy assignment in
  let n = Array.length a in
  let best = ref (eval a) in
  let improved = ref true in
  let pass = ref 0 in
  while !improved && !pass < max_passes do
    improved := false;
    incr pass;
    (* Single-device moves. *)
    for i = 0 to n - 1 do
      let original = a.(i) in
      for s = 0 to n_servers - 1 do
        if s <> original then begin
          a.(i) <- s;
          let v = eval a in
          if v < !best -. 1e-12 then begin
            best := v;
            improved := true
          end
          else a.(i) <- original
        end
      done
    done;
    (* Pairwise swaps. *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if a.(i) <> a.(j) then begin
          let ai = a.(i) and aj = a.(j) in
          a.(i) <- aj;
          a.(j) <- ai;
          let v = eval a in
          if v < !best -. 1e-12 then begin
            best := v;
            improved := true
          end
          else begin
            a.(i) <- ai;
            a.(j) <- aj
          end
        end
      done
    done
  done;
  a
