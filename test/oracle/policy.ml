(* [Es_alloc.Policy.decisions] over lists: per-server (device, plan) lists,
   one item record per offloader derived afresh on every call, the list
   allocators of this library, and one [Decision.make] per device. *)

open Es_edge
open Es_surgery

let item_of (dev : Cluster.device) ~(server : Cluster.server) plan =
  let dev_time = Plan.device_time dev.Cluster.proc.Processor.perf plan in
  let rtt = if Plan.is_device_only plan then 0.0 else dev.Cluster.link.Link.rtt_s in
  {
    Minmax.key = dev.Cluster.dev_id;
    fixed_s = dev_time +. rtt;
    bits = 8.0 *. (Plan.transfer_bytes plan +. Plan.result_bytes plan);
    work_s = Plan.server_time server.Cluster.sproc.Processor.perf plan;
    deadline_s = dev.Cluster.deadline;
    peak_bps = dev.Cluster.link.Link.peak_bps;
    rate = dev.Cluster.rate;
  }

let allocate_server allocator cluster ~server pairs =
  let srv = cluster.Cluster.servers.(server) in
  let items =
    List.map
      (fun (dev_id, plan) -> item_of cluster.Cluster.devices.(dev_id) ~server:srv plan)
      pairs
  in
  let bandwidth_bps = srv.Cluster.ap_bandwidth_bps in
  match (allocator : Es_alloc.Policy.allocator) with
  | Minmax_alloc -> Option.map (fun r -> r.Minmax.grants) (Minmax.solve ~bandwidth_bps items)
  | Sum_sqrt -> Some (Share.sqrt_rule ~bandwidth_bps items)
  | Equal -> Some (Share.equal ~bandwidth_bps items)
  | Proportional -> Some (Share.proportional ~bandwidth_bps items)

let decisions allocator cluster ~assignment ~plans =
  let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
  if Array.length assignment <> nd || Array.length plans <> nd then
    invalid_arg "Policy.decisions: assignment/plans must cover every device";
  let per_server = Array.make ns [] in
  Array.iteri
    (fun dev_id plan ->
      if not (Plan.is_device_only plan) then begin
        let s = assignment.(dev_id) in
        if s < 0 || s >= ns then invalid_arg "Policy.decisions: server out of range";
        per_server.(s) <- (dev_id, plan) :: per_server.(s)
      end)
    plans;
  let grants = Array.make nd None in
  let rec run s =
    if s >= ns then true
    else begin
      match per_server.(s) with
      | [] -> run (s + 1)
      | pairs -> (
          match allocate_server allocator cluster ~server:s (List.rev pairs) with
          | None -> false
          | Some gs ->
              List.iter (fun (k, g) -> grants.(k) <- Some g) gs;
              run (s + 1))
    end
  in
  if not (run 0) then None
  else
    Some
      (Array.init nd (fun dev_id ->
           let plan = plans.(dev_id) in
           if Plan.is_device_only plan then
             Decision.make ~device:dev_id ~server:(max 0 assignment.(dev_id)) ~plan ()
           else begin
             match grants.(dev_id) with
             | Some g ->
                 Decision.make ~device:dev_id ~server:assignment.(dev_id) ~plan
                   ~bandwidth_bps:g.Minmax.bandwidth_bps
                   ~compute_share:g.Minmax.compute_share ()
             | None ->
                 invalid_arg "Policy.decisions: allocator returned no grant for a device"
           end))
