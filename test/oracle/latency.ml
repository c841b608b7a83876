(* [Es_edge.Latency]'s kernels over the record-allocating [breakdown]. *)

open Es_surgery
open Es_edge

let of_decision cluster d = Latency.total (Latency.breakdown cluster d)

let server_load cluster decisions =
  let ns = Cluster.n_servers cluster in
  let load = Array.make ns 0.0 in
  Array.iter
    (fun (d : Decision.t) ->
      if Decision.offloads d then begin
        let dev = cluster.Cluster.devices.(d.Decision.device) in
        let srv = cluster.Cluster.servers.(d.Decision.server) in
        let work = Plan.server_time srv.Cluster.sproc.Processor.perf d.Decision.plan in
        load.(d.Decision.server) <- load.(d.Decision.server) +. (dev.Cluster.rate *. work)
      end)
    decisions;
  load

let device_stable cluster (d : Decision.t) =
  let dev = cluster.Cluster.devices.(d.Decision.device) in
  let b = Latency.breakdown cluster d in
  let local_ok = dev.Cluster.rate *. b.Latency.device_s < 1.0 in
  let remote_ok =
    (not (Decision.offloads d)) || dev.Cluster.rate *. b.Latency.server_s < 1.0
  in
  local_ok && remote_ok

(* Propagation is not queued; inflate only the service portions. *)
let inflate rate service =
  if service <= 0.0 then 0.0
  else begin
    let rho = rate *. service in
    if rho >= 1.0 then infinity else service /. (1.0 -. rho)
  end

let mm1_estimate cluster (d : Decision.t) =
  let dev = cluster.Cluster.devices.(d.Decision.device) in
  let rate = dev.Cluster.rate in
  let b = Latency.breakdown cluster d in
  let rtt = if Decision.offloads d then dev.Cluster.link.Link.rtt_s else 0.0 in
  let half_rtt = rtt /. 2.0 in
  inflate rate b.Latency.device_s
  +. inflate rate (Float.max 0.0 (b.Latency.uplink_s -. half_rtt))
  +. inflate rate b.Latency.server_s
  +. inflate rate (Float.max 0.0 (b.Latency.downlink_s -. half_rtt))
  +. rtt

let deadline_satisfaction cluster decisions =
  if Array.length decisions = 0 then 1.0
  else begin
    let hits =
      Array.fold_left
        (fun acc d -> if Latency.meets_deadline cluster d then acc + 1 else acc)
        0 decisions
    in
    float_of_int hits /. float_of_int (Array.length decisions)
  end

let mean_latency cluster decisions =
  if Array.length decisions = 0 then 0.0
  else
    Array.fold_left (fun acc d -> acc +. of_decision cluster d) 0.0 decisions
    /. float_of_int (Array.length decisions)
