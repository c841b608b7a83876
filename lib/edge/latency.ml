(* es_lint: hot *)
open Es_surgery

type breakdown = {
  device_s : float;
  uplink_s : float;
  server_s : float;
  downlink_s : float;
}

let breakdown cluster (d : Decision.t) =
  let dev = cluster.Cluster.devices.(d.Decision.device) in
  let plan = d.Decision.plan in
  let device_s = Plan.device_time dev.Cluster.proc.Processor.perf plan in
  if not (Decision.offloads d) then { device_s; uplink_s = 0.0; server_s = 0.0; downlink_s = 0.0 }
  else begin
    let srv = cluster.Cluster.servers.(d.Decision.server) in
    let rate = d.Decision.bandwidth_bps in
    let uplink_s = Link.transfer_time dev.Cluster.link ~rate_bps:rate (Plan.transfer_bytes plan) in
    let server_s =
      let work = Plan.server_time srv.Cluster.sproc.Processor.perf plan in
      if work <= 0.0 then 0.0 else work /. d.Decision.compute_share
    in
    let downlink_s =
      Link.transfer_time dev.Cluster.link ~rate_bps:rate (Plan.result_bytes plan)
    in
    { device_s; uplink_s; server_s; downlink_s }
  end

let total b = b.device_s +. b.uplink_s +. b.server_s +. b.downlink_s

(* Straight-line [of_decision]: the same stage terms summed in the same
   operation order as [total (breakdown ...)], minus the intermediate
   record.  The zero additions on the local path keep bit-parity with the
   four-term sum (−0.0 +. 0.0 normalizes identically on both). *)
let of_decision cluster (d : Decision.t) =
  let dev = cluster.Cluster.devices.(d.Decision.device) in
  let plan = d.Decision.plan in
  let device_s = Plan.device_time dev.Cluster.proc.Processor.perf plan in
  if not (Decision.offloads d) then device_s +. 0.0 +. 0.0 +. 0.0
  else begin
    let srv = cluster.Cluster.servers.(d.Decision.server) in
    let rate = d.Decision.bandwidth_bps in
    let uplink_s = Link.transfer_time dev.Cluster.link ~rate_bps:rate (Plan.transfer_bytes plan) in
    let work = Plan.server_time srv.Cluster.sproc.Processor.perf plan in
    let server_s = if work <= 0.0 then 0.0 else work /. d.Decision.compute_share in
    let downlink_s =
      Link.transfer_time dev.Cluster.link ~rate_bps:rate (Plan.result_bytes plan)
    in
    device_s +. uplink_s +. server_s +. downlink_s
  end

let meets_deadline cluster d =
  let dev = cluster.Cluster.devices.(d.Decision.device) in
  of_decision cluster d <= dev.Cluster.deadline +. 1e-12

let server_load_into cluster decisions load =
  let ns = Cluster.n_servers cluster in
  Array.fill load 0 ns 0.0;
  for i = 0 to Array.length decisions - 1 do
    let d = decisions.(i) in
    if Decision.offloads d then begin
      let dev = cluster.Cluster.devices.(d.Decision.device) in
      let srv = cluster.Cluster.servers.(d.Decision.server) in
      let work = Plan.server_time srv.Cluster.sproc.Processor.perf d.Decision.plan in
      load.(d.Decision.server) <- load.(d.Decision.server) +. (dev.Cluster.rate *. work)
    end
  done

let server_load cluster decisions =
  let load = Array.make (Cluster.n_servers cluster) 0.0 in
  server_load_into cluster decisions load;
  load

let device_stable cluster (d : Decision.t) =
  let dev = cluster.Cluster.devices.(d.Decision.device) in
  let plan = d.Decision.plan in
  let device_s = Plan.device_time dev.Cluster.proc.Processor.perf plan in
  let local_ok = dev.Cluster.rate *. device_s < 1.0 in
  local_ok
  && ((not (Decision.offloads d))
     ||
     let srv = cluster.Cluster.servers.(d.Decision.server) in
     let work = Plan.server_time srv.Cluster.sproc.Processor.perf plan in
     let server_s = if work <= 0.0 then 0.0 else work /. d.Decision.compute_share in
     dev.Cluster.rate *. server_s < 1.0)

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
  let plan = d.Decision.plan in
  let device_s = Plan.device_time dev.Cluster.proc.Processor.perf plan in
  if not (Decision.offloads d) then
    (* Stage terms of the local breakdown are 0; only device time inflates.
       The explicit zero terms keep bit-parity with the five-term sum. *)
    inflate rate device_s +. 0.0 +. 0.0 +. 0.0 +. 0.0
  else begin
    let srv = cluster.Cluster.servers.(d.Decision.server) in
    let bw = d.Decision.bandwidth_bps in
    let uplink_s = Link.transfer_time dev.Cluster.link ~rate_bps:bw (Plan.transfer_bytes plan) in
    let work = Plan.server_time srv.Cluster.sproc.Processor.perf plan in
    let server_s = if work <= 0.0 then 0.0 else work /. d.Decision.compute_share in
    let downlink_s =
      Link.transfer_time dev.Cluster.link ~rate_bps:bw (Plan.result_bytes plan)
    in
    let rtt = dev.Cluster.link.Link.rtt_s in
    let half_rtt = rtt /. 2.0 in
    inflate rate device_s
    +. inflate rate (Float.max 0.0 (uplink_s -. half_rtt))
    +. inflate rate server_s
    +. inflate rate (Float.max 0.0 (downlink_s -. half_rtt))
    +. rtt
  end

let deadline_satisfaction cluster decisions =
  let n = Array.length decisions in
  if n = 0 then 1.0
  else begin
    let hits = ref 0 in
    for i = 0 to n - 1 do
      if meets_deadline cluster decisions.(i) then incr hits
    done;
    float_of_int !hits /. float_of_int n
  end

let mean_latency cluster decisions =
  let n = Array.length decisions in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. of_decision cluster decisions.(i)
    done;
    !acc /. float_of_int n
  end
