(* [Es_joint.Optimizer]'s kernels over lists, one Decision per candidate
   and regenerated candidate sets. *)

open Es_edge
open Es_surgery
open Es_alloc

let stability_margin = 0.95

let plan_latency cluster ~device ~server plan ~bandwidth_bps ~compute_share =
  let d =
    Decision.make ~device ~server ~plan
      ~bandwidth_bps:(Float.max bandwidth_bps 1.0)
      ~compute_share:(Float.max compute_share 1e-6) ()
  in
  Es_edge.Latency.of_decision cluster d

let plan_stable cluster ~device ~server plan ~bandwidth_bps ~compute_share =
  let dev = cluster.Cluster.devices.(device) in
  let rate = dev.Cluster.rate in
  let dev_time = Plan.device_time dev.Cluster.proc.Processor.perf plan in
  Plan.device_mem_bytes plan <= dev.Cluster.proc.Processor.mem_bytes
  && rate *. dev_time < stability_margin
  && (Plan.is_device_only plan
     ||
     let bits = 8.0 *. (Plan.transfer_bytes plan +. Plan.result_bytes plan) in
     let bw = Float.min bandwidth_bps dev.Cluster.link.Link.peak_bps in
     let srv = cluster.Cluster.servers.(server) in
     let work = Plan.server_time srv.Cluster.sproc.Processor.perf plan in
     bw > 0.0
     && rate *. bits /. bw < stability_margin
     && (work = 0.0 || (compute_share > 0.0 && rate *. work /. compute_share < stability_margin)))

(* The surgery step: one Decision per candidate, list filters and
   [argmin_by]. *)
let best_plan_for_grants ?exits ?max_candidates ?precisions ~widths cluster ~device ~server
    ~bandwidth_bps ~compute_share =
  let dev = cluster.Cluster.devices.(device) in
  let candidates = Candidate.pareto_candidates ?exits ?precisions ~widths dev.Cluster.model in
  let candidates =
    match max_candidates with Some k -> Candidate.subsample k candidates | None -> candidates
  in
  let acc_ok (p : Plan.t) = p.Plan.accuracy >= dev.Cluster.accuracy_floor -. 1e-9 in
  let latency p = plan_latency cluster ~device ~server p ~bandwidth_bps ~compute_share in
  let eligible = List.filter acc_ok candidates in
  let pool = if eligible = [] then candidates else eligible in
  let stable =
    List.filter (fun p -> plan_stable cluster ~device ~server p ~bandwidth_bps ~compute_share) pool
  in
  let pick pool = Es_util.Numeric.argmin_by latency pool in
  match pick stable with
  | Some p -> p
  | None -> (
      match pick pool with
      | Some p -> p
      | None -> (* candidate sets are never empty: full model always present *) assert false)

let load_proxy cluster ~plans assignment =
  let ns = Cluster.n_servers cluster in
  let bw = Array.make ns 0.0 and cpu = Array.make ns 0.0 in
  Array.iteri
    (fun dev_id s ->
      let plan = plans.(dev_id) in
      if not (Plan.is_device_only plan) then begin
        let dev = cluster.Cluster.devices.(dev_id) in
        let srv = cluster.Cluster.servers.(s) in
        bw.(s) <-
          bw.(s)
          +. dev.Cluster.rate
             *. 8.0
             *. (Plan.transfer_bytes plan +. Plan.result_bytes plan)
             /. srv.Cluster.ap_bandwidth_bps;
        cpu.(s) <-
          cpu.(s)
          +. (dev.Cluster.rate *. Plan.server_time srv.Cluster.sproc.Processor.perf plan)
      end)
    assignment;
  let worst = ref 0.0 in
  for s = 0 to ns - 1 do
    worst := Float.max !worst (Float.max bw.(s) cpu.(s))
  done;
  !worst

(* Must make the same plan flips and return the same decisions as
   [Es_joint.Optimizer.force_feasible]. *)
let force_feasible config cluster plans assignment =
  let order =
    Array.init (Array.length plans) (fun i -> i)
    |> Array.to_list
    |> List.sort (fun a b ->
           Float.compare
             (cluster.Cluster.devices.(b).Cluster.rate *. Plan.srv_flops plans.(b))
             (cluster.Cluster.devices.(a).Cluster.rate *. Plan.srv_flops plans.(a)))
  in
  let rec go = function
    | [] -> Policy.decisions config.Es_joint.Optimizer.allocator cluster ~assignment ~plans
    | i :: rest -> (
        match Policy.decisions config.Es_joint.Optimizer.allocator cluster ~assignment ~plans with
        | Some ds -> Some ds
        | None ->
            let dev = cluster.Cluster.devices.(i) in
            let local =
              let all =
                Candidate.pareto_candidates ~widths:config.Es_joint.Optimizer.widths
                  ~precisions:config.Es_joint.Optimizer.precisions dev.Cluster.model
              in
              (match config.Es_joint.Optimizer.max_candidates with
              | Some k -> Candidate.subsample k all
              | None -> all)
              |> List.filter Plan.is_device_only
              |> Es_util.Numeric.argmin_by (fun p ->
                     Plan.device_time dev.Cluster.proc.Processor.perf p)
            in
            (match local with
            | Some p -> plans.(i) <- p
            | None -> plans.(i) <- Plan.device_only dev.Cluster.model);
            go rest)
  in
  go order

