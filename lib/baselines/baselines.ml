open Es_edge
open Es_surgery
open Es_alloc
open Es_joint

type t = { name : string; solve : Cluster.t -> Decision.t array }

let full_width = [ 1.0 ]
let full_depth = [ None ]
let fp32_only = [ Es_surgery.Precision.Fp32 ]

(* Allocation with a graceful fallback: proportional shares when the
   min-max allocator finds the load unstable (the baseline then simply
   performs badly in the simulator, which is the honest outcome). *)
let allocate_or_fallback allocator cluster ~assignment ~plans =
  match Policy.decisions allocator cluster ~assignment ~plans with
  | Some ds -> ds
  | None -> (
      match Policy.decisions Policy.Proportional cluster ~assignment ~plans with
      | Some ds -> ds
      | None -> assert false)

let fair_share_plans ?exits ?precisions ~widths cluster ~assignment =
  let nd = Cluster.n_devices cluster in
  (* Two passes: estimate shares from a full-offload population first, then
     pick plans under those estimates. *)
  let ns = Cluster.n_servers cluster in
  let per_server = Array.make ns 0 in
  Array.iter (fun s -> per_server.(s) <- per_server.(s) + 1) assignment;
  Array.init nd (fun device ->
      let s = assignment.(device) in
      let srv = cluster.Cluster.servers.(s) in
      let k = float_of_int (max 1 per_server.(s)) in
      Optimizer.best_plan_for_grants ?exits ?precisions ~widths cluster ~device ~server:s
        ~bandwidth_bps:(srv.Cluster.ap_bandwidth_bps /. k)
        ~compute_share:(1.0 /. k))

let local_best ?exits ~widths cluster device =
  let dev = cluster.Cluster.devices.(device) in
  let candidates =
    Candidate.pareto_candidates ?exits ~widths dev.Cluster.model
    |> List.filter (fun p ->
           Plan.is_device_only p
           && Plan.device_mem_bytes p <= dev.Cluster.proc.Processor.mem_bytes)
  in
  let acc_ok =
    List.filter
      (fun (p : Plan.t) -> p.Plan.accuracy >= dev.Cluster.accuracy_floor -. 1e-9)
      candidates
  in
  let pool = if acc_ok = [] then candidates else acc_ok in
  match
    Es_util.Numeric.argmin_by
      (fun p -> Plan.device_time dev.Cluster.proc.Processor.perf p)
      pool
  with
  | Some p -> p
  | None -> Plan.device_only dev.Cluster.model

let device_only =
  {
    name = "DeviceOnly";
    solve =
      (fun cluster ->
        Array.mapi
          (fun i (dev : Cluster.device) ->
            Decision.make ~device:i ~server:0 ~plan:(Plan.device_only dev.Cluster.model) ())
          cluster.Cluster.devices);
  }

let exit_local =
  {
    name = "ExitLocal";
    solve =
      (fun cluster ->
        Array.mapi
          (fun i _ ->
            let plan = local_best ~widths:Candidate.default_widths cluster i in
            Decision.make ~device:i ~server:0 ~plan ())
          cluster.Cluster.devices);
  }

let server_only =
  {
    name = "ServerOnly";
    solve =
      (fun cluster ->
        let plans =
          Array.map
            (fun (dev : Cluster.device) -> Plan.server_only dev.Cluster.model)
            cluster.Cluster.devices
        in
        let assignment = Assign.balanced_greedy cluster ~plans in
        allocate_or_fallback Policy.Equal cluster ~assignment ~plans);
  }

let neurosurgeon =
  {
    name = "Neurosurgeon";
    solve =
      (fun cluster ->
        let plans0 =
          Array.map
            (fun (dev : Cluster.device) -> Plan.server_only dev.Cluster.model)
            cluster.Cluster.devices
        in
        let assignment = Assign.balanced_greedy cluster ~plans:plans0 in
        let plans =
          fair_share_plans ~exits:full_depth ~precisions:fp32_only ~widths:full_width cluster
            ~assignment
        in
        allocate_or_fallback Policy.Equal cluster ~assignment ~plans);
  }

let surgery_only =
  {
    name = "SurgeryOnly";
    solve =
      (fun cluster ->
        let config = { Optimizer.default_config with allocator = Policy.Equal } in
        (Optimizer.solve ~config cluster).Optimizer.decisions);
  }

let alloc_only =
  {
    name = "AllocOnly";
    solve =
      (fun cluster ->
        let plans0 =
          Array.map
            (fun (dev : Cluster.device) -> Plan.server_only dev.Cluster.model)
            cluster.Cluster.devices
        in
        let assignment0 = Assign.balanced_greedy cluster ~plans:plans0 in
        let plans =
          fair_share_plans ~exits:full_depth ~precisions:fp32_only ~widths:full_width cluster
            ~assignment:assignment0
        in
        let greedy = Assign.balanced_greedy cluster ~plans in
        allocate_or_fallback Policy.Minmax_alloc cluster ~assignment:greedy ~plans);
  }

let random_policy seed =
  {
    name = "Random";
    solve =
      (fun cluster ->
        let rng = Es_util.Prng.create seed in
        let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
        let plans =
          Array.init nd (fun i ->
              let dev = cluster.Cluster.devices.(i) in
              let candidates =
                Candidate.pareto_candidates dev.Cluster.model
                |> List.filter (fun (p : Plan.t) ->
                       p.Plan.accuracy >= dev.Cluster.accuracy_floor -. 1e-9)
              in
              match candidates with
              | [] -> Plan.device_only dev.Cluster.model
              | l -> Es_util.Prng.choice rng (Array.of_list l))
        in
        let assignment = Array.init nd (fun _ -> Es_util.Prng.int rng ns) in
        allocate_or_fallback Policy.Proportional cluster ~assignment ~plans);
  }

let edgesurgeon =
  {
    name = "EdgeSurgeon";
    solve = (fun cluster -> (Optimizer.solve cluster).Optimizer.decisions);
  }

let all () =
  [
    device_only;
    exit_local;
    server_only;
    neurosurgeon;
    random_policy 11;
    surgery_only;
    alloc_only;
    edgesurgeon;
  ]
