(* Simulated-annealing joint solver, the metaheuristic comparator for the
   block-coordinate JMSRA optimizer in experiment F12.

   The state is (candidate-plan index, server) per device; a neighbour
   mutates one device's plan or placement; every state is scored by the
   production inner step [Es_joint.Optimizer.best_allocation] and
   [Es_joint.Objective], so the comparison isolates the search strategy.
   One trajectory of [iterations] proposals (default 2000) from the
   all-device-only state, initial temperature 1.0 cooled by 0.995 per
   proposal, all draws from [Prng.create 17].  Infeasible proposals (no
   stable allocation) are rejected outright; the best state visited is
   returned.  Raises [Invalid_argument] on an empty cluster. *)

open Es_edge
open Es_surgery

type output = {
  decisions : Decision.t array;
  objective : float;
  evaluated : int;
  solve_time_s : float;
}

let solve ?(iterations = 2000) cluster =
  let t0 = Es_obs.Obs.wall_clock () in
  let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
  if nd = 0 then invalid_arg "Annealing.solve: empty cluster";
  (* Per-device candidate pools, accuracy-filtered like the main optimizer. *)
  let pools =
    Array.init nd (fun i ->
        let dev = cluster.Cluster.devices.(i) in
        let all = Candidate.pareto_candidates dev.Cluster.model in
        let ok =
          List.filter
            (fun (p : Plan.t) -> p.Plan.accuracy >= dev.Cluster.accuracy_floor -. 1e-9)
            all
        in
        Array.of_list (if ok = [] then all else ok))
  in
  let rng = Es_util.Prng.create 17 in
  (* State: plan index + server per device.  Start all-local (stable). *)
  let local_index pool =
    let best = ref 0 and best_flops = ref infinity in
    Array.iteri
      (fun i (p : Plan.t) ->
        if Plan.is_device_only p && Plan.dev_flops p < !best_flops then begin
          best := i;
          best_flops := Plan.dev_flops p
        end)
      pool;
    !best
  in
  let plan_idx = Array.mapi (fun i _ -> local_index pools.(i)) pools in
  let assignment = Array.make nd 0 in
  let evaluated = ref 0 in
  let score () =
    incr evaluated;
    let plans = Array.mapi (fun i idx -> pools.(i).(idx)) plan_idx in
    match Es_joint.Optimizer.best_allocation cluster ~assignment ~plans with
    | Some ds ->
        (* Queueing-unstable states stay comparable (the initial all-local
           state can be unstable on very weak devices) but are penalized
           out of any feasible region. *)
        let penalty =
          if Array.for_all (Es_edge.Latency.device_stable cluster) ds then 0.0 else 50.0
        in
        Some (Es_joint.Objective.of_decisions cluster ds +. penalty, ds)
    | None -> None
  in
  let current = ref (match score () with Some s -> s | None -> assert false) in
  let best = ref !current in
  let temp = ref 1.0 in
  for _ = 1 to iterations do
    let device = Es_util.Prng.int rng nd in
    let mutate_plan = ns <= 1 || Es_util.Prng.bool rng in
    let saved_plan = plan_idx.(device) and saved_srv = assignment.(device) in
    if mutate_plan then plan_idx.(device) <- Es_util.Prng.int rng (Array.length pools.(device))
    else assignment.(device) <- Es_util.Prng.int rng ns;
    (match score () with
    | None ->
        plan_idx.(device) <- saved_plan;
        assignment.(device) <- saved_srv
    | Some ((obj, _) as state) ->
        let cur_obj = fst !current in
        let accept =
          obj <= cur_obj
          || Es_util.Prng.float rng 1.0 < exp ((cur_obj -. obj) /. Float.max !temp 1e-9)
        in
        if accept then begin
          current := state;
          if obj < fst !best then best := state
        end
        else begin
          plan_idx.(device) <- saved_plan;
          assignment.(device) <- saved_srv
        end);
    temp := !temp *. 0.995
  done;
  let objective, decisions = !best in
  {
    decisions;
    objective;
    evaluated = !evaluated;
    solve_time_s = Es_obs.Obs.wall_clock () -. t0;
  }
