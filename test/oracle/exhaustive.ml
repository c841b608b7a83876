(* Exhaustive joint solver for the optimality-gap measurements (experiment
   T2 and its tier-1 property).  Enumerates every device->server assignment
   and every combination of surgery candidates, each device's Pareto
   frontier subsampled to [max_candidates_per_device] (default 6) plans,
   and scores each configuration through the production allocation step
   [Es_joint.Optimizer.best_allocation] and [Es_joint.Objective], so the
   returned objective is the true optimum over the searched plan grid.

   Exponential: [solve] raises [Invalid_argument] when an instance exceeds
   2e6 combinations; use [Es_joint.Optimizer] there.  [decisions] is [None]
   (and [objective] [Es_joint.Objective.infeasible]) when nothing is
   stable. *)

open Es_edge
open Es_surgery

type output = {
  decisions : Decision.t array option;
  objective : float;
  combinations : int;
  solve_time_s : float;
}

let solve ?(max_candidates_per_device = 6) cluster =
  let t0 = Es_obs.Obs.wall_clock () in
  let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
  (* Subsample the Pareto frontier exactly the way the heuristic does
     (subsample first, then the accuracy filter), so that with the same cap
     the heuristic's plan grid is a subset of the exhaustive one and the
     measured optimality gap is meaningful. *)
  let cands =
    Array.init nd (fun i ->
        let dev = cluster.Cluster.devices.(i) in
        let all = Candidate.pareto_candidates dev.Cluster.model in
        let sub = Candidate.subsample max_candidates_per_device all in
        let acc_ok =
          List.filter
            (fun (p : Plan.t) -> p.Plan.accuracy >= dev.Cluster.accuracy_floor -. 1e-9)
            sub
        in
        let pool = if acc_ok = [] then sub else acc_ok in
        Array.of_list pool)
  in
  let total =
    Array.fold_left
      (fun acc c -> acc *. float_of_int (Array.length c) *. float_of_int ns)
      1.0 cands
  in
  if total > 2e6 then
    invalid_arg
      (Printf.sprintf "Exhaustive.solve: %.0f combinations exceed the 2e6 cap" total);
  let assignment = Array.make nd 0 and choice = Array.make nd 0 in
  let best_obj = ref Es_joint.Objective.infeasible in
  let best_ds = ref None in
  let combos = ref 0 in
  let rec enumerate device =
    if device = nd then begin
      incr combos;
      let plans = Array.init nd (fun i -> cands.(i).(choice.(i))) in
      match Es_joint.Optimizer.best_allocation cluster ~assignment ~plans with
      | None -> ()
      | Some ds ->
          let obj = Es_joint.Objective.of_decisions cluster ds in
          if obj < !best_obj then begin
            best_obj := obj;
            best_ds := Some ds
          end
    end
    else
      for c = 0 to Array.length cands.(device) - 1 do
        choice.(device) <- c;
        let plan = cands.(device).(c) in
        if Plan.is_device_only plan then begin
          (* The server choice is inert for local plans: fix it to 0. *)
          assignment.(device) <- 0;
          enumerate (device + 1)
        end
        else
          for s = 0 to ns - 1 do
            assignment.(device) <- s;
            enumerate (device + 1)
          done
      done
  in
  enumerate 0;
  {
    decisions = !best_ds;
    objective = !best_obj;
    combinations = !combos;
    solve_time_s = Es_obs.Obs.wall_clock () -. t0;
  }
