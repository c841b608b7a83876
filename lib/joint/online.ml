open Es_edge

type result = {
  report : Es_sim.Metrics.report;
  schedule : (float * Decision.t array) list;
  resolve_count : int;
  resolve_rejected : int;
  cache_hits : int;
}

let scale_rates cluster m =
  if not (m > 0.0 && Float.is_finite m) then
    invalid_arg "Online.scale_rates: multiplier must be positive and finite";
  {
    cluster with
    Cluster.devices =
      Array.map
        (fun (d : Cluster.device) ->
          let rate = d.Cluster.rate *. m in
          (* a finite multiplier can still overflow or underflow a rate *)
          if not (rate > 0.0 && Float.is_finite rate) then
            invalid_arg "Online.scale_rates: a scaled rate is not positive and finite";
          { d with Cluster.rate })
        cluster.Cluster.devices;
  }

let epochs_of ~epoch_s ~duration_s =
  let rec go acc t = if t >= duration_s then List.rev acc else go (t :: acc) (t +. epoch_s) in
  go [] 0.0

let run ?(options = Es_sim.Runner.default_options) ?cache ?solver ?(warm_start = true) ~epoch_s
    ~rate_profile cluster =
  let duration_s = options.Es_sim.Runner.duration_s in
  (* a NaN epoch or horizon would never end the epoch list *)
  if Float.is_nan duration_s then invalid_arg "Online.run: NaN duration_s";
  if not (epoch_s > 0.0) then invalid_arg "Online.run: non-positive epoch";
  let arrivals =
    Es_workload.Heavy.trace ~seed:options.Es_sim.Runner.seed ~duration_s ~profile:rate_profile
      cluster
  in
  (* A fresh solve the runner would refuse can never replace a working
     decision set.  The runner's check is deliberately weaker than
     [Decision.validate]: a force-feasible solve may legitimately trade
     away accuracy floors. *)
  let runnable ds = Result.is_ok (Es_sim.Runner.check_decisions cluster ds) in
  let rejected = ref 0 in
  let prev = ref None in
  let hits0 =
    match cache with None -> 0 | Some sc -> (Solve_cache.stats sc).Solve_cache.hits
  in
  let schedule =
    List.map
      (fun t ->
        let load = Float.max 1e-9 (rate_profile t) in
        let scaled = scale_rates cluster load in
        (* Warm-start from the incumbent (the previous epoch's applied
           decisions); consult the solve cache when a load level recurs. *)
        let warm = if warm_start then !prev else None in
        let out =
          match solver with
          | Some (f : Optimizer.solver) -> f ~warm scaled
          | None -> (
              match cache with
              | Some sc -> Solve_cache.solve sc ?warm_start:warm scaled
              | None -> Optimizer.solve ?warm_start:warm scaled)
        in
        let cand = out.Optimizer.decisions in
        (* Guard the re-solve: keep the previous decisions when the fresh
           solve is malformed or strictly worse under the current load than
           simply not moving. *)
        let chosen =
          match !prev with
          | None -> cand
          | Some p ->
              if
                runnable cand
                && Objective.of_decisions scaled cand
                   <= Objective.of_decisions scaled p +. 1e-9
              then cand
              else begin
                incr rejected;
                p
              end
        in
        prev := Some chosen;
        (t, chosen))
      (epochs_of ~epoch_s ~duration_s)
  in
  match schedule with
  | [] -> invalid_arg "Online.run: empty schedule"
  | (_, initial) :: rest ->
      let report =
        Es_sim.Runner.run ~options ~arrivals ~reconfigure:rest cluster initial
      in
      let cache_hits =
        match cache with
        | None -> 0
        | Some sc -> (Solve_cache.stats sc).Solve_cache.hits - hits0
      in
      {
        report;
        schedule;
        resolve_count = List.length schedule;
        resolve_rejected = !rejected;
        cache_hits;
      }

let run_static ?(options = Es_sim.Runner.default_options) ~rate_profile cluster =
  run ~options ~epoch_s:options.Es_sim.Runner.duration_s ~rate_profile cluster
