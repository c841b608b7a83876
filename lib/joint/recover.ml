open Es_edge

type t = {
  cluster : Cluster.t;
  config : Optimizer.config;
  solver : Optimizer.solver option;
  baseline : Decision.t array;
  fallbacks : Decision.t array array;
}

let solve_without ?(config = Optimizer.default_config) ?solver ?warm_start cluster ~failed =
  let ns = Cluster.n_servers cluster in
  List.iter
    (fun s ->
      if s < 0 || s >= ns then
        invalid_arg (Printf.sprintf "Recover.solve_without: server %d out of range" s))
    failed;
  let keep =
    List.filter (fun s -> not (List.mem s failed)) (List.init ns Fun.id)
  in
  if keep = [] then Es_sim.Overload.local_decisions cluster
  else begin
    (* Re-solve the residual problem on the surviving servers.  Cluster.make
       re-numbers server ids to positions, so map the reduced indices back
       to the original cluster's. *)
    let orig_of_new = Array.of_list keep in
    let new_of_orig = Array.make ns (-1) in
    Array.iteri (fun n o -> new_of_orig.(o) <- n) orig_of_new;
    let residual =
      Cluster.make
        ~devices:(Array.to_list cluster.Cluster.devices)
        ~servers:(List.map (fun s -> cluster.Cluster.servers.(s)) keep)
    in
    (* Re-index a warm incumbent into the residual numbering.  A device on
       a failed server keeps its plan but gets server -1 — the optimizer's
       warm-start repair marks exactly that shape for reassignment. *)
    let warm_start =
      Option.map
        (Array.map (fun (d : Decision.t) ->
             let s = d.Decision.server in
             let s' = if s >= 0 && s < ns then new_of_orig.(s) else -1 in
             { d with Decision.server = s' }))
        warm_start
    in
    let out =
      match solver with
      | Some (f : Optimizer.solver) -> f ~warm:warm_start residual
      | None -> Optimizer.solve ~config ?warm_start residual
    in
    Array.map
      (fun (d : Decision.t) ->
        if Decision.offloads d then { d with Decision.server = orig_of_new.(d.Decision.server) }
        else d)
      out.Optimizer.decisions
  end

let precompute ?(config = Optimizer.default_config) ?solver ?(jobs = 0) ?baseline cluster =
  let ns = Cluster.n_servers cluster in
  (* The healthy-cluster baseline seeds every failure domain: losing one
     server perturbs only that server's devices, so the survivors' plans
     and placements are a near-optimal starting trajectory. *)
  let baseline =
    match baseline with
    | Some ds when Array.length ds = Cluster.n_devices cluster -> ds
    | Some _ | None -> (
        match solver with
        | Some (f : Optimizer.solver) -> (f ~warm:None cluster).Optimizer.decisions
        | None -> (Optimizer.solve ~config cluster).Optimizer.decisions)
  in
  let fallbacks =
    Es_util.Par.parallel_map_array ~jobs
      (fun s -> solve_without ~config ?solver ~warm_start:baseline cluster ~failed:[ s ])
      (Array.init ns Fun.id)
  in
  { cluster; config; solver; baseline; fallbacks }

let baseline t = t.baseline

let fallback t ~server =
  if server < 0 || server >= Array.length t.fallbacks then
    invalid_arg (Printf.sprintf "Recover.fallback: server %d out of range" server);
  t.fallbacks.(server)

let decisions_for t ~decisions down =
  match down with
  | [] -> decisions
  | [ s ] -> t.fallbacks.(s)
  | many -> solve_without ~config:t.config ?solver:t.solver ~warm_start:t.baseline t.cluster ~failed:many

(* The failure-detection delay between a change to the down set and the
   reconfiguration that answers it. *)
let detect_s = 1.0

let schedule_for_faults t ~decisions faults =
  let down = ref [] in
  let entries = ref [] in
  List.iter
    (fun (tau, ev) ->
      let changed =
        match ev with
        | Es_sim.Faults.Server_down s when not (List.mem s !down) ->
            down := List.sort Int.compare (s :: !down);
            true
        | Es_sim.Faults.Server_up s when List.mem s !down ->
            down := List.filter (fun x -> x <> s) !down;
            true
        | _ -> false
      in
      if changed then entries := (tau +. detect_s, decisions_for t ~decisions !down) :: !entries)
    (Es_sim.Faults.events faults);
  List.rev !entries
