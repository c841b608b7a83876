let default_widths = [ 1.0; 0.75; 0.5 ]

let exit_nodes g =
  List.map (fun id -> Some id) (Es_dnn.Graph.exit_candidate_ids g) @ [ None ]

let default_precisions = [ Precision.Fp32; Precision.Int8 ]

let generate ?(widths = default_widths) ?exits ?(precisions = default_precisions) g =
  let exits = match exits with Some e -> e | None -> exit_nodes g in
  List.concat_map
    (fun exit_node ->
      List.concat_map
        (fun width ->
          List.concat_map
            (fun precision ->
              let base_plan = Plan.make ~width ?exit_node ~precision g in
              let n = Es_dnn.Graph.n_nodes base_plan.Plan.graph in
              List.init (n + 1) (fun cut -> Plan.with_cut base_plan cut))
            precisions)
        widths)
    exits

let plan_key (p : Plan.t) =
  (* Effective compute (FLOPs divided by the precision's throughput gain)
     rather than raw FLOPs, so faster-precision plans are comparable. *)
  let scale = Precision.compute_scale p.Plan.precision in
  [| Plan.dev_flops p /. scale; Plan.transfer_bytes p; Plan.srv_flops p /. scale;
     -.p.Plan.accuracy |]

let pareto plans = Es_util.Pareto.frontier plan_key plans

(* Candidate sets are queried once per model per experiment but reused
   across devices, trajectories and sweep points. *)
let cache : (int64, Plan.t list) Es_util.Once.t = Es_util.Once.create ()

(* Keyed by name *and* a structural fingerprint, so distinct user models
   sharing a name don't collide, while fresh instances of the same zoo
   architecture (one per Scenario.build) still share candidates.  Widths
   hash by their exact bits. *)
let cache_key g widths exits precisions =
  let h = Es_util.Fnv.create () in
  Es_util.Fnv.add_string h g.Es_dnn.Graph.name;
  Es_util.Fnv.add_int h (Es_dnn.Graph.n_nodes g);
  Es_util.Fnv.add_float h (Es_dnn.Graph.total_flops g);
  Es_util.Fnv.add_int h (List.length widths);
  List.iter (Es_util.Fnv.add_float h) widths;
  Es_util.Fnv.add_int h (List.length exits);
  List.iter (fun e -> Es_util.Fnv.add_int h (Option.value e ~default:(-1))) exits;
  Es_util.Fnv.add_int h (List.length precisions);
  List.iter (fun p -> Es_util.Fnv.add_string h (Precision.name p)) precisions;
  Es_util.Fnv.value h

let pareto_candidates ?(widths = default_widths) ?exits ?(precisions = default_precisions) g =
  let exits = match exits with Some e -> e | None -> exit_nodes g in
  Es_util.Once.find_or_build cache (cache_key g widths exits precisions) (fun () ->
      pareto (generate ~widths ~exits ~precisions g))

let clear_cache () = Es_util.Once.clear cache

let subsample k plans =
  if k <= 0 then invalid_arg "Candidate.subsample: k must be positive";
  let arr = Array.of_list plans in
  let n = Array.length arr in
  if n <= k then plans
  else if k = 1 then [ arr.(0) ]
  else List.init k (fun i -> arr.(i * (n - 1) / (k - 1)))
