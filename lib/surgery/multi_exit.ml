type t = {
  base : Es_dnn.Graph.t;
  exits : Plan.t array;
  probs : float array;
  deployment_accuracy : float;
}

let build ?(kappa = 2.0) ?width g =
  let ids = Es_dnn.Graph.exit_candidate_ids g in
  let plans =
    List.map (fun id -> Plan.make ?width ~exit_node:id g) ids @ [ Plan.make ?width g ]
  in
  let exits = Array.of_list plans in
  let accuracies = Array.map (fun (p : Plan.t) -> p.Plan.accuracy) exits in
  let probs = Accuracy.exit_distribution ~kappa accuracies in
  let deployment_accuracy = Accuracy.expected_accuracy probs accuracies in
  { base = g; exits; probs; deployment_accuracy }

let sample_exit rng t =
  let pairs = Array.mapi (fun i p -> (i, p)) t.probs in
  Es_util.Prng.weighted_choice rng pairs

let expected_flops t =
  let total = ref 0.0 in
  Array.iteri
    (fun i (p : Plan.t) ->
      total := !total +. (t.probs.(i) *. Es_dnn.Graph.total_flops p.Plan.graph))
    t.exits;
  !total
