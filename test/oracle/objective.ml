(* [Es_joint.Objective] as folds, over the {!Latency} oracle. *)

module Cluster = Es_edge.Cluster
module Decision = Es_edge.Decision

let misses cluster decisions =
  Array.fold_left
    (fun acc d -> if Es_edge.Latency.meets_deadline cluster d then acc else acc + 1)
    0 decisions

let mm1_misses cluster decisions =
  Array.fold_left
    (fun acc (d : Decision.t) ->
      let dev = cluster.Cluster.devices.(d.Decision.device) in
      if Es_edge.Latency.mm1_estimate cluster d <= dev.Cluster.deadline +. 1e-12 then acc
      else acc + 1)
    0 decisions

let of_decisions cluster decisions =
  let n = Array.length decisions in
  if n = 0 then 0.0
  else begin
    let miss = ref 0 and norm = ref 0.0 in
    Array.iter
      (fun (d : Decision.t) ->
        let dev = cluster.Cluster.devices.(d.Decision.device) in
        let ratio = Latency.of_decision cluster d /. dev.Cluster.deadline in
        if ratio > 1.0 +. 1e-9 then incr miss;
        norm := !norm +. Float.min ratio Es_joint.Objective.latency_cap)
      decisions;
    float_of_int !miss +. (!norm /. float_of_int n)
  end
