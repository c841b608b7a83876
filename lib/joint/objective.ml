(* es_lint: hot *)
open Es_edge

let latency_cap = 10.0
let infeasible = 1e18

let misses cluster decisions =
  let miss = ref 0 in
  for i = 0 to Array.length decisions - 1 do
    if not (Latency.meets_deadline cluster decisions.(i)) then incr miss
  done;
  !miss

let mm1_misses cluster decisions =
  let miss = ref 0 in
  for i = 0 to Array.length decisions - 1 do
    let d = decisions.(i) in
    let dev = cluster.Cluster.devices.(d.Decision.device) in
    if not (Latency.mm1_estimate cluster d <= dev.Cluster.deadline +. 1e-12) then incr miss
  done;
  !miss

let of_decisions cluster decisions =
  let n = Array.length decisions in
  if n = 0 then 0.0
  else begin
    let miss = ref 0 and norm = ref 0.0 in
    for i = 0 to n - 1 do
      let d = decisions.(i) in
      let dev = cluster.Cluster.devices.(d.Decision.device) in
      let ratio = Latency.of_decision cluster d /. dev.Cluster.deadline in
      if ratio > 1.0 +. 1e-9 then incr miss;
      norm := !norm +. Float.min ratio latency_cap
    done;
    float_of_int !miss +. (!norm /. float_of_int n)
  end
