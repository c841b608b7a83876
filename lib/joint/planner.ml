open Es_edge

type verdict = {
  required : float;
  feasible : bool;
  solves : int;
  witness : Decision.t array option;
}

(* Queueing-aware zero-miss test: the analytic latency alone would declare
   arbitrarily high loads feasible (it has no congestion term).  Returns the
   solved decision set alongside the verdict so the bisection can thread it
   into the next trial as a warm start. *)
let zero_miss ?config ?warm_start cluster =
  let out = Optimizer.solve ?config ?warm_start cluster in
  (Objective.mm1_misses cluster out.Optimizer.decisions = 0, out.Optimizer.decisions)

(* Warm-start threading for geometric bisection: each trial is seeded from
   the nearer (in log space — the bisection's own metric) bracket endpoint's
   solution, the low endpoint winning the exact tie at the geometric mean.
   [ok] receives the trial point and the chosen seed. *)
type 'a bracket = { point : float; solution : 'a option }

let nearer_seed lo hi mid =
  if log mid -. log lo.point <= log hi.point -. log mid then lo.solution else hi.solution

(* Find the smallest x in [lo, hi] with ok x (monotone), to ~2% relative
   tolerance; counts evaluations. *)
let bisect_min ~lo ~hi ok =
  let solves = ref 0 in
  let eval ?warm x =
    incr solves;
    ok ?warm x
  in
  let ok_lo, sol_lo = eval lo in
  if ok_lo then { required = lo; feasible = true; solves = !solves; witness = Some sol_lo }
  else begin
    let ok_hi, sol_hi = eval ~warm:sol_lo hi in
    if not ok_hi then
      { required = hi; feasible = false; solves = !solves; witness = None }
    else begin
      let lo = ref { point = lo; solution = Some sol_lo } in
      let hi = ref { point = hi; solution = Some sol_hi } in
      while !hi.point /. !lo.point > 1.02 do
        let mid = sqrt (!lo.point *. !hi.point) in
        let ok_mid, sol = eval ?warm:(nearer_seed !lo !hi mid) mid in
        let bracket = { point = mid; solution = Some sol } in
        if ok_mid then hi := bracket else lo := bracket
      done;
      { required = !hi.point; feasible = true; solves = !solves; witness = !hi.solution }
    end
  end

(* The dual direction: the largest x with ok x. *)
let bisect_max ~lo ~hi ok =
  let solves = ref 0 in
  let eval ?warm x =
    incr solves;
    ok ?warm x
  in
  let ok_lo, sol_lo = eval lo in
  if not ok_lo then { required = lo; feasible = false; solves = !solves; witness = None }
  else begin
    let ok_hi, sol_hi = eval ~warm:sol_lo hi in
    if ok_hi then
      { required = hi; feasible = true; solves = !solves; witness = Some sol_hi }
    else begin
      let lo = ref { point = lo; solution = Some sol_lo } in
      let hi = ref { point = hi; solution = Some sol_hi } in
      while !hi.point /. !lo.point > 1.02 do
        let mid = sqrt (!lo.point *. !hi.point) in
        let ok_mid, sol = eval ?warm:(nearer_seed !lo !hi mid) mid in
        let bracket = { point = mid; solution = Some sol } in
        if ok_mid then lo := bracket else hi := bracket
      done;
      { required = !lo.point; feasible = true; solves = !solves; witness = !lo.solution }
    end
  end

let required_bandwidth_mbps ?config spec =
  bisect_min ~lo:5.0 ~hi:2000.0 (fun ?warm mbps ->
      zero_miss ?config ?warm_start:warm
        (Scenario.build (Scenario.with_ap_mbps mbps spec)))

let max_supported_load ?config ?(hi = 32.0) spec =
  let base = Scenario.build spec in
  bisect_max ~lo:0.05 ~hi (fun ?warm m ->
      zero_miss ?config ?warm_start:warm (Online.scale_rates base m))
