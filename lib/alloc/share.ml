(* es_lint: hot *)
open Minmax

(* Proportional allocation with per-item caps: clip, then hand the excess
   to unclipped items; three passes make the residual negligible.  An item
   is active iff its raw demand is positive, so the check is inlined rather
   than materialized.  Operates in place on caller-owned arrays (scratch on
   the solver path), touching indices [0..n-1] in order — float op order
   matches the original [Array.iteri] passes exactly. *)
let cap_and_redistribute_into ~budget ~n raw caps grant =
  Array.fill grant 0 n 0.0;
  let remaining = ref budget in
  for _ = 1 to 3 do
    let total_raw = ref 0.0 in
    for i = 0 to n - 1 do
      if raw.(i) > 0.0 && grant.(i) < caps.(i) then total_raw := !total_raw +. raw.(i)
    done;
    if !total_raw > 0.0 && !remaining > 1e-9 then begin
      let budget_now = !remaining in
      for i = 0 to n - 1 do
        if raw.(i) > 0.0 && grant.(i) < caps.(i) then begin
          let add = budget_now *. raw.(i) /. !total_raw in
          let newg = Float.min caps.(i) (grant.(i) +. add) in
          remaining := !remaining -. (newg -. grant.(i));
          grant.(i) <- newg
        end
      done
    end
  done

(* Demand models, as top-level functions so rule application constructs no
   closures.  [`Unit`]-demand for the equal split, raw demand for the
   proportional split, √(weight·demand) for the square-root rule. *)
let bw_demand_equal it = if it.bits > 0.0 then 1.0 else 0.0
let share_demand_equal it = if it.work_s > 0.0 then 1.0 else 0.0
let bw_demand_prop it = it.bits
let share_demand_prop it = it.work_s
let bw_demand_sqrt it = sqrt (Float.max 0.0 it.rate *. it.bits)
let share_demand_sqrt it = sqrt (Float.max 0.0 it.rate *. it.work_s)

let build_grants ~bandwidth_bps items bw_demand share_demand =
  let items = Array.of_list items in
  let n = Array.length items in
  let bw_raw = Es_util.Scratch.borrow_floats n in
  let caps = Es_util.Scratch.borrow_floats n in
  let bws = Es_util.Scratch.borrow_floats n in
  let share_raw = Es_util.Scratch.borrow_floats n in
  for i = 0 to n - 1 do
    bw_raw.(i) <- bw_demand items.(i);
    caps.(i) <- items.(i).peak_bps;
    share_raw.(i) <- share_demand items.(i)
  done;
  cap_and_redistribute_into ~budget:bandwidth_bps ~n bw_raw caps bws;
  let share_total = ref 0.0 in
  for i = 0 to n - 1 do
    share_total := !share_total +. share_raw.(i)
  done;
  let share_total = !share_total in
  let grants =
    (* es_lint: cold — the keyed grant list is the API's output shape *)
    List.init n (fun i ->
        let share = if share_total > 0.0 then share_raw.(i) /. share_total else 0.0 in
        ( items.(i).key,
          { bandwidth_bps = bws.(i); compute_share = share } ))
  in
  Es_util.Scratch.release_floats share_raw;
  Es_util.Scratch.release_floats bws;
  Es_util.Scratch.release_floats caps;
  Es_util.Scratch.release_floats bw_raw;
  grants

let equal ~bandwidth_bps items =
  build_grants ~bandwidth_bps items bw_demand_equal share_demand_equal

let proportional ~bandwidth_bps items =
  build_grants ~bandwidth_bps items bw_demand_prop share_demand_prop

let sqrt_rule ~bandwidth_bps items =
  build_grants ~bandwidth_bps items bw_demand_sqrt share_demand_sqrt
