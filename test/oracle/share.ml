(* [Es_alloc.Share]'s rules over closures and [Array.map]. *)

open Es_alloc.Minmax

let cap_and_redistribute ~budget raw caps =
  let n = Array.length raw in
  let grant = Array.make n 0.0 in
  let remaining = ref budget in
  let active = Array.map (fun r -> r > 0.0) raw in
  for _ = 1 to 3 do
    let total_raw = ref 0.0 in
    Array.iteri
      (fun i r -> if active.(i) && grant.(i) < caps.(i) then total_raw := !total_raw +. r)
      raw;
    if !total_raw > 0.0 && !remaining > 1e-9 then begin
      let budget_now = !remaining in
      Array.iteri
        (fun i r ->
          if active.(i) && grant.(i) < caps.(i) then begin
            let add = budget_now *. r /. !total_raw in
            let newg = Float.min caps.(i) (grant.(i) +. add) in
            remaining := !remaining -. (newg -. grant.(i));
            grant.(i) <- newg
          end)
        raw
    end
  done;
  grant

let build_grants ~bandwidth_bps items bw_demand share_demand =
  let items = Array.of_list items in
  let n = Array.length items in
  let bw_raw = Array.map bw_demand items in
  let caps = Array.map (fun it -> it.peak_bps) items in
  let bws = cap_and_redistribute ~budget:bandwidth_bps bw_raw caps in
  let share_raw = Array.map share_demand items in
  let share_total = Array.fold_left ( +. ) 0.0 share_raw in
  List.init n (fun i ->
      let share = if share_total > 0.0 then share_raw.(i) /. share_total else 0.0 in
      ( items.(i).key,
        { bandwidth_bps = bws.(i); compute_share = share } ))

let equal ~bandwidth_bps items =
  build_grants ~bandwidth_bps items
    (fun it -> if it.bits > 0.0 then 1.0 else 0.0)
    (fun it -> if it.work_s > 0.0 then 1.0 else 0.0)

let proportional ~bandwidth_bps items =
  build_grants ~bandwidth_bps items (fun it -> it.bits) (fun it -> it.work_s)

let sqrt_rule ?(weights = fun it -> it.rate) ~bandwidth_bps items =
  build_grants ~bandwidth_bps items
    (fun it -> sqrt (Float.max 0.0 (weights it) *. it.bits))
    (fun it -> sqrt (Float.max 0.0 (weights it) *. it.work_s))
