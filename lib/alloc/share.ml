(* es_lint: hot *)
open Minmax

(* Proportional allocation with per-item caps: clip, then hand the excess
   to unclipped items; three passes make the residual negligible.  An item
   is active iff its raw demand is positive, so the check is inlined rather
   than materialized.  Operates in place on scratch arrays, touching indices
   [0..n-1] in order — float op order matches the original [Array.iteri]
   passes exactly. *)
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

(* Demand models: unit demand for the equal split, raw demand for the
   proportional split, √(rate·demand) for the square-root rule.  Matched
   inside the loop rather than passed as functions, so no float crosses a
   call. *)
type demand = Unit | Raw | Sqrt

type rule =
  bandwidth_bps:float ->
  items ->
  pos:int ->
  len:int ->
  bw:float array ->
  share:float array ->
  unit

let build_grants demand ~bandwidth_bps items ~pos ~len ~bw ~share =
  let last = pos + len in
  if
    pos < 0 || len < 0
    || Array.length items.bits < last
    || Array.length items.work_s < last
    || Array.length items.peak_bps < last
    || Array.length items.rate < last
    || Array.length bw < last
    || Array.length share < last
  then invalid_arg "Share: item range outside the arrays";
  let n = len in
  let bw_raw = Es_util.Scratch.borrow_floats n in
  let caps = Es_util.Scratch.borrow_floats n in
  let bws = Es_util.Scratch.borrow_floats n in
  let share_raw = Es_util.Scratch.borrow_floats n in
  for i = 0 to n - 1 do
    let k = pos + i in
    let bits = items.bits.(k) and work = items.work_s.(k) in
    (match demand with
    | Unit ->
        bw_raw.(i) <- (if bits > 0.0 then 1.0 else 0.0);
        share_raw.(i) <- (if work > 0.0 then 1.0 else 0.0)
    | Raw ->
        bw_raw.(i) <- bits;
        share_raw.(i) <- work
    | Sqrt ->
        let rate = items.rate.(k) in
        bw_raw.(i) <- sqrt (Float.max 0.0 rate *. bits);
        share_raw.(i) <- sqrt (Float.max 0.0 rate *. work));
    caps.(i) <- items.peak_bps.(k)
  done;
  cap_and_redistribute_into ~budget:bandwidth_bps ~n bw_raw caps bws;
  let share_total = ref 0.0 in
  for i = 0 to n - 1 do
    share_total := !share_total +. share_raw.(i)
  done;
  let share_total = !share_total in
  for i = 0 to n - 1 do
    bw.(pos + i) <- bws.(i);
    share.(pos + i) <- (if share_total > 0.0 then share_raw.(i) /. share_total else 0.0)
  done;
  Es_util.Scratch.release_floats share_raw;
  Es_util.Scratch.release_floats bws;
  Es_util.Scratch.release_floats caps;
  Es_util.Scratch.release_floats bw_raw

let equal ~bandwidth_bps items ~pos ~len ~bw ~share =
  build_grants Unit ~bandwidth_bps items ~pos ~len ~bw ~share

let proportional ~bandwidth_bps items ~pos ~len ~bw ~share =
  build_grants Raw ~bandwidth_bps items ~pos ~len ~bw ~share

let sqrt_rule ~bandwidth_bps items ~pos ~len ~bw ~share =
  build_grants Sqrt ~bandwidth_bps items ~pos ~len ~bw ~share
