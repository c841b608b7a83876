(* [Es_alloc.Minmax.solve] with per-θ-probe bounds records, options and
   closures. *)

open Es_alloc.Minmax

(* Per-item transfer-time bounds at a trial θ.  [u] is the per-request
   transfer time; the server time is s = R − u. *)
type split_bounds = { item : item; slack : float; u_lo : float; u_hi : float }

let margin_time margin it = margin /. it.rate

let bounds_at margin theta it =
  let slack = (theta *. it.deadline_s) -. it.fixed_s in
  if slack <= 0.0 then None
  else begin
    let mt = margin_time margin it in
    if it.bits = 0.0 && it.work_s = 0.0 then
      Some { item = it; slack; u_lo = 0.0; u_hi = 0.0 }
    else if it.bits = 0.0 then begin
      (* Compute-only: the whole slack (capped by stability) is server time. *)
      if it.work_s <= Float.min slack mt then Some { item = it; slack; u_lo = 0.0; u_hi = 0.0 }
      else None
    end
    else if it.work_s = 0.0 then begin
      let u = Float.min slack mt in
      let u_min = it.bits /. it.peak_bps in
      if u_min <= u then Some { item = it; slack; u_lo = u; u_hi = u } else None
    end
    else begin
      let u_lo = Float.max (it.bits /. it.peak_bps) (slack -. mt) in
      let u_hi = Float.min (slack -. it.work_s) mt in
      if u_lo <= u_hi && u_lo > 0.0 then Some { item = it; slack; u_lo; u_hi } else None
    end
  end

(* KKT split for multiplier mu, clamped to the per-item bounds. *)
let split_at mu b bounds =
  let it = bounds.item in
  if it.bits = 0.0 then 0.0
  else if it.work_s = 0.0 then bounds.u_hi
  else begin
    let u = bounds.slack /. (1.0 +. sqrt (mu *. b *. it.work_s /. it.bits)) in
    Es_util.Numeric.clamp ~lo:bounds.u_lo ~hi:bounds.u_hi u
  end

let fill_splits mu b all_bounds us =
  for i = 0 to Array.length all_bounds - 1 do
    us.(i) <- split_at mu b all_bounds.(i)
  done

let loads margin b all_bounds us =
  let f = ref 0.0 and g = ref 0.0 in
  for i = 0 to Array.length all_bounds - 1 do
    let bounds = all_bounds.(i) in
    let u = us.(i) in
    let it = bounds.item in
    if it.bits > 0.0 then f := !f +. (it.bits /. u /. b);
    if it.work_s > 0.0 then begin
      let s =
        if it.bits = 0.0 then Float.min bounds.slack (margin_time margin it)
        else bounds.slack -. u
      in
      g := !g +. (it.work_s /. s)
    end
  done;
  (!f, !g)

(* Minimum of max(bandwidth load, compute load) over the splits; convex, the
   optimum is at the f = g crossing of the KKT path (or at a clamp end). *)
let best_loadmax margin b all_bounds =
  let us = Array.make (Array.length all_bounds) 0.0 in
  let eval mu =
    fill_splits mu b all_bounds us;
    let f, g = loads margin b all_bounds us in
    (Float.max f g, us)
  in
  let lo = ref 1e-12 and hi = ref 1e12 in
  (* f − g is increasing in mu; find the sign change. *)
  let fg mu =
    fill_splits mu b all_bounds us;
    let f, g = loads margin b all_bounds us in
    f -. g
  in
  if fg !lo >= 0.0 then eval !lo
  else if fg !hi <= 0.0 then eval !hi
  else begin
    for _ = 1 to 60 do
      let mid = sqrt (!lo *. !hi) in
      if fg mid < 0.0 then lo := mid else hi := mid
    done;
    eval !hi
  end

exception Infeasible_theta

let feasible_at margin b items theta =
  match
    Array.map
      (fun it ->
        match bounds_at margin theta it with
        | Some bnd -> bnd
        | None -> raise Infeasible_theta)
      items
  with
  | exception Infeasible_theta -> None
  | all_bounds ->
      let loadmax, us = best_loadmax margin b all_bounds in
      if loadmax <= 1.0 +. 1e-9 then Some (all_bounds, us) else None

(* Redistribute leftover capacity proportionally, respecting per-item caps;
   a few clip passes suffice. *)
let scale_up_bandwidth b grants peaks =
  let grants = Array.copy grants in
  for _ = 1 to 3 do
    let used = Array.fold_left ( +. ) 0.0 grants in
    let spare = b -. used in
    if spare > 1e-6 then begin
      let expandable = ref 0.0 in
      Array.iteri (fun i g -> if g > 0.0 && g < peaks.(i) then expandable := !expandable +. g) grants;
      if !expandable > 0.0 then
        Array.iteri
          (fun i g ->
            if g > 0.0 && g < peaks.(i) then
              grants.(i) <- Float.min peaks.(i) (g +. (spare *. g /. !expandable)))
          grants
    end
  done;
  grants

let scale_up_shares shares =
  let used = Array.fold_left ( +. ) 0.0 shares in
  if used > 0.0 && used < 1.0 then
    Array.map (fun s -> if s > 0.0 then Float.min 1.0 (s /. used) else 0.0) shares
  else shares

let solve ?(stability_margin = 0.95) ?(tol = 1e-3) ~bandwidth_bps items =
  if bandwidth_bps <= 0.0 then invalid_arg "Minmax.solve: non-positive bandwidth";
  if items = [] then Some { theta = 0.0; grants = [] }
  else begin
    let items = Array.of_list items in
    (* Sustained-load prechecks: no θ is feasible when offered load exceeds
       capacity. *)
    let bit_load = ref 0.0 and work_load = ref 0.0 in
    Array.iter
      (fun it ->
        bit_load := !bit_load +. (it.rate *. it.bits);
        work_load := !work_load +. (it.rate *. it.work_s))
      items;
    let peak_ok =
      Array.for_all
        (fun it -> it.bits = 0.0 || it.rate *. it.bits /. it.peak_bps <= stability_margin)
        items
    in
    if
      !bit_load > stability_margin *. bandwidth_bps
      || !work_load > stability_margin || not peak_ok
    then None
    else begin
      let feasible = feasible_at stability_margin bandwidth_bps items in
      let theta_lo =
        Array.fold_left (fun acc it -> Float.max acc (it.fixed_s /. it.deadline_s)) 0.0 items
      in
      (* Grow an upper bracket. *)
      let rec grow theta n =
        if n > 64 then None
        else
          match feasible theta with
          | Some _ -> Some theta
          | None -> grow (theta *. 2.0) (n + 1)
      in
      match grow (Float.max 1.0 (theta_lo +. 1e-6)) 0 with
      | None -> None
      | Some hi0 ->
          let lo = ref theta_lo and hi = ref hi0 in
          while !hi -. !lo > tol *. Float.max 1.0 !hi do
            let mid = 0.5 *. (!lo +. !hi) in
            match feasible mid with Some _ -> hi := mid | None -> lo := mid
          done;
          (match feasible !hi with
          | None -> None (* numerically impossible, but keep total *)
          | Some (all_bounds, us) ->
              let n = Array.length all_bounds in
              let bws = Array.make n 0.0 in
              let peaks = Array.make n 0.0 in
              let shares = Array.make n 0.0 in
              Array.iteri
                (fun i bounds ->
                  let it = bounds.item in
                  let u = us.(i) in
                  peaks.(i) <- it.peak_bps;
                  if it.bits > 0.0 then bws.(i) <- it.bits /. u;
                  if it.work_s > 0.0 then begin
                    let s =
                      if it.bits = 0.0 then
                        Float.min bounds.slack (margin_time stability_margin it)
                      else bounds.slack -. u
                    in
                    shares.(i) <- it.work_s /. s
                  end)
                all_bounds;
              let bws = scale_up_bandwidth bandwidth_bps bws peaks in
              let shares = scale_up_shares shares in
              let grants =
                List.init n (fun i ->
                    ( all_bounds.(i).item.key,
                      { bandwidth_bps = bws.(i); compute_share = shares.(i) } ))
              in
              Some { theta = !hi; grants })
    end
  end
