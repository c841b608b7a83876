(* es_lint: hot *)
type items = {
  fixed_s : float array;
  bits : float array;
  work_s : float array;
  deadline_s : float array;
  peak_bps : float array;
  rate : float array;
}

(* The bisections run over the caller's item arrays and a few scratch
   arrays indexed like them (one block borrowed per solve), with the
   per-probe state — slack and split bounds, KKT splits, induced loads —
   written in place by top-level kernels that take every array as an
   argument, so no closure is built.  Every float operation
   replicates the record-based reference solver in test/oracle/minmax.ml in
   the same order, so results are bit-identical; the steady state allocates
   nothing.  [cells] carries the cross-function scalars (f, g, μ, θ, B) so
   the kernels neither box arguments nor return floats. *)

let cell_f = 0
let cell_g = 1
let cell_mu = 2
let cell_theta = 3
let cell_b = 4
let n_cells = 5

(* Every granted stage keeps its utilization at or below this margin, the
   θ bisection stops at this relative width, and a θ probe is feasible when
   its best load max is at most [fit]. *)
let stability_margin = 0.95
let tol = 1e-3
let fit = 1.0 +. 1e-9

(* The reference's [bounds_at] over every item at θ = cells.(cell_theta);
   false as soon as one item has no admissible split. *)
let bounds_ok ~pos ~len fx bits work dl peak rate slack ulo uhi cells =
  let margin = stability_margin in
  let theta = cells.(cell_theta) in
  let ok = ref true in
  let i = ref pos in
  while !ok && !i < pos + len do
    let k = !i in
    let slack_k = (theta *. dl.(k)) -. fx.(k) in
    if slack_k <= 0.0 then ok := false
    else begin
      let mt = margin /. rate.(k) in
      if bits.(k) = 0.0 && work.(k) = 0.0 then begin
        slack.(k) <- slack_k;
        ulo.(k) <- 0.0;
        uhi.(k) <- 0.0
      end
      else if bits.(k) = 0.0 then begin
        (* Compute-only: the whole slack (capped by stability) is server
           time. *)
        if work.(k) <= Float.min slack_k mt then begin
          slack.(k) <- slack_k;
          ulo.(k) <- 0.0;
          uhi.(k) <- 0.0
        end
        else ok := false
      end
      else if work.(k) = 0.0 then begin
        let u = Float.min slack_k mt in
        let u_min = bits.(k) /. peak.(k) in
        if u_min <= u then begin
          slack.(k) <- slack_k;
          ulo.(k) <- u;
          uhi.(k) <- u
        end
        else ok := false
      end
      else begin
        let u_lo = Float.max (bits.(k) /. peak.(k)) (slack_k -. mt) in
        let u_hi = Float.min (slack_k -. work.(k)) mt in
        if u_lo <= u_hi && u_lo > 0.0 then begin
          slack.(k) <- slack_k;
          ulo.(k) <- u_lo;
          uhi.(k) <- u_hi
        end
        else ok := false
      end
    end;
    incr i
  done;
  !ok

(* KKT splits at μ = cells.(cell_mu) and the induced loads, fused into one
   pass: us.(i) is written before it is read, so the (f, g) sums accumulate
   in the reference's index order. *)
let fg_eval ~pos ~len bits work rate slack ulo uhi us cells =
  let margin = stability_margin in
  let mu = cells.(cell_mu) and b = cells.(cell_b) in
  let f = ref 0.0 and g = ref 0.0 in
  for i = pos to pos + len - 1 do
    let u =
      if bits.(i) = 0.0 then 0.0
      else if work.(i) = 0.0 then uhi.(i)
      else begin
        let u0 = slack.(i) /. (1.0 +. sqrt (mu *. b *. work.(i) /. bits.(i))) in
        (* Numeric.clamp, inlined *)
        if u0 < ulo.(i) then ulo.(i) else if u0 > uhi.(i) then uhi.(i) else u0
      end
    in
    us.(i) <- u;
    if bits.(i) > 0.0 then f := !f +. (bits.(i) /. u /. b);
    if work.(i) > 0.0 then begin
      let s =
        if bits.(i) = 0.0 then Float.min slack.(i) (margin /. rate.(i)) else slack.(i) -. u
      in
      g := !g +. (work.(i) /. s)
    end
  done;
  cells.(cell_f) <- !f;
  cells.(cell_g) <- !g

(* States of the μ bisection in [load_fits]. *)
let running = 0
let fits = 1
let misfits = 2
let undecided = 3

(* The reference's [best_loadmax] verdict: is V = max(f, g) at the μ the
   geometric bisection ends on at most [fit]?  f − g is increasing in μ, and
   the bisection keeps hi on the f − g ≥ 0 side (an inf − inf NaN counts as
   that side), so V = f(hi) at the end.  Each of f's terms is a chain of
   monotone float operations of μ summed in a fixed order, so f never
   decreases as μ grows and g never increases; since hi only falls and lo
   only rises, V is at least f at every lo-side probe and g at every
   hi-side probe, and at most f at every hi-side probe.  Unless [exact],
   the bisection stops as soon as those bounds decide V against [fit].  It
   also stops once (lo, hi) stops changing, since every later step would
   repeat the last one.  Undecided, it ends as the reference does, with
   [us] filled at μ = hi. *)
let load_fits ~exact ~pos ~len bits work rate slack ulo uhi us cells =
  cells.(cell_mu) <- 1e-12;
  fg_eval ~pos ~len bits work rate slack ulo uhi us cells;
  if cells.(cell_f) -. cells.(cell_g) >= 0.0 then
    Float.max cells.(cell_f) cells.(cell_g) <= fit
  else begin
    (* μ = 1e-12 lies at or below every later probe. *)
    let lower = ref cells.(cell_f) in
    cells.(cell_mu) <- 1e12;
    fg_eval ~pos ~len bits work rate slack ulo uhi us cells;
    if cells.(cell_f) -. cells.(cell_g) <= 0.0 then
      Float.max cells.(cell_f) cells.(cell_g) <= fit
    else begin
      (* μ = 1e12 is a hi-side probe.  The bounds move by comparisons, not
         Float.min/max, so a NaN never enters one. *)
      let upper = ref cells.(cell_f) in
      if cells.(cell_g) > !lower then lower := cells.(cell_g);
      let lo = ref 1e-12 and hi = ref 1e12 in
      let state = ref running in
      let step = ref 0 in
      while !state = running do
        if (not exact) && !upper <= fit then state := fits
        else if (not exact) && !lower > fit then state := misfits
        else if !step >= 60 then state := undecided
        else begin
          let lo0 = !lo and hi0 = !hi in
          let mid = sqrt (lo0 *. hi0) in
          cells.(cell_mu) <- mid;
          fg_eval ~pos ~len bits work rate slack ulo uhi us cells;
          if cells.(cell_f) -. cells.(cell_g) < 0.0 then begin
            lo := mid;
            if cells.(cell_f) > !lower then lower := cells.(cell_f)
          end
          else begin
            hi := mid;
            if cells.(cell_f) < !upper then upper := cells.(cell_f);
            if cells.(cell_g) > !lower then lower := cells.(cell_g)
          end;
          if !lo = lo0 && !hi = hi0 then state := undecided;
          incr step
        end
      done;
      if !state = fits then true
      else if !state = misfits then false
      else begin
        cells.(cell_mu) <- !hi;
        fg_eval ~pos ~len bits work rate slack ulo uhi us cells;
        Float.max cells.(cell_f) cells.(cell_g) <= fit
      end
    end
  end

let feasible ~exact ~pos ~len fx bits work dl peak rate slack ulo uhi us cells =
  bounds_ok ~pos ~len fx bits work dl peak rate slack ulo uhi cells
  && load_fits ~exact ~pos ~len bits work rate slack ulo uhi us cells

(* Scale-up of the min-max point's grants into [bw]/[share], in place:
   leftover bandwidth is redistributed proportionally within the radio
   caps (three passes), leftover compute proportionally. *)
let write_grants ~pos ~len bits work rate peak slack us cells ~bw ~share =
  let margin = stability_margin in
  let b = cells.(cell_b) in
  let last = pos + len - 1 in
  for i = pos to last do
    bw.(i) <- 0.0;
    share.(i) <- 0.0;
    if bits.(i) > 0.0 then bw.(i) <- bits.(i) /. us.(i);
    if work.(i) > 0.0 then begin
      let s =
        if bits.(i) = 0.0 then Float.min slack.(i) (margin /. rate.(i)) else slack.(i) -. us.(i)
      in
      share.(i) <- work.(i) /. s
    end
  done;
  for _ = 1 to 3 do
    let used = ref 0.0 in
    for i = pos to last do
      used := !used +. bw.(i)
    done;
    let spare = b -. !used in
    if spare > 1e-6 then begin
      let expandable = ref 0.0 in
      for i = pos to last do
        if bw.(i) > 0.0 && bw.(i) < peak.(i) then expandable := !expandable +. bw.(i)
      done;
      if !expandable > 0.0 then
        for i = pos to last do
          let g = bw.(i) in
          if g > 0.0 && g < peak.(i) then
            bw.(i) <- Float.min peak.(i) (g +. (spare *. g /. !expandable))
        done
    end
  done;
  let used = ref 0.0 in
  for i = pos to last do
    used := !used +. share.(i)
  done;
  if !used > 0.0 && !used < 1.0 then begin
    let u = !used in
    for i = pos to last do
      if share.(i) > 0.0 then share.(i) <- Float.min 1.0 (share.(i) /. u)
    done
  end

let solve_borrowed ~pos ~len fx bits work dl peak rate slack ulo uhi us cells ~bw ~share ~theta =
  let margin = stability_margin in
  let b = cells.(cell_b) in
  let last = pos + len - 1 in
  (* Sustained-load prechecks: no θ is feasible when offered load exceeds
     capacity. *)
  let bit_load = ref 0.0 and work_load = ref 0.0 in
  for i = pos to last do
    bit_load := !bit_load +. (rate.(i) *. bits.(i));
    work_load := !work_load +. (rate.(i) *. work.(i))
  done;
  let peak_ok = ref true in
  for i = pos to last do
    if not (bits.(i) = 0.0 || rate.(i) *. bits.(i) /. peak.(i) <= margin) then peak_ok := false
  done;
  if !bit_load > margin *. b || !work_load > margin || not !peak_ok then false
  else begin
    let theta_lo = ref 0.0 in
    for i = pos to last do
      theta_lo := Float.max !theta_lo (fx.(i) /. dl.(i))
    done;
    let theta_lo = !theta_lo in
    (* Grow an upper bracket. *)
    let th = ref (Float.max 1.0 (theta_lo +. 1e-6)) in
    let tries = ref 0 in
    let found = ref false in
    while (not !found) && !tries <= 64 do
      cells.(cell_theta) <- !th;
      if feasible ~exact:false ~pos ~len fx bits work dl peak rate slack ulo uhi us cells then
        found := true
      else begin
        th := !th *. 2.0;
        incr tries
      end
    done;
    if not !found then false
    else begin
      let lo = ref theta_lo and hi = ref !th in
      while !hi -. !lo > tol *. Float.max 1.0 !hi do
        let mid = 0.5 *. (!lo +. !hi) in
        cells.(cell_theta) <- mid;
        if feasible ~exact:false ~pos ~len fx bits work dl peak rate slack ulo uhi us cells then
          hi := mid
        else lo := mid
      done;
      cells.(cell_theta) <- !hi;
      (* The one full bisection: it leaves [us] at the reference's final μ. *)
      if not (feasible ~exact:true ~pos ~len fx bits work dl peak rate slack ulo uhi us cells)
      then false (* numerically impossible, but keep total *)
      else begin
        write_grants ~pos ~len bits work rate peak slack us cells ~bw ~share;
        theta.(0) <- !hi;
        true
      end
    end
  end

let solve ~bandwidth_bps items ~pos ~len ~bw ~share ~theta =
  if not (bandwidth_bps > 0.0 && Float.is_finite bandwidth_bps) then
    invalid_arg "Minmax.solve: bandwidth must be positive and finite";
  let n = pos + len in
  if
    pos < 0 || len < 0
    || Array.length items.fixed_s < n
    || Array.length items.bits < n
    || Array.length items.work_s < n
    || Array.length items.deadline_s < n
    || Array.length items.peak_bps < n
    || Array.length items.rate < n
    || Array.length bw < n
    || Array.length share < n
    || Array.length theta < 1
  then invalid_arg "Minmax.solve: item range outside the arrays";
  if len = 0 then begin
    theta.(0) <- 0.0;
    true
  end
  else begin
    let slack = Es_util.Scratch.borrow_floats n in
    let ulo = Es_util.Scratch.borrow_floats n in
    let uhi = Es_util.Scratch.borrow_floats n in
    let us = Es_util.Scratch.borrow_floats n in
    let cells = Es_util.Scratch.borrow_floats n_cells in
    cells.(cell_b) <- bandwidth_bps;
    (* Nothing below raises: the ranges were checked above. *)
    let ok =
      solve_borrowed ~pos ~len items.fixed_s items.bits items.work_s items.deadline_s
        items.peak_bps items.rate slack ulo uhi us cells ~bw ~share ~theta
    in
    Es_util.Scratch.release_floats cells;
    Es_util.Scratch.release_floats us;
    Es_util.Scratch.release_floats uhi;
    Es_util.Scratch.release_floats ulo;
    Es_util.Scratch.release_floats slack;
    ok
  end
