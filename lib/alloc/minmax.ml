(* es_lint: hot *)
type item = {
  key : int;
  fixed_s : float;
  bits : float;
  work_s : float;
  deadline_s : float;
  peak_bps : float;
  rate : float;
}

type grant = { bandwidth_bps : float; compute_share : float }

type result = { theta : float; grants : (int * grant) list }

(* The bisections run over parallel scratch arrays (one block borrowed per
   solve), with the per-probe state — slack and split bounds, KKT splits,
   induced loads — written in place.  Every float operation replicates the
   record-based reference solver in test/oracle/minmax.ml in the same
   order, so results are bit-identical; the steady state allocates only the
   output grant list.  [cells] carries the cross-closure scalars (f, g, μ,
   θ) so inner evaluations neither box arguments nor return floats. *)

let cell_f = 0
let cell_g = 1
let cell_mu = 2
let cell_theta = 3

(* Every granted stage keeps its utilization at or below this margin, and
   the θ bisection stops at this relative width. *)
let stability_margin = 0.95
let tol = 1e-3

let solve ~bandwidth_bps items =
  if bandwidth_bps <= 0.0 then invalid_arg "Minmax.solve: non-positive bandwidth";
  if items = [] then Some { theta = 0.0; grants = [] }
  else begin
    let n = List.length items in
    let b = bandwidth_bps in
    let margin = stability_margin in
    let keys = Es_util.Scratch.borrow_ints n in
    let fx = Es_util.Scratch.borrow_floats n in
    let bits = Es_util.Scratch.borrow_floats n in
    let work = Es_util.Scratch.borrow_floats n in
    let dl = Es_util.Scratch.borrow_floats n in
    let peak = Es_util.Scratch.borrow_floats n in
    let rate = Es_util.Scratch.borrow_floats n in
    let slack = Es_util.Scratch.borrow_floats n in
    let ulo = Es_util.Scratch.borrow_floats n in
    let uhi = Es_util.Scratch.borrow_floats n in
    let us = Es_util.Scratch.borrow_floats n in
    let bws = Es_util.Scratch.borrow_floats n in
    let shares = Es_util.Scratch.borrow_floats n in
    let cells = Es_util.Scratch.borrow_floats 4 in
    let release_all () =
      Es_util.Scratch.release_floats cells;
      Es_util.Scratch.release_floats shares;
      Es_util.Scratch.release_floats bws;
      Es_util.Scratch.release_floats us;
      Es_util.Scratch.release_floats uhi;
      Es_util.Scratch.release_floats ulo;
      Es_util.Scratch.release_floats slack;
      Es_util.Scratch.release_floats rate;
      Es_util.Scratch.release_floats peak;
      Es_util.Scratch.release_floats dl;
      Es_util.Scratch.release_floats work;
      Es_util.Scratch.release_floats bits;
      Es_util.Scratch.release_floats fx;
      Es_util.Scratch.release_ints keys
    in
    (* es_lint: cold — once-per-solve release bracket, not a per-item closure *)
    Fun.protect ~finally:release_all (fun () ->
        let rec fill i = function
          | [] -> ()
          | (it : item) :: tl ->
              keys.(i) <- it.key;
              fx.(i) <- it.fixed_s;
              bits.(i) <- it.bits;
              work.(i) <- it.work_s;
              dl.(i) <- it.deadline_s;
              peak.(i) <- it.peak_bps;
              rate.(i) <- it.rate;
              fill (i + 1) tl
        in
        fill 0 items;
        (* Sustained-load prechecks: no θ is feasible when offered load
           exceeds capacity. *)
        let bit_load = ref 0.0 and work_load = ref 0.0 in
        for i = 0 to n - 1 do
          bit_load := !bit_load +. (rate.(i) *. bits.(i));
          work_load := !work_load +. (rate.(i) *. work.(i))
        done;
        let peak_ok = ref true in
        for i = 0 to n - 1 do
          if not (bits.(i) = 0.0 || rate.(i) *. bits.(i) /. peak.(i) <= margin) then
            peak_ok := false
        done;
        if !bit_load > margin *. b || !work_load > margin || not !peak_ok then None
        else begin
          (* [bounds_at] over every item at θ = cells.(cell_theta); false as
             soon as one item has no admissible split. *)
          let bounds_ok () =
            let theta = cells.(cell_theta) in
            let ok = ref true in
            let i = ref 0 in
            while !ok && !i < n do
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
                  (* Compute-only: the whole slack (capped by stability) is
                     server time. *)
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
          in
          (* KKT splits at μ = cells.(cell_mu) and the induced loads, fused
             into one pass: us.(i) is written before it is read, so the
             (f, g) sums accumulate in the reference's index order. *)
          let fg_eval () =
            let mu = cells.(cell_mu) in
            let f = ref 0.0 and g = ref 0.0 in
            for i = 0 to n - 1 do
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
                  if bits.(i) = 0.0 then Float.min slack.(i) (margin /. rate.(i))
                  else slack.(i) -. u
                in
                g := !g +. (work.(i) /. s)
              end
            done;
            cells.(cell_f) <- !f;
            cells.(cell_g) <- !g
          in
          (* best_loadmax: f − g is increasing in μ; geometric bisection to
             the crossing, leaving [us] filled at the final μ. *)
          let loadmax () =
            cells.(cell_mu) <- 1e-12;
            fg_eval ();
            if cells.(cell_f) -. cells.(cell_g) >= 0.0 then
              Float.max cells.(cell_f) cells.(cell_g)
            else begin
              cells.(cell_mu) <- 1e12;
              fg_eval ();
              if cells.(cell_f) -. cells.(cell_g) <= 0.0 then
                Float.max cells.(cell_f) cells.(cell_g)
              else begin
                let lo = ref 1e-12 and hi = ref 1e12 in
                for _ = 1 to 60 do
                  let mid = sqrt (!lo *. !hi) in
                  cells.(cell_mu) <- mid;
                  fg_eval ();
                  if cells.(cell_f) -. cells.(cell_g) < 0.0 then lo := mid else hi := mid
                done;
                cells.(cell_mu) <- !hi;
                fg_eval ();
                Float.max cells.(cell_f) cells.(cell_g)
              end
            end
          in
          let feasible () = bounds_ok () && loadmax () <= 1.0 +. 1e-9 in
          let theta_lo = ref 0.0 in
          for i = 0 to n - 1 do
            theta_lo := Float.max !theta_lo (fx.(i) /. dl.(i))
          done;
          let theta_lo = !theta_lo in
          (* Grow an upper bracket. *)
          let th = ref (Float.max 1.0 (theta_lo +. 1e-6)) in
          let tries = ref 0 in
          let found = ref false in
          while (not !found) && !tries <= 64 do
            cells.(cell_theta) <- !th;
            if feasible () then found := true
            else begin
              th := !th *. 2.0;
              incr tries
            end
          done;
          if not !found then None
          else begin
            let lo = ref theta_lo and hi = ref !th in
            while !hi -. !lo > tol *. Float.max 1.0 !hi do
              let mid = 0.5 *. (!lo +. !hi) in
              cells.(cell_theta) <- mid;
              if feasible () then hi := mid else lo := mid
            done;
            cells.(cell_theta) <- !hi;
            if not (feasible ()) then None (* numerically impossible, but keep total *)
            else begin
              for i = 0 to n - 1 do
                bws.(i) <- 0.0;
                shares.(i) <- 0.0;
                if bits.(i) > 0.0 then bws.(i) <- bits.(i) /. us.(i);
                if work.(i) > 0.0 then begin
                  let s =
                    if bits.(i) = 0.0 then Float.min slack.(i) (margin /. rate.(i))
                    else slack.(i) -. us.(i)
                  in
                  shares.(i) <- work.(i) /. s
                end
              done;
              (* scale_up_bandwidth, in place: redistribute leftover capacity
                 proportionally, respecting per-item caps. *)
              for _ = 1 to 3 do
                let used = ref 0.0 in
                for i = 0 to n - 1 do
                  used := !used +. bws.(i)
                done;
                let spare = b -. !used in
                if spare > 1e-6 then begin
                  let expandable = ref 0.0 in
                  for i = 0 to n - 1 do
                    if bws.(i) > 0.0 && bws.(i) < peak.(i) then
                      expandable := !expandable +. bws.(i)
                  done;
                  if !expandable > 0.0 then
                    for i = 0 to n - 1 do
                      let g = bws.(i) in
                      if g > 0.0 && g < peak.(i) then
                        bws.(i) <- Float.min peak.(i) (g +. (spare *. g /. !expandable))
                    done
                end
              done;
              (* scale_up_shares, in place *)
              let used = ref 0.0 in
              for i = 0 to n - 1 do
                used := !used +. shares.(i)
              done;
              if !used > 0.0 && !used < 1.0 then begin
                let u = !used in
                for i = 0 to n - 1 do
                  if shares.(i) > 0.0 then shares.(i) <- Float.min 1.0 (shares.(i) /. u)
                done
              end;
              let grants =
                (* es_lint: cold — the keyed grant list is the API's output shape *)
                List.init n (fun i ->
                    (keys.(i), { bandwidth_bps = bws.(i); compute_share = shares.(i) }))
              in
              Some { theta = !hi; grants }
            end
          end
        end)
  end
