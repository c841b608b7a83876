let clamp ~lo ~hi (x : float) = if x < lo then lo else if x > hi then hi else x

let lerp a b t = a +. (t *. (b -. a))

let interp1 knots x =
  let n = Array.length knots in
  if n = 0 then invalid_arg "Numeric.interp1: empty knots";
  if x <= fst knots.(0) then snd knots.(0)
  else if x >= fst knots.(n - 1) then snd knots.(n - 1)
  else begin
    (* Binary search for the bracketing interval. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if fst knots.(mid) <= x then lo := mid else hi := mid
    done;
    let x0, y0 = knots.(!lo) and x1, y1 = knots.(!hi) in
    if x1 = x0 then y0 else lerp y0 y1 ((x -. x0) /. (x1 -. x0))
  end

let argmin_by (key : 'a -> float) = function
  | [] -> None
  | x :: rest ->
      let best, _ =
        List.fold_left
          (fun (b, kb) y ->
            let ky = key y in
            if ky < kb then (y, ky) else (b, kb))
          (x, key x) rest
      in
      Some best

let argmax_by key l = argmin_by (fun x -> -.key x) l

let mbps x = x *. 1e6 /. 8.0
let gflops x = x *. 1e9
let ms x = x /. 1000.0
