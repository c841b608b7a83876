type t = float -> float

let constant c _ = c

let step_burst ~start_s ~stop_s ~factor t =
  if t >= start_s && t < stop_s then factor else 1.0

let diurnal ~period_s ~amplitude t =
  Float.max 0.05 (1.0 +. (amplitude *. sin (2.0 *. Float.pi *. t /. period_s)))

let flash_crowd ~at_s ~rise_s ~decay_s ~factor t =
  if t < at_s then 1.0
  else if t < at_s +. rise_s then
    1.0 +. ((factor -. 1.0) *. (t -. at_s) /. Float.max 1e-9 rise_s)
  else 1.0 +. ((factor -. 1.0) *. exp (-.(t -. at_s -. rise_s) /. Float.max 1e-9 decay_s))

let product f g t = f t *. g t

let scale k f t = k *. f t

let sustained_flash ~at_s ~rise_s ~factor t =
  if t < at_s then 1.0
  else if t < at_s +. rise_s then
    1.0 +. ((factor -. 1.0) *. (t -. at_s) /. Float.max 1e-9 rise_s)
  else factor
