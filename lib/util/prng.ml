type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 core step (Steele, Lea, Flood 2014). *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let s = bits64 t in
  { state = s }

(* OCaml's native int has 63 bits; shifting by 2 keeps the value in
   [0, 2^62), safely non-negative after Int64.to_int. *)
let nonneg t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec loop () =
    let r = nonneg t in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then loop () else v
  in
  loop ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits into [0,1). *)
  let b = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float b /. 9007199254740992.0 *. bound

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t rate =
  if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate

let normal t ~mu ~sigma =
  let u1 = 1.0 -. float t 1.0 in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let pareto t ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Prng.pareto: parameters must be positive";
  let u = 1.0 -. float t 1.0 in
  scale /. (u ** (1.0 /. shape))

let choice t a =
  if Array.length a = 0 then invalid_arg "Prng.choice: empty array";
  a.(int t (Array.length a))

let weighted_choice t a =
  if Array.length a = 0 then invalid_arg "Prng.weighted_choice: empty array";
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 a in
  if total <= 0.0 then invalid_arg "Prng.weighted_choice: non-positive total weight";
  let x = float t total in
  let rec go i acc =
    if i = Array.length a - 1 then fst a.(i)
    else
      let acc = acc +. snd a.(i) in
      if x < acc then fst a.(i) else go (i + 1) acc
  in
  go 0 0.0

let sample_without_replacement t k n =
  if k > n || k < 0 then invalid_arg "Prng.sample_without_replacement";
  let pool = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 k
