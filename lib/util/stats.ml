(* All-float, so the record is stored flat and [add]'s stores allocate
   nothing; the count is exact in a float up to 2^53 observations. *)
type t = {
  mutable n : float;
  mutable mu : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
  mutable total : float;
}

let create () = { n = 0.0; mu = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity; total = 0.0 }

let add t x =
  t.n <- t.n +. 1.0;
  let d = x -. t.mu in
  t.mu <- t.mu +. (d /. t.n);
  t.m2 <- t.m2 +. (d *. (x -. t.mu));
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x;
  t.total <- t.total +. x

let count t = int_of_float t.n
let mean t = if t.n = 0.0 then nan else t.mu
let variance t = if t.n < 2.0 then 0.0 else t.m2 /. (t.n -. 1.0)
let min t = t.lo
let max t = t.hi
let sum t = t.total

let merge a b =
  if a.n = 0.0 then { b with n = b.n }
  else if b.n = 0.0 then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let d = b.mu -. a.mu in
    let mu = a.mu +. (d *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (d *. d *. a.n *. b.n /. n) in
    {
      n;
      mu;
      m2;
      lo = Float.min a.lo b.lo;
      hi = Float.max a.hi b.hi;
      total = a.total +. b.total;
    }
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs 50.0

let mean_of xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    Array.iter (fun x -> if x < 0.0 then invalid_arg "Stats.jain_index: negative entry") xs;
    let s = Array.fold_left ( +. ) 0.0 xs in
    let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)
  end

let histogram xs ~bins =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if Array.length xs = 0 then [||]
  else begin
    let lo = Array.fold_left Float.min infinity xs in
    let hi = Array.fold_left Float.max neg_infinity xs in
    let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
    let counts = Array.make bins 0 in
    Array.iter
      (fun x ->
        let b = int_of_float ((x -. lo) /. width) in
        let b = Stdlib.min b (bins - 1) in
        counts.(b) <- counts.(b) + 1)
      xs;
    Array.mapi (fun i c -> (lo +. (float_of_int i *. width), c)) counts
  end
