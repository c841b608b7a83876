type t = {
  counts : int array;
  lock : Mutex.t;  (* serializes [observe]: instruments are shared across domains *)
  mutable underflow : int;
  mutable overflow : int;
  mutable n : int;
  mutable total : float;
  mutable lo : float;
  mutable hi : float;
}

let growth = Float.pow 2.0 0.125
let log_growth = log growth
let min_value = 1e-9
let nbuckets = 512

let create () =
  {
    counts = Array.make nbuckets 0;
    lock = Mutex.create ();
    underflow = 0;
    overflow = 0;
    n = 0;
    total = 0.0;
    lo = infinity;
    hi = neg_infinity;
  }

let bucket_index v = int_of_float (Float.floor (log (v /. min_value) /. log_growth))

let observe t v =
  if not (Float.is_nan v) then begin
    Mutex.lock t.lock;
    t.n <- t.n + 1;
    t.total <- t.total +. v;
    if v < t.lo then t.lo <- v;
    if v > t.hi then t.hi <- v;
    if v < min_value then t.underflow <- t.underflow + 1
    else begin
      let i = bucket_index v in
      if i >= nbuckets then t.overflow <- t.overflow + 1
      else t.counts.(Stdlib.max i 0) <- t.counts.(Stdlib.max i 0) + 1
    end;
    Mutex.unlock t.lock
  end

let count t = t.n
let sum t = t.total
let mean t = if t.n = 0 then nan else t.total /. float_of_int t.n
let min_observed t = t.lo
let max_observed t = t.hi

let lower_edge i = min_value *. Float.pow growth (float_of_int i)

let quantile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.quantile: p outside [0,100]";
  if t.n = 0 then nan
  else begin
    (* Same rank convention as Stats.percentile: the p-quantile is the
       order statistic at rank p/100·(n−1), located by cumulative count. *)
    let target = p /. 100.0 *. float_of_int (t.n - 1) in
    let clamp x = Float.max t.lo (Float.min t.hi x) in
    let cum = ref (float_of_int t.underflow) in
    if target < !cum then clamp t.lo
    else begin
      let result = ref None in
      (try
         for i = 0 to nbuckets - 1 do
           let c = t.counts.(i) in
           if c > 0 then begin
             cum := !cum +. float_of_int c;
             if target < !cum then begin
               (* Geometric midpoint of the bucket. *)
               result := Some (lower_edge i *. sqrt growth);
               raise Exit
             end
           end
         done
       with Exit -> ());
      match !result with Some v -> clamp v | None -> clamp t.hi
    end
  end

let bucket_width_at v =
  if v < min_value then min_value
  else begin
    let i = Stdlib.min (bucket_index v) (nbuckets - 1) in
    lower_edge i *. (growth -. 1.0)
  end

let merge a b =
  let m = create () in
  Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
  m.underflow <- a.underflow + b.underflow;
  m.overflow <- a.overflow + b.overflow;
  m.n <- a.n + b.n;
  m.total <- a.total +. b.total;
  m.lo <- Float.min a.lo b.lo;
  m.hi <- Float.max a.hi b.hi;
  m

let nonempty_buckets t =
  let acc = ref [] in
  if t.overflow > 0 then acc := (lower_edge nbuckets, infinity, t.overflow) :: !acc;
  for i = nbuckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (lower_edge i, lower_edge (i + 1), t.counts.(i)) :: !acc
  done;
  if t.underflow > 0 then acc := (0.0, min_value, t.underflow) :: !acc;
  !acc
