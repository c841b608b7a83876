(* Float state in an all-float record: stored flat, so [observe] updates
   it without boxing. *)
type sums = { mutable total : float; mutable lo : float; mutable hi : float }

type t = {
  counts : int array;
  lock : Mutex.t;  (* serializes [observe]: instruments are shared across domains *)
  mutable underflow : int;
  mutable overflow : int;
  mutable n : int;
  f : sums;
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
    f = { total = 0.0; lo = infinity; hi = neg_infinity };
  }

let[@inline] bucket_index v = int_of_float (Float.floor (log (v /. min_value) /. log_growth))

(* Inlined into [observe_cell], so a value read from a cell stays
   unboxed. *)
let[@inline] observe t v =
  if not (Float.is_nan v) then begin
    Mutex.lock t.lock;
    t.n <- t.n + 1;
    t.f.total <- t.f.total +. v;
    if v < t.f.lo then t.f.lo <- v;
    if v > t.f.hi then t.f.hi <- v;
    if v < min_value then t.underflow <- t.underflow + 1
    else begin
      let i = bucket_index v in
      if i >= nbuckets then t.overflow <- t.overflow + 1
      else t.counts.(Stdlib.max i 0) <- t.counts.(Stdlib.max i 0) + 1
    end;
    Mutex.unlock t.lock
  end

let observe_cell t c = observe t c.(0)

let count t = t.n
let sum t = t.f.total
let mean t = if t.n = 0 then nan else t.f.total /. float_of_int t.n
let min_observed t = t.f.lo
let max_observed t = t.f.hi

let lower_edge i = min_value *. Float.pow growth (float_of_int i)

let quantile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.quantile: p outside [0,100]";
  if t.n = 0 then nan
  else begin
    (* Same rank convention as Stats.percentile: the p-quantile is the
       order statistic at rank p/100·(n−1), located by cumulative count. *)
    let target = p /. 100.0 *. float_of_int (t.n - 1) in
    let clamp x = Float.max t.f.lo (Float.min t.f.hi x) in
    let cum = ref (float_of_int t.underflow) in
    if target < !cum then clamp t.f.lo
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
      match !result with Some v -> clamp v | None -> clamp t.f.hi
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
  m.f.total <- a.f.total +. b.f.total;
  m.f.lo <- Float.min a.f.lo b.f.lo;
  m.f.hi <- Float.max a.f.hi b.f.hi;
  m

let nonempty_buckets t =
  let acc = ref [] in
  if t.overflow > 0 then acc := (lower_edge nbuckets, infinity, t.overflow) :: !acc;
  for i = nbuckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (lower_edge i, lower_edge (i + 1), t.counts.(i)) :: !acc
  done;
  if t.underflow > 0 then acc := (0.0, min_value, t.underflow) :: !acc;
  !acc
