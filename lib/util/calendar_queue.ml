(* Calendar queue (Brown 1988).  Entries live in singly-linked,
   (prio, seq)-sorted bucket lists; bucket = virtual bucket mod array
   size, virtual bucket = floor(prio / width).  [cur_vb] is the scan
   position: the invariant is that no entry has a virtual bucket below
   it, so pop only ever looks forward.

   Entries are slots in a struct-of-arrays pool rather than heap-allocated
   nodes: priorities live in an unboxed float array, links and bucket
   heads/tails are int arrays (slot index, -1 = nil), and so are the
   payloads.  A push is then a few scalar array stores and a pop a few
   loads — no node allocation, no option boxing, no GC write barrier —
   which is what lets the push side keep up with a binary heap's
   near-free append while the pop side stays O(1). *)

type t = {
  (* Slot pool: parallel arrays indexed by slot id.  [nxt] doubles as the
     free list (threaded through freed slots, [free] its head). *)
  mutable prio : float array;
  mutable seq : int array;
  mutable value : int array;
  mutable nxt : int array;
  mutable free : int;
  mutable pool_fill : int;  (* slots ever handed out; above = untouched *)
  (* Calendar proper. *)
  mutable heads : int array;
  mutable tails : int array;
  mutable mask : int;  (* bucket count - 1; count is a power of two *)
  mutable width : float;  (* seconds of simulated time per bucket *)
  mutable inv_width : float;  (* 1/width — buckets are found by multiply *)
  mutable size : int;
  mutable next_seq : int;  (* monotone tie-breaker: FIFO within a prio *)
  mutable cur_vb : int;  (* virtual bucket the next pop scans from *)
}

let min_buckets = 8
let nil = -1

(* Virtual-bucket indices are capped so [prio /. width] can never leave
   int range (absurdly far-future priorities all share the last virtual
   bucket; the sorted bucket list keeps them ordered). *)
let vb_cap = 1 lsl 55

let create () =
  {
    prio = [||];
    seq = [||];
    value = [||];
    nxt = [||];
    free = nil;
    pool_fill = 0;
    heads = Array.make min_buckets nil;
    tails = Array.make min_buckets nil;
    mask = min_buckets - 1;
    width = 1.0;
    inv_width = 1.0;
    size = 0;
    next_seq = 0;
    cur_vb = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let vb_of t prio =
  let q = prio *. t.inv_width in
  if q >= float_of_int vb_cap then vb_cap else int_of_float q

(* (prio, seq) lexicographic order — the pop order. *)
let before t i j =
  t.prio.(i) < t.prio.(j) || (t.prio.(i) = t.prio.(j) && t.seq.(i) < t.seq.(j))

(* [vb] must be [vb_of t t.prio.(i)] — passed in because every caller has
   already computed it. *)
let insert_slot t i vb =
  let b = vb land t.mask in
  let tl = t.tails.(b) in
  if tl = nil then begin
    t.heads.(b) <- i;
    t.tails.(b) <- i
  end
  else if before t tl i then begin
    (* The common case: pushes carry a fresh (monotone) seq, so ties and
       later times always append at the tail in O(1). *)
    t.nxt.(tl) <- i;
    t.tails.(b) <- i
  end
  else begin
    (* Out-of-order arrival (a push into the past, or reinsertion during
       a rebuild): splice before the first entry ordered after it. *)
    let prev = ref nil in
    let cur = ref t.heads.(b) in
    while !cur <> nil && before t !cur i do
      prev := !cur;
      cur := t.nxt.(!cur)
    done;
    t.nxt.(i) <- !cur;
    if !prev = nil then t.heads.(b) <- i else t.nxt.(!prev) <- i;
    if !cur = nil then t.tails.(b) <- i
  end

(* Every live slot, bucket-major (unordered across buckets). *)
let gather t =
  let all = Array.make (max 1 t.size) nil in
  let k = ref 0 in
  Array.iter
    (fun h ->
      let cur = ref h in
      while !cur <> nil do
        all.(!k) <- !cur;
        incr k;
        cur := t.nxt.(!cur)
      done)
    t.heads;
  if t.size = 0 then [||] else all

(* Width rule: ~3x the population's mean inter-event gap, estimated as the
   priority span of a stride-sample divided by the FULL population size
   (the sample's own adjacent gaps average span/64 regardless of how many
   events share that span — using them directly would oversize buckets by
   n/64 and collapse the calendar into a few linearly-scanned lists).
   Falls back to the old width when everything pending shares one
   timestamp. *)
let sampled_width t all old_width =
  let n = Array.length all in
  if n < 2 then old_width
  else begin
    let m = min 64 n in
    let stride = n / m in
    let lo = ref t.prio.(all.(0)) and hi = ref t.prio.(all.(0)) in
    for i = 0 to m - 1 do
      let p = t.prio.(all.(i * stride)) in
      if p < !lo then lo := p;
      if p > !hi then hi := p
    done;
    let span = !hi -. !lo in
    if span <= 0.0 then old_width else 3.0 *. span /. float_of_int n
  end

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go min_buckets

let rebuild t =
  let all = gather t in
  let n = Array.length all in
  let count = next_pow2 (max min_buckets n) in
  let max_prio = Array.fold_left (fun acc i -> Float.max acc t.prio.(i)) 0.0 all in
  let w = sampled_width t all t.width in
  (* Floors: stay above float noise, and keep every seen priority's
     virtual bucket well inside int range. *)
  let w = Float.max w (Float.max 1e-9 (max_prio /. 1e12)) in
  t.heads <- Array.make count nil;
  t.tails <- Array.make count nil;
  t.mask <- count - 1;
  t.width <- w;
  t.inv_width <- 1.0 /. w;
  Array.iter (fun i -> t.nxt.(i) <- nil) all;
  let min_vb = ref max_int in
  Array.iter
    (fun i ->
      let vb = vb_of t t.prio.(i) in
      if vb < !min_vb then min_vb := vb;
      insert_slot t i vb)
    all;
  t.cur_vb <- (if n = 0 then 0 else !min_vb)

(* Take a free slot, growing the pool by doubling. *)
let alloc_slot t =
  if t.free <> nil then begin
    let i = t.free in
    t.free <- t.nxt.(i);
    i
  end
  else begin
    let cap = Array.length t.prio in
    if t.pool_fill >= cap then begin
      let grow a fill =
        let b = Array.make (max 16 (2 * cap)) fill in
        Array.blit a 0 b 0 cap;
        b
      in
      t.prio <- grow t.prio 0.0;
      t.seq <- grow t.seq 0;
      t.value <- grow t.value 0;
      t.nxt <- grow t.nxt nil
    end;
    let i = t.pool_fill in
    t.pool_fill <- t.pool_fill + 1;
    i
  end

(* Return a slot to the free list.  Payloads are ints, so a freed slot
   retains nothing and the pool is kept across drains: a queue that
   empties and refills reuses it instead of growing a fresh one. *)
let free_slot t i =
  t.nxt.(i) <- t.free;
  t.free <- i

let insert t prio seq value =
  if not (prio >= 0.0 && Float.is_finite prio) then
    invalid_arg "Calendar_queue.push: priority must be finite and >= 0";
  if value < 0 then invalid_arg "Calendar_queue.push: negative payload";
  let i = alloc_slot t in
  t.prio.(i) <- prio;
  t.seq.(i) <- seq;
  t.value.(i) <- value;
  t.nxt.(i) <- nil;
  let vb = vb_of t prio in
  insert_slot t i vb;
  t.size <- t.size + 1;
  if t.size = 1 || vb < t.cur_vb then t.cur_vb <- vb;
  if t.size > 2 * (t.mask + 1) then rebuild t

let push t prio value =
  insert t prio t.next_seq value;
  t.next_seq <- t.next_seq + 1

let reserve t n =
  if n < 0 then invalid_arg "Calendar_queue.reserve: negative count";
  let base = t.next_seq in
  t.next_seq <- base + n;
  base

(* A reserved number is below [next_seq]; it may sort before entries
   already in its bucket, which [insert_slot] splices in order. *)
let push_seq t prio ~seq value =
  if seq < 0 || seq >= t.next_seq then
    invalid_arg "Calendar_queue.push_seq: sequence number not reserved";
  insert t prio seq value

(* Bucket holding the next entry to pop, or -1 when empty; leaves [cur_vb]
   on that entry's virtual bucket.  One forward scan: an entry in the slot
   being probed is detected via its own virtual bucket, so a far-future
   entry sharing the bucket ring position doesn't stop the scan early.
   After a fruitless full lap (population spread far beyond one calendar
   span) a direct search over the bucket heads finds the minimum and jumps
   the scan position to it. *)
let locate t =
  if t.size = 0 then -1
  else begin
    let nb = t.mask + 1 in
    let found = ref (-1) in
    let vb = ref t.cur_vb in
    let steps = ref 0 in
    while !found < 0 && !steps < nb do
      let h = t.heads.(!vb land t.mask) in
      if h <> nil && vb_of t t.prio.(h) <= !vb then begin
        found := !vb land t.mask;
        t.cur_vb <- !vb
      end
      else begin
        incr vb;
        incr steps
      end
    done;
    if !found >= 0 then !found
    else begin
      let best = ref nil in
      Array.iter
        (fun h -> if h <> nil && (!best = nil || before t h !best) then best := h)
        t.heads;
      if !best = nil then -1
      else begin
        let vb = vb_of t t.prio.(!best) in
        t.cur_vb <- vb;
        vb land t.mask
      end
    end
  end

let pop_into t at =
  let b = locate t in
  if b < 0 then -1
  else begin
    let h = t.heads.(b) in
    t.heads.(b) <- t.nxt.(h);
    if t.nxt.(h) = nil then t.tails.(b) <- nil;
    at.(0) <- t.prio.(h);
    let v = t.value.(h) in
    free_slot t h;
    t.size <- t.size - 1;
    (* Wide hysteresis (grow past 2x buckets, shrink under 1/4) so a
       push/pop sequence hovering at a threshold cannot thrash
       O(n) rebuilds. *)
    if t.mask + 1 > min_buckets && t.size < (t.mask + 1) / 4 then rebuild t;
    v
  end

let pop t =
  let at = [| 0.0 |] in
  let v = pop_into t at in
  if v < 0 then None else Some (at.(0), v)

let pop_exn t =
  match pop t with
  | Some e -> e
  | None -> invalid_arg "Calendar_queue.pop_exn: empty"

let clear t =
  t.prio <- [||];
  t.seq <- [||];
  t.value <- [||];
  t.nxt <- [||];
  t.free <- nil;
  t.pool_fill <- 0;
  t.heads <- Array.make min_buckets nil;
  t.tails <- Array.make min_buckets nil;
  t.mask <- min_buckets - 1;
  t.width <- 1.0;
  t.inv_width <- 1.0;
  t.size <- 0;
  t.cur_vb <- 0

let to_sorted_list t =
  let all = gather t in
  Array.sort
    (fun i j ->
      match Float.compare t.prio.(i) t.prio.(j) with
      | 0 -> Int.compare t.seq.(i) t.seq.(j)
      | c -> c)
    all;
  Array.to_list (Array.map (fun i -> (t.prio.(i), t.value.(i))) all)
