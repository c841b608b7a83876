(* Float state in an all-float record: stored flat, so the per-job
   updates allocate nothing. *)
type clocks = {
  mutable rate : float;
  mutable service_end : float;
  mutable queued_work : float;
      (* total work units of the waiting jobs (excludes the job in
         service), maintained incrementally for O(1) backlog estimates *)
  mutable busy : float;
}

type t = {
  (* What [eta_after], [submit] and [start_next] read comes first, so an
     admission estimate touches one cache line of the record. *)
  engine : Engine.t;
  clock : float array;  (* the engine's clock cell *)
  at : float array;  (* the engine's argument cell *)
  arg : float array;  (* two cells: the boxed entry points' arguments *)
  f : clocks;
  mutable serving : int;  (* tag of the job in service, -1 when idle *)
  mutable len : int;
  mutable head : int;
  (* Waiting jobs: a ring of tags and their work, capacity a power of
     two. *)
  mutable tags : int array;
  mutable works : float array;
  capacity : int;
  event : int;
  on_start : int -> unit;
  mutable epoch : int;
      (* bumped by [flush], so the completion event of an evicted job in
         service is recognized as stale *)
  mutable n_completed : int;
  mutable n_dropped : int;
  mutable n_evicted : int;
}

(* A completion event is [event lor (epoch lsl 32)], the epoch taken
   modulo 2^29 so the event stays under the engine's 2^61 bound. *)
let epoch_shift = 32
let epoch_mask = (1 lsl 29) - 1

let ignore_start (_ : int) = ()

let create engine ?(capacity = max_int) ?(on_start = ignore_start) ~event ~speed () =
  if speed <= 0.0 then invalid_arg "Station.create: non-positive speed";
  if event < 0 || event lsr epoch_shift <> 0 then invalid_arg "Station.create: event out of range";
  {
    engine;
    clock = Engine.clock engine;
    at = Engine.cell engine;
    arg = [| 0.0; 0.0 |];
    event;
    capacity;
    on_start;
    f = { rate = speed; service_end = 0.0; queued_work = 0.0; busy = 0.0 };
    tags = Array.make 4 0;
    works = Array.make 4 0.0;
    head = 0;
    len = 0;
    serving = -1;
    epoch = 0;
    n_completed = 0;
    n_dropped = 0;
    n_evicted = 0;
  }

let queue_length t = t.len + if t.serving >= 0 then 1 else 0

(* The [i]-th waiting job's ring index. *)
let slot t i = (t.head + i) land (Array.length t.tags - 1)

let start_next t =
  if t.len = 0 then t.serving <- -1
  else begin
    let i = t.head in
    let tag = t.tags.(i) and work = t.works.(i) in
    t.head <- slot t 1;
    t.len <- t.len - 1;
    t.serving <- tag;
    t.f.queued_work <- Float.max 0.0 (t.f.queued_work -. work);
    t.on_start tag;
    let service = work /. t.f.rate in
    t.f.busy <- t.f.busy +. service;
    t.f.service_end <- t.clock.(0) +. service;
    t.at.(0) <- service;
    Engine.post_cell t.engine (t.event lor ((t.epoch land epoch_mask) lsl epoch_shift))
  end

let finish t ev =
  if t.serving >= 0 && (ev lsr epoch_shift) land epoch_mask = t.epoch land epoch_mask then begin
    t.n_completed <- t.n_completed + 1;
    t.serving
  end
  else -1

let grow t =
  let cap = Array.length t.tags in
  let tags = Array.make (2 * cap) 0 and works = Array.make (2 * cap) 0.0 in
  for i = 0 to t.len - 1 do
    let j = slot t i in
    tags.(i) <- t.tags.(j);
    works.(i) <- t.works.(j)
  done;
  t.tags <- tags;
  t.works <- works;
  t.head <- 0

let enqueue t name ~tag cell =
  let work = cell.(0) in
  if not (work >= 0.0 && Float.is_finite work) then
    invalid_arg (name ^ ": work must be finite and >= 0");
  if tag < 0 then invalid_arg (name ^ ": negative tag");
  if queue_length t >= t.capacity then begin
    t.n_dropped <- t.n_dropped + 1;
    false
  end
  else begin
    if t.len = Array.length t.tags then grow t;
    let j = slot t t.len in
    t.tags.(j) <- tag;
    t.works.(j) <- work;
    t.len <- t.len + 1;
    t.f.queued_work <- t.f.queued_work +. work;
    if t.serving < 0 then start_next t;
    true
  end

let submit_cell t ~tag cell = enqueue t "Station.submit_cell" ~tag cell

let submit t ~tag ~work =
  t.arg.(0) <- work;
  enqueue t "Station.submit" ~tag t.arg

let flush t =
  let busy = if t.serving >= 0 then 1 else 0 in
  let evicted = Array.make (busy + t.len) 0 in
  if t.serving >= 0 then begin
    (* refund the unserved remainder of the busy-time we booked upfront *)
    let remaining = t.f.service_end -. t.clock.(0) in
    if remaining > 0.0 then t.f.busy <- t.f.busy -. remaining;
    t.epoch <- t.epoch + 1;
    evicted.(0) <- t.serving;
    t.serving <- -1
  end;
  for i = 0 to t.len - 1 do
    evicted.(busy + i) <- t.tags.(slot t i)
  done;
  t.head <- 0;
  t.len <- 0;
  t.f.queued_work <- 0.0;
  t.n_evicted <- t.n_evicted + Array.length evicted;
  evicted

let eta_cell t cell =
  let in_service =
    if t.serving >= 0 then Float.max 0.0 (t.f.service_end -. t.clock.(0)) else 0.0
  in
  cell.(0) <- Float.max cell.(0) (in_service +. (t.f.queued_work /. t.f.rate)) +. (cell.(1) /. t.f.rate)

let eta_after t ~after ~work =
  t.arg.(0) <- after;
  t.arg.(1) <- work;
  eta_cell t t.arg;
  t.arg.(0)

let set_speed t speed =
  if speed <= 0.0 then invalid_arg "Station.set_speed: non-positive speed";
  t.f.rate <- speed

let busy_time t = t.f.busy
let completed t = t.n_completed
let dropped t = t.n_dropped
let evicted t = t.n_evicted
