type t = {
  engine : Engine.t;
  max_batch : int;
  window_s : float;
  alpha : float;
  speed : float;
  event : int;
  (* Waiting jobs: a ring of tags and their work, capacity a power of
     two. *)
  mutable tags : int array;
  mutable works : float array;
  mutable head : int;
  mutable len : int;
  batch : int array;  (* tags of the batch in service, the first [batch_len] *)
  mutable batch_len : int;
  mutable busy : bool;
  mutable deadline_armed : bool;
  busy_total : float array;  (* one cell, stored unboxed *)
  mutable n_completed : int;
  mutable n_batches : int;
}

(* A batch completion posts [event]; a collection-window deadline posts
   [event lor window_bit]. *)
let window_bit = 1 lsl 32

let create engine ?(max_batch = 8) ?(window_s = 5e-3) ?(alpha = 0.7) ~event ~speed () =
  if speed <= 0.0 then invalid_arg "Batcher.create: non-positive speed";
  if max_batch <= 0 then invalid_arg "Batcher.create: non-positive max_batch";
  if window_s <= 0.0 then invalid_arg "Batcher.create: non-positive window";
  if alpha < 0.0 || alpha >= 1.0 then invalid_arg "Batcher.create: alpha outside [0,1)";
  if event < 0 || event >= window_bit then invalid_arg "Batcher.create: event out of range";
  {
    engine;
    max_batch;
    window_s;
    alpha;
    speed;
    event;
    tags = Array.make 8 0;
    works = Array.make 8 0.0;
    head = 0;
    len = 0;
    batch = Array.make max_batch 0;
    batch_len = 0;
    busy = false;
    deadline_armed = false;
    busy_total = [| 0.0 |];
    n_completed = 0;
    n_batches = 0;
  }

let mask t = Array.length t.tags - 1

let launch t =
  let k = min t.max_batch t.len in
  if k > 0 && not t.busy then begin
    t.busy <- true;
    t.n_batches <- t.n_batches + 1;
    let total_work = ref 0.0 in
    for i = 0 to k - 1 do
      let j = (t.head + i) land mask t in
      t.batch.(i) <- t.tags.(j);
      total_work := !total_work +. t.works.(j)
    done;
    t.head <- (t.head + k) land mask t;
    t.len <- t.len - k;
    t.batch_len <- k;
    let efficiency = 1.0 -. t.alpha +. (t.alpha /. float_of_int k) in
    let service = !total_work *. efficiency /. t.speed in
    t.busy_total.(0) <- t.busy_total.(0) +. service;
    (Engine.cell t.engine).(0) <- service;
    Engine.post_cell t.engine t.event
  end

let arm_window t =
  if not t.deadline_armed then begin
    t.deadline_armed <- true;
    Engine.post t.engine t.window_s (t.event lor window_bit)
  end

let fire t ev =
  if ev land window_bit <> 0 then begin
    t.deadline_armed <- false;
    if not t.busy then launch t;
    0
  end
  else begin
    t.n_completed <- t.n_completed + t.batch_len;
    t.batch_len
  end

let finished t i = t.batch.(i)

let resume t =
  t.busy <- false;
  t.batch_len <- 0;
  (* Back-to-back launch when a full batch is already waiting; otherwise
     re-arm the collection window. *)
  if t.len >= t.max_batch then launch t else if t.len > 0 then arm_window t

let submit t ~tag ~work =
  if not (work >= 0.0 && Float.is_finite work) then
    invalid_arg "Batcher.submit: work must be finite and >= 0";
  if tag < 0 then invalid_arg "Batcher.submit: negative tag";
  if t.len = Array.length t.tags then begin
    let cap = Array.length t.tags in
    let tags = Array.make (2 * cap) 0 and works = Array.make (2 * cap) 0.0 in
    for i = 0 to t.len - 1 do
      let j = (t.head + i) land mask t in
      tags.(i) <- t.tags.(j);
      works.(i) <- t.works.(j)
    done;
    t.tags <- tags;
    t.works <- works;
    t.head <- 0
  end;
  let j = (t.head + t.len) land mask t in
  t.tags.(j) <- tag;
  t.works.(j) <- work;
  t.len <- t.len + 1;
  if (not t.busy) && t.len >= t.max_batch then launch t else if not t.busy then arm_window t

let queue_length t = t.len
let busy_time t = t.busy_total.(0)
let completed t = t.n_completed
let batches t = t.n_batches
