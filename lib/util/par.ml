(* One process-wide pool.  Workers block on a Mutex/Condition task queue;
   tasks are closures that cooperate with a per-call chunk counter, so a
   worker that dequeues a task after the call has finished finds the counter
   exhausted and returns immediately. *)

type task = unit -> unit

type pool_state = {
  m : Mutex.t;
  cv : Condition.t;
  queue : task Queue.t;
  mutable workers : unit Domain.t list;
  mutable started : bool;
  mutable stopping : bool;
}

let pool =
  {
    m = Mutex.create ();
    cv = Condition.create ();
    queue = Queue.create ();
    workers = [];
    started = false;
    stopping = false;
  }
[@@es_lint.guarded "pool.m"]

(* Marks pool workers, and the caller while it processes chunks, so nested
   parallel calls degrade to sequential instead of deadlocking on the queue. *)
let in_pool : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let inside_pool () = !(Domain.DLS.get in_pool)

let n_workers = lazy (max 1 (min 7 (Domain.recommended_domain_count () - 1)))

(* Auto-sizing for [jobs = 0]: the recommended domain count, capped.  On a
   single-core machine this is 1 — sequential — because extra domains there
   cannot add throughput and every one amplifies stop-the-world minor-GC
   synchronization.  An explicit [jobs >= 2] still spawns real domains even
   on one core (useful for exercising cross-domain code paths). *)
let default_jobs () = max 1 (min 8 (Domain.recommended_domain_count ()))

let worker () =
  Domain.DLS.get in_pool := true;
  let rec loop () =
    Mutex.lock pool.m;
    while Queue.is_empty pool.queue && not pool.stopping do
      Condition.wait pool.cv pool.m
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.m (* stopping *)
    else begin
      let t = Queue.pop pool.queue in
      Mutex.unlock pool.m;
      t ();
      loop ()
    end
  in
  loop ()

let shutdown () =
  Mutex.lock pool.m;
  pool.stopping <- true;
  Condition.broadcast pool.cv;
  let ws = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.m;
  List.iter Domain.join ws

let ensure_started () =
  Mutex.lock pool.m;
  if not pool.started then begin
    pool.started <- true;
    pool.workers <- List.init (Lazy.force n_workers) (fun _ -> Domain.spawn worker);
    at_exit shutdown
  end;
  Mutex.unlock pool.m

let submit t =
  Mutex.lock pool.m;
  Queue.add t pool.queue;
  Condition.signal pool.cv;
  Mutex.unlock pool.m

let resolve_jobs = function
  | None | Some 0 -> default_jobs ()
  | Some j when j < 1 -> 1
  | Some j -> j

(* Fork/join over [n] indices: [run_chunk lo hi] covers [lo, hi).  Chunks are
   claimed off an atomic counter by pool workers and the caller alike; a
   worker arriving late just sees the counter exhausted.  All results are
   index-addressed by the closure, so ordering is deterministic. *)
let run_indexed ~jobs ~n run_chunk =
  let nchunks = min n (jobs * 4) in
  let next = Atomic.make 0 in
  let remaining = ref nchunks in
  let done_m = Mutex.create () in
  let done_cv = Condition.create () in
  let first_exn = ref None in
  let work () =
    let flag = Domain.DLS.get in_pool in
    let saved = !flag in
    flag := true;
    let rec claim () =
      let c = Atomic.fetch_and_add next 1 in
      if c < nchunks then begin
        (try run_chunk (c * n / nchunks) ((c + 1) * n / nchunks)
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock done_m;
           if !first_exn = None then first_exn := Some (e, bt);
           Mutex.unlock done_m);
        Mutex.lock done_m;
        decr remaining;
        if !remaining = 0 then Condition.broadcast done_cv;
        Mutex.unlock done_m;
        claim ()
      end
    in
    claim ();
    flag := saved
  in
  ensure_started ();
  for _ = 2 to min jobs (nchunks + 1) do
    submit work
  done;
  work ();
  Mutex.lock done_m;
  while !remaining > 0 do
    Condition.wait done_cv done_m
  done;
  Mutex.unlock done_m;
  match !first_exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_map_array ?jobs f arr =
  let jobs = resolve_jobs jobs in
  let n = Array.length arr in
  if n = 0 then [||]
  else if jobs <= 1 || n = 1 || inside_pool () then Array.map f arr
  else begin
    let out = Array.make n None in
    run_indexed ~jobs:(min jobs n) ~n (fun lo hi ->
        for i = lo to hi - 1 do
          out.(i) <- Some (f arr.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_map ?jobs f l =
  match l with
  | [] -> []
  | [ x ] -> [ f x ]
  | l ->
      let jobs = resolve_jobs jobs in
      if jobs <= 1 || inside_pool () then List.map f l
      else Array.to_list (parallel_map_array ~jobs f (Array.of_list l))

let parallel_iter f l = ignore (parallel_map f l)
