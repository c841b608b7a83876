open Es_edge
open Es_alloc

(* Keyed memoization of Optimizer.solve.  The key fingerprints everything
   the solver's output depends on — cluster structure, the rate vector
   (quantized to [rate_grain]) and the optimizer config except [jobs]
   (decisions are bit-identical for every jobs value, so domain count must
   not split the cache).  Entries are held in a mutex-protected bounded LRU
   (same domain-safety posture as Candidate.cache): the store is shared by
   parallel consumers such as Recover.precompute's fan-out. *)

type entry = { output : Optimizer.output; mutable last_use : int }

type t = {
  capacity : int;
  rate_grain : float;
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  obs_hits : Es_obs.Metric.counter option;
  obs_misses : Es_obs.Metric.counter option;
  obs_evictions : Es_obs.Metric.counter option;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let default_capacity = 64
let default_rate_grain = 1e-6

let create ?(capacity = default_capacity) ?(rate_grain = default_rate_grain) ?metrics () =
  if capacity <= 0 then invalid_arg "Solve_cache.create: non-positive capacity";
  if rate_grain < 0.0 then invalid_arg "Solve_cache.create: negative rate_grain";
  let c name = Option.map (fun reg -> Es_obs.Metric.counter reg name) metrics in
  {
    capacity;
    rate_grain;
    table = Hashtbl.create 32;
    lock = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    obs_hits = c "solve_cache/hits";
    obs_misses = c "solve_cache/misses";
    obs_evictions = c "solve_cache/evictions";
  }

let capacity t = t.capacity
let rate_grain t = t.rate_grain

let allocator_tag = function
  | Policy.Minmax_alloc -> "minmax"
  | Policy.Sum_sqrt -> "sum_sqrt"
  | Policy.Equal -> "equal"
  | Policy.Proportional -> "proportional"

let fingerprint t ~config cluster =
  let h = Es_util.Fnv.create () in
  Es_util.Fnv.add_string h (Cluster.fingerprint ~rate_grain:t.rate_grain cluster);
  List.iter (Es_util.Fnv.add_float h) config.Optimizer.widths;
  Es_util.Fnv.add_int h (List.length config.Optimizer.widths);
  List.iter
    (fun p -> Es_util.Fnv.add_string h (Es_surgery.Precision.name p))
    config.Optimizer.precisions;
  Es_util.Fnv.add_int h config.Optimizer.max_iters;
  Es_util.Fnv.add_string h (allocator_tag config.Optimizer.allocator);
  Es_util.Fnv.add_int h config.Optimizer.local_search_passes;
  Es_util.Fnv.add_int h (Option.value config.Optimizer.max_candidates ~default:(-1));
  Es_util.Fnv.add_bool h config.Optimizer.multi_start;
  (* config.jobs deliberately excluded: output is jobs-invariant. *)
  Es_util.Fnv.to_hex h

let bump c = Option.iter Es_obs.Metric.inc c

let find t key =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some e ->
        t.tick <- t.tick + 1;
        e.last_use <- t.tick;
        t.hits <- t.hits + 1;
        Some e.output
    | None ->
        t.misses <- t.misses + 1;
        None
  in
  Mutex.unlock t.lock;
  (match r with Some _ -> bump t.obs_hits | None -> bump t.obs_misses);
  r

let store t key output =
  Mutex.lock t.lock;
  let evicted = ref 0 in
  if not (Hashtbl.mem t.table key) then begin
    while Hashtbl.length t.table >= t.capacity do
      (* O(n) LRU scan: capacities are tens of entries, eviction is rare. *)
      let victim = ref None in
      (* Min over last_use ticks, which are unique, so the victim is the
         same whatever order the table yields entries.  es_lint: sorted *)
      Hashtbl.iter
        (fun k e ->
          match !victim with
          | Some (_, lu) when lu <= e.last_use -> ()
          | _ -> victim := Some (k, e.last_use))
        t.table;
      match !victim with
      | Some (k, _) ->
          Hashtbl.remove t.table k;
          t.evictions <- t.evictions + 1;
          incr evicted
      | None -> assert false (* table non-empty inside the loop *)
    done;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.table key { output; last_use = t.tick }
  end;
  Mutex.unlock t.lock;
  for _ = 1 to !evicted do
    bump t.obs_evictions
  done

let solve t ?(config = Optimizer.default_config) ?metrics ?spans ?warm_start cluster =
  let key = fingerprint t ~config cluster in
  match find t key with
  | Some out -> out
  | None ->
      let out = Optimizer.solve ~config ?metrics ?spans ?warm_start cluster in
      store t key out;
      out

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      entries = Hashtbl.length t.table;
    }
  in
  Mutex.unlock t.lock;
  s

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.table;
  Mutex.unlock t.lock
