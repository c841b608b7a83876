open Es_edge
open Es_alloc

(* Keyed memoization of Optimizer.solve.  The key digests everything the
   solver's output depends on — the cluster by its exact bits and the
   optimizer config except [jobs] (decisions are bit-identical for every
   jobs value, so domain count must not split the cache). *)

type t = {
  table : (int64, Optimizer.output) Es_util.Once.t;
  calls : int Atomic.t;
  builds : int Atomic.t;
}

type stats = { hits : int; misses : int }

let create () =
  { table = Es_util.Once.create (); calls = Atomic.make 0; builds = Atomic.make 0 }

let allocator_tag = function
  | Policy.Minmax_alloc -> "minmax"
  | Policy.Sum_sqrt -> "sum_sqrt"
  | Policy.Equal -> "equal"
  | Policy.Proportional -> "proportional"

let key ~config cluster =
  let h = Es_util.Fnv.create () in
  Es_util.Fnv.add_string h (Cluster.fingerprint cluster);
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
  Es_util.Fnv.value h

let solve t ?(config = Optimizer.default_config) ?metrics ?spans ?warm_start cluster =
  Atomic.incr t.calls;
  Es_util.Once.find_or_build t.table (key ~config cluster) (fun () ->
      Atomic.incr t.builds;
      Optimizer.solve ~config ?metrics ?spans ?warm_start cluster)

let stats t =
  let misses = Atomic.get t.builds in
  { hits = Atomic.get t.calls - misses; misses }
