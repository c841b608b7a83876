(** Fixed-size domain pool for deterministic fork/join parallelism.

    A single process-wide pool of worker domains (spawned lazily on first
    parallel call, joined at exit) serves every [parallel_map]-style call in
    the program.  Calls are fork/join: the caller chunks its input, pool
    workers and the caller itself claim chunks off a shared counter, and
    results land in index-addressed slots — so the output order is always the
    input order, independent of scheduling.

    Determinism contract: for a pure [f], [parallel_map ~jobs f xs] returns
    exactly [List.map f xs] for every [jobs].  Effectful [f]s observe the
    usual caveats (side effects run concurrently and unordered); callers that
    need reproducible randomness must pre-split PRNG streams per element
    before the fan-out ({!Prng.split}).

    Nesting is safe and cheap: a parallel call made from inside a pool task
    (or from a worker domain) degrades to plain sequential [List.map], so
    parallel code can call parallel code without deadlocking or
    oversubscribing the machine. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], capped at 8.  This is what [~jobs:0]
    and an omitted [?jobs] resolve to — on a single-core machine it is 1, so
    auto-sized calls run sequentially there (extra domains cannot add
    throughput and only amplify stop-the-world GC synchronization).  An
    explicit [jobs >= 2] always uses real domains. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ~jobs f xs] maps [f] over [xs] on up to [jobs] domains
    (including the calling one).  [jobs] ≤ 1 (or a nested call) runs
    sequentially; [jobs] = 0 or omitted means {!default_jobs}.  Result order
    is input order.  If any application raises, the first exception (in
    completion order) is re-raised in the caller after all chunks settle. *)

val parallel_map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array variant of {!parallel_map}; same contract. *)

val parallel_iter : ?jobs:int -> ('a -> unit) -> 'a list -> unit
(** [parallel_map] for effects only. *)

val inside_pool : unit -> bool
(** True while executing on a pool worker or inside a chunk the caller is
    processing — i.e. when a nested parallel call would run sequentially.
    Exposed for tests. *)
