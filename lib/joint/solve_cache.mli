(** Keyed memoization of {!Optimizer.solve}.

    Every repeated-solve consumer in the system — {!Online.run} revisiting a
    load level, {!Es_scale} re-solving an untouched shard — re-pays a full
    block-coordinate descent for an input it has already solved.  This
    cache closes that loop: a solve is keyed by everything its output
    depends on and the memoized {!Optimizer.output} is returned
    bit-identically on a hit.

    {b Key.} An FNV-1a digest over the exact bits of
    {!Es_edge.Cluster.fingerprint} (devices, servers, links, models, rates,
    deadlines, floors) and the optimizer config — excluding [jobs], whose
    value never changes the output (the solver's determinism contract), so
    sequential and parallel callers share entries.

    {b Storage.} An {!Es_util.Once} table, the same build-once table as the
    candidate and pool caches: it may be shared across domains, and
    callers racing on a key wait for the one solve in flight.

    {b When the cache is bypassed.} Callers that must observe telemetry of
    the actual descent (spans) should call {!Optimizer.solve} directly — a
    cache hit emits no spans and runs no trajectories. *)

type t

type stats = { hits : int; misses : int  (** solves actually run *) }

val create : unit -> t

val solve :
  t ->
  ?config:Optimizer.config ->
  ?metrics:Es_obs.Metric.registry ->
  ?spans:Es_obs.Span.sink ->
  ?warm_start:Es_edge.Decision.t array ->
  Es_edge.Cluster.t ->
  Optimizer.output
(** Memoized {!Optimizer.solve}: on a hit the cached output is returned
    bit-identically (no trajectories run, no spans emitted, [solve_time_s]
    is the original solve's); on a miss the solve runs — with [warm_start]
    passed through — and the result is stored.  [warm_start] is a hint, not
    part of the key: whichever equal-or-better landing point was computed
    first is the entry. *)

val stats : t -> stats
(** Calls answered from the table, and solves run, since [create]. *)
