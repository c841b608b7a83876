(** Online operation: periodic re-optimization under time-varying load.

    Real edge load is non-stationary; EdgeSurgeon's online mode re-runs the
    joint optimizer every epoch against the load level observed at the epoch
    boundary and pushes the new decisions into the running system (new
    requests use the new plans; grants change for subsequent transfers).
    This is the mechanism behind the load-burst timeline experiment (F10). *)

type result = {
  report : Es_sim.Metrics.report;
  schedule : (float * Es_edge.Decision.t array) list;
      (** decisions applied at each epoch boundary (including t = 0) *)
  resolve_count : int;  (** optimizer solves attempted (one per epoch) *)
  resolve_rejected : int;
      (** epoch solves discarded by the guard: a re-solve whose output
          {!Es_sim.Runner.check_decisions} refuses, or that is strictly
          worse under the epoch's load than keeping the previous decisions,
          leaves the previous decisions in place *)
  cache_hits : int;
      (** epoch solves answered by the solve cache (0 without [cache]) *)
}

val scale_rates : Es_edge.Cluster.t -> float -> Es_edge.Cluster.t
(** Cluster with every device's request rate multiplied.
    @raise Invalid_argument unless the multiplier and every scaled rate are
    positive and finite. *)

val run :
  ?options:Es_sim.Runner.options ->
  ?cache:Solve_cache.t ->
  ?solver:Optimizer.solver ->
  ?warm_start:bool ->
  epoch_s:float ->
  rate_profile:(float -> float) ->
  Es_edge.Cluster.t ->
  result
(** Simulate [options.duration_s] seconds, re-optimizing every [epoch_s]
    (under {!Optimizer.default_config}) against the profile value at the
    epoch start, over arrivals drawn from the same profile by
    {!Es_workload.Heavy.trace} (seeded with [options.seed]).

    [warm_start] (default true) seeds every epoch re-solve from the
    incumbent — the decisions actually applied at the previous epoch — so
    each re-solve is equal-or-better than a cold one under the epoch's
    load.  [cache] memoizes epoch solves keyed on the scaled cluster:
    diurnal or bursty profiles revisit load levels constantly, and a
    revisited level is then a lookup, not a descent.  The per-epoch guard
    is unchanged: malformed or worsening candidates leave the incumbent in
    place.

    [solver] replaces the epoch solve wholesale (e.g. [Es_scale.solver] for
    the sharded path); it receives the warm incumbent and the scaled
    cluster.  When given, [cache] is not consulted by [run] itself — a
    sharded solver carries its own config and may consult the same cache
    per shard ([cache_hits] then stays 0 unless the solver was built over
    this cache).  The guard still applies to its output.

    @raise Invalid_argument on a non-positive or NaN [epoch_s] or a NaN
    [duration_s]. *)

val run_static :
  ?options:Es_sim.Runner.options ->
  rate_profile:(float -> float) ->
  Es_edge.Cluster.t ->
  result
(** Control arm: {!run} with one epoch spanning the run — one optimization
    at the nominal (t = 0) load, never revisited, over the identical
    arrival trace. *)
