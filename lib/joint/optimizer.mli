(** EdgeSurgeon's joint optimizer (JMSRA): block-coordinate descent over
    model surgery and resource allocation.

    Each outer iteration performs:

    + {b Allocation step} — with surgery fixed, every server's bandwidth and
      compute split is solved optimally by the convex min-max allocator
      ({!Es_alloc.Minmax}); when a server's offered load admits no stable
      allocation, a proportional split stands in for this iteration so the
      surgery step can shed load.
    + {b Surgery step} — with grants fixed, each device scans its Pareto
      candidate set ({!Es_surgery.Candidate}) for the plan minimizing its
      latency subject to its accuracy floor and the queueing-stability
      conditions.  Devices without grants (device-only in the previous
      round) evaluate offloading against a fair-share estimate so they can
      re-enter.
    + {b Assignment step} — devices are re-placed by load-balanced greedy
      construction plus move/swap local search on a cheap load proxy.

    The best feasible configuration seen is kept; the loop stops when the
    objective stops improving or after [max_iters].  Complexity per
    iteration is O(D·C + S·A) for D devices with C candidates each and A
    the allocator's bisection cost — polynomial, matching the paper-style
    claim, vs. the exponential exhaustive search that experiment T2 and its
    test property compare against. *)

type config = {
  widths : float list;  (** width-multiplier grid for surgery candidates *)
  precisions : Es_surgery.Precision.t list;  (** quantization levels on offer *)
  max_iters : int;  (** outer-loop bound (default 12) *)
  allocator : Es_alloc.Policy.allocator;  (** inner step (default Minmax) *)
  local_search_passes : int;
  max_candidates : int option;
      (** cap each device's Pareto set (evenly subsampled); [None] = full.
          Used to compare against the exhaustive search on an identical
          plan grid *)
  jobs : int;
      (** domains for the trajectory fan-out (see [multi_start]): [1]
          sequential, [0] (the default) auto-sizes from
          {!Es_util.Par.default_jobs}.  Decisions and objective are
          bit-identical for every [jobs] value — the trajectories are
          deterministic and independent.  Regardless of [jobs], the fan-out
          runs sequentially when the solve is too fine-grained to win
          (fewer than 32 devices) or when jobs auto-sizing reports a
          single usable core — dispatch overhead then exceeds the overlap
          (the fine-grain loss measured in [BENCH_solver.json]); only
          timing changes, never decisions *)
  multi_start : bool;
      (** [true] (the default): the cold descent trajectory, then the
          equal-share one when [allocator] is [Minmax_alloc], then the warm
          one when an incumbent is given, merged in that order (a later
          trajectory wins only by scoring strictly better).  [false]:
          exactly one trajectory, warm when an incumbent is given and cold
          otherwise — for callers that supply diversity across many
          solves, e.g. {!Es_scale}'s shards.  A lone trajectory's output is
          returned unchanged *)
}

val default_config : config

type trace_point = {
  iteration : int;
  objective : float;
  misses : int;
  mean_latency_s : float;
}

type output = {
  decisions : Es_edge.Decision.t array;
  objective : float;
  iterations : int;  (** outer iterations actually run *)
  trace : trace_point list;  (** objective after each iteration, in order *)
  solve_time_s : float;
      (** wall-clock optimizer runtime ({!Es_obs.Obs.wall_clock}): elapsed
          time for the whole solve, including parallel trajectories *)
}

val solve :
  ?config:config ->
  ?metrics:Es_obs.Metric.registry ->
  ?spans:Es_obs.Span.sink ->
  ?warm_start:Es_edge.Decision.t array ->
  Es_edge.Cluster.t ->
  output
(** Always returns a decision set: if even full degradation cannot
    stabilize a server, the offending devices fall back to device-only
    execution (their requests never enter the network).

    [warm_start] seeds the warm descent trajectory (see [multi_start]) from
    an incumbent decision set (the previous epoch's deployment, a bisection
    bracket endpoint, the pre-failure baseline).  The incumbent is
    validated and repaired first: a stale plan (device model changed)
    reverts to its {!cold_start} plan, a decision referencing an
    out-of-range server (downed or renumbered) is re-pointed at the
    fastest surviving server; an incumbent of the wrong arity is ignored
    entirely.  Under multi-start the result is equal-or-better than the
    cold solve by construction and bit-identical to it on an exact
    objective tie.

    Telemetry (both optional, off by default): [metrics] accrues
    [optimizer/iterations] (summed across multi-start trajectories), the
    [optimizer/iteration_objective] histogram, and the final
    [optimizer/objective] / [optimizer/solve_time_s] gauges — the gauges are
    written once per solve from the chosen landing point, so they always
    agree with the returned output regardless of which trajectory won.
    [spans] receives one [optimizer/solve] root span per trajectory
    (wall-clock) with an [optimizer/iteration] child per outer iteration
    carrying objective / misses / mean-latency / feasibility attributes;
    under parallel multi-start the sink is serialized internally.

    @raise Invalid_argument on an empty cluster. *)

type solver = warm:Es_edge.Decision.t array option -> Es_edge.Cluster.t -> output
(** The shape of a drop-in replacement for {!solve} as used by the epoch
    and recovery drivers ({!Online.run}, {!Recover}): given an optional
    incumbent and a cluster, produce a full decision set.  Implemented by
    the sharded solver ([Es_scale.solver]). *)

val clear_pool_cache : unit -> unit
(** Drop the process-wide candidate pools (archetype-keyed: model ×
    device processor × server perf vector × candidate knobs).  The cache
    never changes results, only solve cost; exposed for benchmarks that
    need cold-start timings. *)

val best_allocation :
  ?allocator:Es_alloc.Policy.allocator ->
  Es_edge.Cluster.t ->
  assignment:int array ->
  plans:Es_surgery.Plan.t array ->
  Es_edge.Decision.t array option
(** The allocation step in isolation: the primary allocator's grants, plus —
    when the primary is the min-max solver — the queueing-stable share rules,
    keeping whichever scores best on {!Objective} (the primary on a tie).
    [None] when nothing stable exists.  The offloaders are staged once
    ({!Es_alloc.Policy.stage}); each rule writes flat grant arrays, is
    stability-checked and scored from them in {!Objective.of_decisions}'
    operation order, and only the winner becomes a decision array, so the
    result is bit-identical to building and scoring every rule's decisions.
    The exhaustive search of experiment T2 evaluates every configuration
    through this same function so the heuristic and the optimal search rank
    allocations identically. *)

val best_plan_for_grants :
  ?exits:int option list ->
  ?precisions:Es_surgery.Precision.t list ->
  widths:float list ->
  Es_edge.Cluster.t ->
  device:int ->
  server:int ->
  bandwidth_bps:float ->
  compute_share:float ->
  Es_surgery.Plan.t
(** The surgery step for one device, exposed for tests and baselines: the
    latency-minimizing stable candidate of the device's whole pool (no
    subsampling) meeting the accuracy floor under the given grants, with
    {!best_scored}'s fallbacks when there is none. *)

type pool
(** One device archetype's candidates and their precomputed per-plan
    invariants, the unit the surgery step scans: one record of flat arrays
    indexed by candidate (the plans, the device-only and fits-in-RAM flags,
    device time, transfer and result bytes, uplink-plus-downlink bits and
    accuracy as unboxed float arrays) and one server-major array of
    per-server work. *)

val device_pool :
  ?exits:int option list ->
  ?max_candidates:int ->
  ?precisions:Es_surgery.Precision.t list ->
  widths:float list ->
  Es_edge.Cluster.t ->
  device:int ->
  pool
(** The device's candidate pool, built once per archetype (model × device
    processor × server perf vector × candidate knobs) and cached
    process-wide (see {!clear_pool_cache}). *)

val best_scored :
  Es_edge.Cluster.t ->
  device:int ->
  server:int ->
  pool ->
  bandwidth_bps:float ->
  compute_share:float ->
  Es_surgery.Plan.t
(** The surgery step over a prebuilt pool — the solver's innermost loop:
    the first plan of least latency among the stable candidates meeting the
    accuracy floor, else among those meeting it, else among the stable
    ones, else among all.  Once a stable candidate meeting the floor is
    seen, later candidates whose device time alone is not below its latency
    are skipped unscored, which is exact (latency is device time plus
    non-negative terms).  It is the zero-allocation kernel: a steady-state
    call performs no minor-heap allocation at all (asserted by the
    Alloc_probe test; the alloc gate in [bench/perf_gate.exe] budgets the
    full solve around it). *)

val fastest_server : Es_edge.Cluster.server array -> int
(** The highest-FLOP/s server, lowest index on ties: the anchor for cold
    starts and for re-pointing decisions at vanished servers. *)

val cold_start :
  ?pools:pool array -> config -> Es_edge.Cluster.t -> Es_surgery.Plan.t array * int array
(** The cold starting point of a descent: each device's best plan under a
    fair share (1 / max 1 (devices / servers)) of the fastest server's
    bandwidth and compute, and the {!Es_alloc.Assign.balanced_greedy}
    placement of those plans.  [pools] holds the devices' {!device_pool}s
    under [config] when the caller has them; they are looked up otherwise. *)

val force_feasible :
  config -> Es_edge.Cluster.t -> Es_surgery.Plan.t array -> int array ->
  Es_edge.Decision.t array option
(** Last-resort degradation: flip the heaviest offloaders to device-only
    (mutating [plans]) until the allocator accepts the assignment.  Exposed
    for the oracle test. *)

val load_proxy : Es_edge.Cluster.t -> plans:Es_surgery.Plan.t array -> int array -> float
(** The local-search load proxy (worst server's max of bandwidth and
    compute load).  [load_proxy cluster ~plans] tabulates every offloader's
    bandwidth and compute load on every server once; the returned evaluator
    sums the assigned cells into its own two per-server accumulators,
    reset on each call, so an evaluation allocates only its result.  The
    evaluator reads [plans] as they were at the table build and is not
    safe to share across domains. *)

