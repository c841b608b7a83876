(** Sharded hierarchical JMSRA solver: per-server subproblems under a
    dual-price coordination layer.

    The monolithic {!Es_joint.Optimizer} couples every device through its
    assignment step; here the coupling is priced instead.  An outer loop
    owns the device→server assignment and per-server dual prices on AP
    bandwidth and server compute.  Each server's (surgery plan, bandwidth,
    compute-share) subproblem over its assigned devices is an independent
    {!Es_joint.Optimizer.solve} ({!Shard}), dispatched as whole-shard tasks
    across the {!Es_util.Par} pool and warm-started per shard.  Between
    rounds, prices ascend on utilization above target and devices make
    best-response moves against price-augmented latency estimates.

    Termination and feasibility: rounds are capped by [max_sweeps]; after
    the first stitch, a round is kept only on strict global-objective
    improvement, else the loop reverts to the best snapshot and stops.
    Every stitched result is a full decision set built from feasible shard
    solves, so the solver always terminates feasible.

    Determinism: fixed ascending sweep orders, lowest-index tie-breaks,
    [jobs = 1] inner solves and input-order shard merges make the output
    bit-identical for every [jobs] value. *)

module Shard = Shard

type config = {
  shard : Es_joint.Optimizer.config;
      (** per-shard solver configuration; its [jobs] is forced to 1 *)
  max_sweeps : int;  (** coordination rounds cap for a full solve, >= 1 *)
  delta_sweeps : int;
      (** extra rounds after the first on a {!Delta.apply} re-solve, >= 0 *)
  jobs : int;  (** shard fan-out parallelism; 0 = auto *)
}

val default_config : config
(** [max_sweeps = 3], [delta_sweeps = 1], [jobs = 0]; the shard config is
    {!Es_joint.Optimizer.default_config} with a single trajectory
    ([multi_start = false]) — inter-shard coordination replaces multi-start
    diversification.  The coordination constants are fixed: dual prices
    step by 0.5 per unit of utilization above a 0.75 target, a device
    migrates only when the target beats staying put by 5%, and at most 32
    devices migrate per sweep. *)

val shard_config : config -> Es_joint.Optimizer.config
(** The exact per-shard optimizer config a solve uses: [cfg.shard] with
    [jobs] forced to 1.  Exposed so tests can reproduce single-shard
    solves bit-exactly. *)

type output = {
  decisions : Es_edge.Decision.t array;
  objective : float;
  assignment : int array;  (** final device→server assignment *)
  sweeps : int;  (** coordination rounds run *)
  shard_solves : int;  (** inner solves dispatched (dirty shards only) *)
  moves : int;  (** accepted best-response migrations *)
  solve_time_s : float;
}

val solve :
  ?config:config ->
  ?cache:Es_joint.Solve_cache.t ->
  ?warm_start:Es_edge.Decision.t array ->
  ?assignment:int array ->
  Es_edge.Cluster.t ->
  output
(** Solve the cluster by sharded coordination.  [warm_start] follows the
    monolithic solver's contract (wrong arity ignored); [assignment] seeds
    the device→server map (wrong arity or range ignored) — absent both,
    the assignment is {!Es_joint.Optimizer.cold_start}'s under the shard
    config.
    [cache] memoizes shard solves by sub-cluster fingerprint, so untouched
    shards re-solve as lookups.
    @raise Invalid_argument on an empty cluster or a nonsensical config. *)

val solver :
  ?config:config -> ?cache:Es_joint.Solve_cache.t -> unit -> Es_joint.Optimizer.solver
(** An {!Es_joint.Optimizer.solver} adapter for {!Es_joint.Online.run} and
    {!Es_joint.Recover}: each call re-solves sharded, carrying the previous
    call's assignment forward as the seed.  The returned closure is
    stateful; make one per episode. *)

(** Incremental re-solves: join / leave / rate-change events touch one
    shard, so only the affected shard(s) are re-solved (plus up to
    [delta_sweeps] coordination rounds to let neighbours react). *)
module Delta : sig
  type event =
    | Join of Es_edge.Cluster.device
        (** device ids are re-numbered by position; the joining device is
            appended and seeded on the least-loaded server *)
    | Leave of int  (** remove device [i]; later devices shift down by one *)
    | Rate_change of int * float  (** device [i]'s mean rate becomes [r] *)

  type state

  val init :
    ?config:config -> ?cache:Es_joint.Solve_cache.t -> Es_edge.Cluster.t -> state
  (** Full sharded solve; the starting point for a delta sequence. *)

  val apply : state -> event -> state
  (** Apply one event: rebuild the cluster, mark the touched shard(s)
      dirty, and coordinate for [1 + delta_sweeps] rounds starting from the
      carried-over decisions.  The first stitched result is accepted
      unconditionally (the cluster just changed, so the old objective is
      not comparable); with [delta_sweeps = 0] the result is exactly a
      re-solve of the touched shard stitched into the incumbent.
      @raise Invalid_argument on an out-of-range device, a non-positive
      rate, or removing the last device. *)

  val cluster : state -> Es_edge.Cluster.t
  val output : state -> output
end

(** {1 Observability} *)

type counters = { sweeps : int; shard_solves : int; moves : int; delta_events : int }

val counters : unit -> counters
(** Cumulative process-wide totals across all solves since start (or the
    last {!reset_counters}); never read back by the solver. *)

val reset_counters : unit -> unit
