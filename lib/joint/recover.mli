(** Failure-aware recovery planning.

    For every failure domain (today: the loss of one server) the recovery
    planner precomputes the best response — a full re-solve of the residual
    problem with that server removed, its devices re-placed and re-granted
    on the survivors.  When a fault actually fires, recovery is then a
    table lookup plus one reconfiguration, not an optimization run in the
    detection path.

    Two consumers:
    - {!schedule_for_faults} turns a known fault schedule into a
      [reconfigure] list for {!Es_sim.Runner.run} — fallback decisions
      swap in a fixed detection delay after each crash, the original
      decisions return after repair;
    - {!run_online} is the failure-aware variant of {!Online.run}: at each
      epoch boundary it checks server availability and swaps in the
      precomputed fallback within one epoch, re-optimizing for load as
      usual while the cluster is healthy. *)

type t
(** Precomputed fallback table for one cluster. *)

val solve_without :
  ?config:Optimizer.config ->
  ?solver:Optimizer.solver ->
  ?warm_start:Es_edge.Decision.t array ->
  Es_edge.Cluster.t ->
  failed:int list ->
  Es_edge.Decision.t array
(** Best decision set with the [failed] servers removed: a fresh
    {!Optimizer.solve} on the residual cluster, server indices mapped back
    to the original cluster's numbering.  No fallback decision ever targets
    a failed server.  All servers failed degrades to
    {!Es_sim.Overload.local_decisions}.

    [warm_start] (in the {e original} cluster's server numbering, e.g. the
    healthy-cluster solution) seeds the residual solve: decisions on
    surviving servers are re-indexed, decisions on failed servers keep
    their plan but are marked for reassignment by the optimizer's
    warm-start repair.  [solver] replaces the residual {!Optimizer.solve}
    (e.g. [Es_scale.solver] at fleet scale); it receives the re-indexed
    warm incumbent and the residual cluster.
    @raise Invalid_argument on an out-of-range server index. *)

val precompute :
  ?config:Optimizer.config ->
  ?solver:Optimizer.solver ->
  ?jobs:int ->
  ?baseline:Es_edge.Decision.t array ->
  Es_edge.Cluster.t ->
  t
(** [precompute cluster] solves the single-server-loss response for every
    server, fanning the solves out over the {!Es_util.Par} pool ([jobs] as
    in {!Es_util.Par.parallel_map}; nested parallelism inside each solve
    degrades safely).  Each failure domain is warm-started from the
    healthy-cluster [baseline] decisions (solved here if not supplied;
    ignored if its arity doesn't match the cluster): losing one server
    perturbs only that server's devices, so the survivors' incumbent is a
    near-optimal seed and every fallback is equal-or-better than a cold
    residual solve.  [solver] is used for the baseline solve and every
    failure-domain re-solve, and is remembered for the multi-failure
    re-solves of {!schedule_for_faults}. *)

val baseline : t -> Es_edge.Decision.t array
(** The healthy-cluster decisions the fallback table was seeded from. *)

val fallback : t -> server:int -> Es_edge.Decision.t array
(** The precomputed response to losing [server].
    @raise Invalid_argument when out of range. *)

val schedule_for_faults :
  t ->
  ?detect_s:float ->
  decisions:Es_edge.Decision.t array ->
  Es_sim.Faults.t ->
  (float * Es_edge.Decision.t array) list
(** Reconfiguration entries for a known fault schedule: after every change
    to the set of down servers, the appropriate decisions (original when
    all are up, the precomputed fallback for a single loss, a fresh
    residual solve for multiple) apply [detect_s] seconds later
    (default 1.0 — the failure-detection delay).  Feed to
    {!Es_sim.Runner.run}'s [reconfigure] alongside the same fault schedule
    in its options. *)

val run_online :
  ?options:Es_sim.Runner.options ->
  ?config:Optimizer.config ->
  ?recover:t ->
  epoch_s:float ->
  rate_profile:(float -> float) ->
  Es_edge.Cluster.t ->
  Online.result
(** Failure-aware {!Online.run}: epochs where every server is up re-solve
    against the epoch's load; an epoch that starts with servers down (read
    from [options.faults] — an oracle detector with epoch-granularity
    reaction) swaps in the fallback decisions instead.  The fault schedule
    in [options.faults] is also injected into the simulation itself;
    [resolve_count] counts only genuine optimizer runs.  Builds its own
    fallback table unless [recover] is supplied.
    @raise Invalid_argument on a non-positive [epoch_s]. *)
