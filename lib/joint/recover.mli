(** Failure-aware recovery planning.

    For every failure domain (today: the loss of one server) the recovery
    planner precomputes the best response — a full re-solve of the residual
    problem with that server removed, its devices re-placed and re-granted
    on the survivors.  When a fault actually fires, recovery is then a
    table lookup plus one reconfiguration, not an optimization run in the
    detection path.

    {!schedule_for_faults} turns a known fault schedule into a
    [reconfigure] list for {!Es_sim.Runner.run}: fallback decisions swap in
    a fixed 1 s detection delay after each crash, and the original
    decisions return 1 s after repair. *)

type t
(** Precomputed fallback table for one cluster. *)

val solve_without :
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
    warm-start repair.
    @raise Invalid_argument on an out-of-range server index. *)

val precompute : ?jobs:int -> Es_edge.Cluster.t -> t
(** [precompute cluster] solves the single-server-loss response for every
    server, fanning the solves out over the {!Es_util.Par} pool ([jobs] as
    in {!Es_util.Par.parallel_map}; nested parallelism inside each solve
    degrades safely).  Each failure domain is warm-started from the
    healthy-cluster {!baseline} decisions, solved here: losing one server
    perturbs only that server's devices, so the survivors' incumbent is a
    near-optimal seed and every fallback is equal-or-better than a cold
    residual solve.  Every solve runs {!Optimizer.solve} under
    {!Optimizer.default_config}. *)

val baseline : t -> Es_edge.Decision.t array
(** The healthy-cluster decisions the fallback table was seeded from. *)

val fallback : t -> server:int -> Es_edge.Decision.t array
(** The precomputed response to losing [server].
    @raise Invalid_argument when out of range. *)

val schedule_for_faults :
  t ->
  decisions:Es_edge.Decision.t array ->
  Es_sim.Faults.t ->
  (float * Es_edge.Decision.t array) list
(** Reconfiguration entries for a known fault schedule: after every change
    to the set of down servers, the appropriate decisions (original when
    all are up, the precomputed fallback for a single loss, a fresh
    residual solve for multiple) apply 1 s later, the failure-detection
    delay.  Feed to {!Es_sim.Runner.run}'s [reconfigure] alongside the
    same fault schedule in its options. *)
