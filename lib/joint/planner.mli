(** Capacity planning: invert the optimizer.

    Operators ask the dual question of scheduling: not "what is the best we
    can do with this hardware" but "how much hardware does this workload
    need".  Both planners bisect along one axis (access-point bandwidth,
    load), solving the full joint optimization at each trial point, and
    return the boundary point (least bandwidth, most load) whose optimized
    deployment meets every deadline analytically (zero queueing-aware
    misses).

    Consecutive trial points differ only along the bisected axis, so each
    trial solve is warm-started from the nearer (log-space) bracket
    endpoint's solution — the trial is equal-or-better than a cold solve by
    {!Optimizer.solve}'s warm-start contract, and the feasibility boundary
    can only tighten.  The decision set certifying the returned provisioning
    is exposed as the [witness]. *)

type verdict = {
  required : float;  (** the provisioning level found *)
  feasible : bool;  (** false if even the upper bound fails ([required] is
                        then that bound) *)
  solves : int;  (** optimizer invocations spent *)
  witness : Es_edge.Decision.t array option;
      (** the zero-miss decision set the optimizer found at [required]
          (None when infeasible): the verdict's certificate, checkable with
          {!Objective.mm1_misses} on the cluster built at [required] *)
}

val required_bandwidth_mbps : ?config:Optimizer.config -> Es_edge.Scenario.spec -> verdict
(** Minimum access-point capacity (applied to every AP via
    {!Es_edge.Scenario.with_ap_mbps}) such that the joint optimizer finds a
    zero-miss deployment.  Searches 5–2000 Mbps, resolved to ~2%. *)

val max_supported_load :
  ?config:Optimizer.config ->
  ?hi:float ->
  Es_edge.Scenario.spec ->
  verdict
(** Largest global rate multiplier the scenario sustains with zero misses
    (the capacity region boundary along the load axis).  Default upper
    probe 32×. *)
