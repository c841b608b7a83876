(** Analytic (contention-free) end-to-end latency of a decision.

    This is the objective the optimizer manipulates:
    device compute + uplink transfer + server compute at the granted share +
    downlink of the result.  Queueing under load is measured by {!Es_sim};
    a property test pins this estimator to the simulator in the single
    in-flight request case. *)

type breakdown = {
  device_s : float;
  uplink_s : float;
  server_s : float;
  downlink_s : float;
}

val breakdown : Cluster.t -> Decision.t -> breakdown

val total : breakdown -> float

val of_decision : Cluster.t -> Decision.t -> float
(** The end-to-end latency, computed straight-line (no intermediate
    {!breakdown} record) — the optimizer's hottest scalar.  Bit-identical
    to [total (breakdown c d)] on every input (qcheck-asserted). *)

val meets_deadline : Cluster.t -> Decision.t -> bool

val server_load : Cluster.t -> Decision.t array -> float array
(** Per-server offered load: Σ λ_i · server-work_i / capacity — must stay
    below the compute shares granted for the system to be stable. *)

val server_load_into : Cluster.t -> Decision.t array -> float array -> unit
(** {!server_load} into a caller-owned buffer of length ≥ n_servers
    (cleared first) — the allocation-free form for per-iteration use. *)

val device_stable : Cluster.t -> Decision.t -> bool
(** λ_i · (device service time) < 1 and, when offloading, λ_i · (server
    service time at its share) < 1 — the queueing-stability conditions. *)

val mm1_estimate : Cluster.t -> Decision.t -> float
(** Queueing-aware expected latency: every stage's service time is inflated
    by the M/M/1 sojourn factor 1/(1−ρ) at that stage's utilization
    (ρ = rate × service time), matching the dedicated-share FIFO stations
    of the simulator under Poisson arrivals.  [infinity] when any stage is
    saturated.  This is what SLO-grade admission control must test — the
    plain analytic latency is the zero-load limit and is optimistic under
    contention. *)

val deadline_satisfaction : Cluster.t -> Decision.t array -> float
(** Fraction of devices whose analytic latency meets their deadline. *)

val mean_latency : Cluster.t -> Decision.t array -> float
