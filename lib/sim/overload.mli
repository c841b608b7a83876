(** Overload-protection policy for the serving runner.

    Four independently switchable mechanisms, all off by default so the
    fault-free golden run stays byte-identical, all driven purely by
    simulated time with zero extra RNG draws:

    - {b deadline-aware admission}: shed a request at arrival when the
      backlog-based completion estimate already exceeds its latency budget
      ([timeout_factor ×] deadline under a resilience policy, the bare
      deadline otherwise);
    - {b per-server circuit breakers}: a rolling failure-rate window trips
      the breaker; while open, new offloads are rerouted to the local plan
      (or shed), and half-open probes re-close it after a cooldown;
    - {b brownout}: a backlog-watermark controller that swaps incoming
      devices onto cheaper pre-computed plans under pressure and restores
      the optimal plans once the backlog drains (hysteresis between the
      two watermarks);
    - {b rate limiting}: a per-server token bucket
      ({!Es_alloc.Admission.Token_bucket}) refilled at the server's
      capacity-derived service rate.

    Requests refused by any mechanism end in the exactly-once [shed]
    outcome, extending the conservation law to
    [generated = completed + dropped + timed_out + shed]
    (degraded completions remain a subset of [completed]). *)

type admission = {
  slack : float;
      (** shed when the completion estimate exceeds [slack ×] the latency
          budget; > 1 sheds later (more optimistic), < 1 sheds earlier *)
}

val default_admission : admission
(** [slack = 1.0]. *)

type breaker_cfg = {
  window : int;  (** rolling outcome window per server *)
  failure_rate : float;  (** trip at this failure fraction, in (0, 1] *)
  min_samples : int;  (** no trip before this many outcomes are in the window *)
  cooldown_s : float;  (** open → half-open after this long *)
  half_open_probes : int;  (** consecutive probe successes required to re-close *)
  shed_on_open : bool;
      (** [true] sheds requests while open; [false] (default) reroutes them
          to the device's local plan *)
}

val default_breaker : breaker_cfg
(** window 32, trip at 50% failures (min 8 samples), 5 s cooldown, 3
    probes, reroute-local. *)

type brownout_mode =
  | Local_only  (** swap to the fastest device-only plan (server bypassed) *)
  | Min_server
      (** keep offloading but swap to the Pareto plan with the least server
          work (falls back to [Local_only] for devices with no offloading
          candidate) *)

type brownout_cfg = {
  high_watermark : int;  (** per-server queued jobs that engage brownout *)
  low_watermark : int;  (** backlog at or below this restores optimal plans *)
  check_every_s : float;  (** controller sampling period (simulated time) *)
  mode : brownout_mode;
}

val default_brownout : brownout_cfg
(** engage at 32 queued jobs, release at 8, sampled every 0.5 s, local-only
    swaps. *)

type rate_limit = {
  rate_per_server : float;
      (** token refill rate in requests/s per server; 0 derives the rate
          from the server's aggregate granted service capacity (re-derived
          on every reconfiguration and straggler fault, making the limiter
          utilization-aware) *)
  burst : float;  (** bucket depth in tokens *)
}

val default_rate_limit : rate_limit
(** capacity-derived rate, burst 20. *)

type policy = {
  admission : admission option;
  breaker : breaker_cfg option;
  brownout : brownout_cfg option;
  rate_limit : rate_limit option;
}

val off : policy
(** All four mechanisms disabled — the default; {!Runner.run} under [off]
    is bit-identical to a build without overload protection. *)

val is_off : policy -> bool

val validate : policy -> unit
(** @raise Invalid_argument on out-of-range parameters (non-positive
    slack, failure rate outside (0,1], inverted watermarks, …). *)

val of_specs :
  admission:string option ->
  breaker:string option ->
  brownout:string option ->
  shed:string option ->
  (policy, string) result
(** The policy of [edgesim run]'s [--admission SLACK],
    [--breaker W:F:C:P], [--brownout HIGH:LOW:PERIOD] and
    [--shed RATE:BURST] flags: [None] leaves a mechanism off; each spec is
    colon-separated fields, and an empty or missing field takes the
    default above, so [Some ""] arms a mechanism with its defaults.  The
    result is {!validate}d; a malformed field or out-of-range value gives
    [Error] with a message naming the flag. *)

(** {2 Degraded-plan selection}

    Shared by the runner's local fallback, its breaker and brownout
    reroutes, and [Es_joint.Recover], so every degraded path picks the same
    plans. *)

val fastest_local : Es_edge.Cluster.device -> Es_surgery.Plan.t
(** The device's fastest device-only Pareto plan, ignoring its accuracy
    floor (first wins on ties); the bare device-only plan when the frontier
    has none. *)

val local_decisions : Es_edge.Cluster.t -> Es_edge.Decision.t array
(** Per device, a device-only decision (placement fields unused) on the
    fastest device-only Pareto plan meeting its accuracy floor, or failing
    that on {!fastest_local}. *)

val min_server_plan : Es_edge.Cluster.device -> Es_surgery.Plan.t option
(** The offloading Pareto plan with the least server work (floor-meeting
    plans preferred); [None] when every candidate is device-only. *)

(** {2 Circuit breaker}

    A deterministic per-server state machine over simulated time:
    [Closed] → (failure rate over the rolling window ≥ threshold) → [Open]
    → (cooldown elapsed) → [Half_open] → (probe successes) → [Closed], or
    (probe failure) → [Open] again. *)

module Breaker : sig
  type state = Closed | Half_open | Open

  type t

  val create : ?on_transition:(state -> unit) -> breaker_cfg -> t
  (** [on_transition] fires on every state change (gauge exports). *)

  val state : t -> state

  val opens : t -> int
  (** Times the breaker has tripped. *)

  val state_code : state -> int
  (** Gauge encoding: Closed 0, Half_open 1, Open 2. *)

  val allow : t -> now:float -> bool
  (** May this request proceed to the server?  [Closed]: always.  [Open]:
      false until the cooldown elapses, at which point the breaker moves to
      [Half_open] and admits the first probe.  [Half_open]: true while
      fewer than [half_open_probes] probes are in flight. *)

  val record : t -> now:float -> ok:bool -> unit
  (** Report an attempt outcome (server-stage completion, failure, or
      timeout).  Ignored while [Open]; in [Half_open] a failure re-opens
      immediately and enough successes re-close. *)
end
