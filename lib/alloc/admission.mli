(** Admission control for overload.

    When the offered load exceeds what any allocation can stabilize, the
    remaining degree of freedom is *which* devices get served remotely.
    Rejected devices fall back to their given local plan (their requests
    never enter the network) instead of destabilizing everyone's queues.

    The policy is the classic greedy knapsack heuristic: repeatedly evict
    the offloading device with the highest load density (server + uplink
    demand per unit of value) until the min-max allocator accepts every
    server. *)

type outcome = {
  decisions : Es_edge.Decision.t array;
  served : int list;  (** device ids still offloading *)
  rejected : int list;  (** device ids forced local, eviction order *)
}

(** Deterministic token bucket for per-request rate limiting: a bucket
    starts full and every request takes one token.

    Tokens refill lazily as a pure function of the clock handed in by the
    caller (the simulator passes simulated time), so behavior is
    bit-identical under any sampling pattern and the bucket never schedules
    anything itself.  The serving runner keeps one bucket per server and —
    when the configured rate is 0 — re-derives the refill rate from the
    server's aggregate granted service capacity on every reconfiguration,
    which is what makes the limiter utilization-aware. *)
module Token_bucket : sig
  type t

  val create : rate:float -> burst:float -> unit -> t
  (** [create ~rate ~burst ()] starts full, with [burst] tokens.  [rate]
      is tokens/second.
      @raise Invalid_argument on negative or non-finite parameters. *)

  val try_take : t -> now:float -> bool
  (** Refill to [now], then take one token (a request costs one);
      [false] leaves the bucket unchanged apart from the refill. *)

  val tokens : t -> now:float -> float
  (** Balance after refilling to [now]. *)

  val set_rate : t -> now:float -> float -> unit
  (** Refill at the old rate up to [now], then switch rates. *)

  val rate : t -> float
  val burst : t -> float
end

type criterion =
  [ `Stable  (** stop once every queue is stable (no unbounded backlog) *)
  | `Deadlines
    (** keep evicting until every still-offloading device also meets its
        deadline analytically — SLO-grade admission *) ]

val control :
  ?metrics:Es_obs.Metric.registry ->
  ?weight:(Es_edge.Cluster.device -> float) ->
  ?until:criterion ->
  local_plan:(int -> Es_surgery.Plan.t) ->
  Es_edge.Cluster.t ->
  assignment:int array ->
  plans:Es_surgery.Plan.t array ->
  outcome
(** [control ~local_plan cluster ~assignment ~plans] serves the largest
    weighted set of devices satisfying [until] (default [`Stable]).
    [weight] (default 1 per device) is the value of serving a device —
    weight devices by rate to maximize served requests instead.
    [local_plan dev_id] supplies the fallback plan for an evicted device.
    Always returns a decision set: with every offloader evicted the
    allocation is trivially feasible.

    [metrics] (optional, off by default) accrues [admission/served] and
    [admission/rejected{reason=stable|deadlines}] counters per call, plus
    [admission/allocation_attempts] counting inner allocator solves. *)
