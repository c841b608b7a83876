(** End-to-end simulation of a cluster executing a decision set.

    Each request walks: device CPU queue → (if offloading) uplink queue at
    the granted rate → server queue at the granted compute share → downlink
    of the result — all FIFO stations dedicated per device, which is exactly
    the dedicated-share semantics the allocator assumes.  Propagation delay
    (half the link RTT each way), optional per-transfer wireless fading, and
    optional log-normal compute jitter complete the model.

    With default options (no fading, no jitter) and a single in-flight
    request, the measured latency equals {!Es_edge.Latency.of_decision} —
    a property pinned by the test suite.

    {2 Faults and resilience}

    A {!Faults.t} schedule injects failures: a down server (or a link in
    outage) evicts its queued work and rejects new submissions until
    restored; degraded links and stragglers rescale station speeds.  A
    {!resilience} policy decides what a request does about it — bounded
    retries with exponential backoff from the failed phase, an optional
    per-request timeout, and an optional local fallback that re-executes
    the request on the device with the fastest device-only surgery plan
    (accuracy floors deliberately waived: a degraded answer beats a lost
    request).  Every request leaves through one exit in one of five
    outcomes — completed, completed-degraded, dropped, timed-out, or shed
    (refused at arrival by an {!Overload} policy); the first outcome wins
    over racing retries and fallbacks.  The exit feeds the breaker,
    finishes the root span ([outcome] attribute) and counts the outcome
    ({!Metrics}, live registry counters).

    Everything stays deterministic under [seed]: fault injection draws no
    simulation randomness, and with [faults = Faults.empty] and
    [resilience = None] (the defaults) the run is bit-identical to the
    pre-fault simulator — pinned by the test suite. *)

type batching = {
  max_batch : int;
  window_s : float;
  alpha : float;  (** parallelizable fraction; see {!Batcher} *)
}

type resilience = {
  timeout_factor : float;
      (** a request times out [timeout_factor ×] its device deadline after
          arrival; 0 disables the timeout.  If a local fallback is enabled
          and not yet running, the timeout starts it instead of giving up. *)
  max_retries : int;  (** failed attempts retried before falling back/dropping *)
  backoff_base_s : float;
      (** retry [k] (1-based) waits [backoff_base_s × 2{^ k-1}] *)
  local_fallback : bool;
      (** after retries are exhausted (or on timeout), re-execute on the
          device CPU with the fastest device-only plan; completions count
          as degraded *)
}

val default_resilience : resilience
(** 3× deadline timeout, 1 retry, 50 ms base backoff, local fallback on. *)

type options = {
  duration_s : float;  (** simulated horizon (default 60) *)
  warmup_s : float;  (** samples before this are discarded (default 5) *)
  seed : int;
  fading : bool;  (** draw per-transfer link fading (default false) *)
  compute_jitter : float;  (** log-normal sigma on compute times (default 0) *)
  queue_capacity : int option;  (** per-station backlog bound; [None] = unbounded *)
  batching : batching option;
      (** [Some _] replaces the per-device dedicated-share server stations
          with one {!Batcher} per server (GPU batching semantics; compute
          shares are then ignored).  Default [None].  Faults gate admission
          to a batched server but cannot evict batched work. *)
  faults : Faults.t;  (** fault schedule (default {!Faults.empty}) *)
  resilience : resilience option;
      (** per-request retry/timeout/fallback policy (default [None]:
          requests hit by a fault are dropped, as are capacity rejections) *)
  streaming : bool;
      (** collect metrics with O(1)-per-request sketches instead of raw
          sample lists (default [false]); see
          {!Metrics.create_collector} for the accuracy contract and which
          report fields come back empty *)
  overload : Overload.policy;
      (** overload protection: deadline-aware admission shedding, per-server
          circuit breakers, brownout plan degradation, and per-server token
          buckets (default {!Overload.off}).  Requests refused by any
          mechanism end in the exactly-once [shed] outcome, extending the
          conservation law to generated = completed + dropped + timed out +
          shed.  With the policy off the run is bit-identical to a build
          without overload protection — pinned by the test suite. *)
}

val default_options : options

val check_decisions :
  Es_edge.Cluster.t -> Es_edge.Decision.t array -> (unit, string) result
(** The check {!run} applies to its decisions and to every reconfiguration:
    one decision per device, finite non-negative grants, and an offloading
    decision targets a real server with bandwidth > 0 and, when its plan
    leaves server work, a compute share > 0.  [Error] names the first bad
    decision; {!run} raises [Invalid_argument] with that message. *)

val run :
  ?options:options ->
  ?metrics:Es_obs.Metric.registry ->
  ?spans:Es_obs.Span.sink ->
  ?arrivals:(float * int) array ->
  ?reconfigure:(float * Es_edge.Decision.t array) list ->
  ?work_scale:(device:int -> Es_util.Prng.t -> float) ->
  ?on_stats:(Engine.stats -> unit) ->
  Es_edge.Cluster.t ->
  Es_edge.Decision.t array ->
  Metrics.report
(** [run cluster decisions] simulates the cluster under the decision set.

    - [arrivals]: explicit (time, device) request trace, sorted by time;
      defaults to per-device Poisson processes at each device's rate, each
      drawing from its own stream split off [options.seed] and keeping
      arrivals at [t <= duration_s] ({!Es_workload.Heavy.trace} keeps
      [t < duration_s]).  The run reads the trace with a cursor, posting
      each arrival when the previous one fires, so its live state grows
      with the requests in flight, not with the trace.
    - [reconfigure]: piecewise decision changes [(t, decisions)] applied at
      time [t] — new requests use the new plans, granted rates/shares change
      for subsequently started transfers/executions (the online scheduler's
      mechanism).  At an equal timestamp, fault events apply before
      reconfigurations, which apply before arrivals.
    - [work_scale]: per-request work multiplier hook (e.g. multi-exit
      early-exit draws); applied to device and server compute.
    - [metrics]: live telemetry, every handle registered once before the
      first event — counters [requests_generated] /
      [requests_completed] / [requests_completed_degraded] /
      [requests_timed_out] / [requests_shed] /
      [requests_dropped{stage}] and the [request_latency_s] histogram,
      all counted in the report's measurement window; [segment_s{stage}]
      histograms; [queue_depth{station}] gauges; plus the end-of-run
      [report/…] gauges via {!Metrics.record_to}.  With breakers on, also
      [overload/breaker_state{server}] gauges; with brownout on,
      [overload/brownout_active{server}] gauges and an
      [overload/brownout_switches] counter.
    - [on_stats]: called once after the run drains with the engine's
      {!Engine.stats} (events processed, queue high-water mark) — the
      basis of events/s accounting.  With [metrics] set the same numbers
      also land in [engine/events_processed] / [engine/max_pending]
      gauges.
    - [spans]: per-request traces in *simulated* time — a ["request"] root
      span per request whose child segments tile [arrival, completion]
      exactly, each with a [queue_s] attribute splitting waiting from
      service.  The segments, in path order, are ["device"], ["uplink"],
      ["uplink_prop"], ["server"], ["downlink"] and ["downlink_prop"]; they
      also name the [stage] label on [segment_s] / [requests_dropped]
      metrics.  (The local-fallback re-execution is a separate
      ["fallback"] span, not a stage.)  Omitting both [metrics] and [spans]
      leaves the simulator on its uninstrumented (near-zero-cost) path.

    Decision arrays (initial and every reconfiguration) are validated up
    front: non-finite or negative grants, an out-of-range server on an
    offloading plan, or an offloading plan with no bandwidth raise
    [Invalid_argument] — bad plans fail loudly instead of being clamped.

    @raise Invalid_argument on malformed decision arrays, an [arrivals]
    entry with an out-of-range device or a negative or NaN time, an
    [arrivals] trace not sorted by time (["Runner.run: trace not sorted
    …"], raised before any event fires), a fault
    schedule referencing out-of-range devices/servers, a
    negative/non-finite resilience parameter, a non-finite
    [duration_s]/[warmup_s], a negative [warmup_s], or
    [duration_s <= warmup_s]. *)
