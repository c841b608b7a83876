(** Measurement collection for simulation runs. *)

type device_stats = {
  generated : int;  (** requests arriving inside the measurement window *)
  completed : int;
  degraded : int;
      (** completions served by the local-fallback path (subset of
          [completed]) *)
  dropped : int;  (** rejected at a full queue, or lost to a fault *)
  timed_out : int;  (** expired before completing (resilience timeout) *)
  shed : int;
      (** refused at arrival by overload protection (admission estimate,
          open breaker with shedding, or rate limit) — never entered a
          queue *)
  deadline_hits : int;
  latency : Es_util.Stats.t;  (** end-to-end latency of completed requests *)
  samples : float array;  (** raw latency samples, completion order *)
}

type report = {
  per_device : device_stats array;
  latencies : float array;  (** all completed-request latencies pooled *)
  dsr : float;
      (** deadline-satisfaction ratio: hits / generated — requests that
          never completed (still queued at the horizon, dropped, timed
          out, or shed) count as misses *)
  dsr_admitted : float;
      (** hits / (generated − shed): deadline satisfaction over the
          requests the system actually accepted.  Equal to [dsr] when
          nothing was shed; 1.0 when everything was. *)
  mean_latency_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  total_generated : int;
  total_completed : int;
  total_degraded : int;
  total_dropped : int;
  total_timed_out : int;
  total_shed : int;
  server_utilization : float array;  (** busy fraction per server *)
  measured_duration_s : float;
  events : (float * float) array;
      (** pooled (completion time, latency) pairs in completion order, for
          timeline plots *)
  event_hits : (float * bool) array;
      (** pooled (resolution time, deadline hit?) pairs over every request
          outcome — completions at completion time, drops at drop time,
          timeouts and sheds at arrival time — so recovery-timeline plots
          see the damage window, not just the surviving completions *)
}

type collector

val create_collector :
  ?streaming:bool -> n_devices:int -> window_start:float -> window_end:float -> unit -> collector
(** [streaming] (default [false]) selects O(1)-per-request accumulation:
    latency samples feed a pooled Welford accumulator plus a fixed-size
    log-bucketed histogram sketch ({!Es_obs.Histogram}, default geometry)
    instead of per-request lists, so memory stays constant however many
    requests the run generates.

    Tolerance contract of a streaming report versus the exact collector on
    the same run — pinned by the test suite:
    - all counts ([total_*], per-device counters, [deadline_hits]) and
      therefore [dsr] are {b exactly} equal;
    - [mean_latency_s] agrees to float rounding (Welford vs. pooled-array
      summation order);
    - [p50_s]/[p95_s]/[p99_s] agree within one sketch bucket, i.e. a
      relative error bounded by the bucket growth factor (≈ ±4.5%);
    - the raw-sample fields are empty ([samples], [latencies], [events],
      [event_hits] are [[||]]) — consumers that need them (plot exports)
      must use the exact collector. *)

val on_arrival : collector -> device:int -> now:float -> unit
val on_drop : collector -> device:int -> now:float -> unit

val on_shed : collector -> device:int -> now:float -> unit
(** A request refused at arrival by overload protection.  [now] is its
    arrival time, so the conservation law extends to
    generated = completed + dropped + timed out + shed. *)

val on_timeout : collector -> device:int -> arrival:float -> unit
(** A request that expired without completing; attributed to its arrival
    time (like completions) so in-window conservation holds:
    generated = completed + dropped + timed out once the run drains. *)

val on_completion_cell :
  collector -> degraded:bool -> device:int -> float array -> unit
(** [on_completion_cell c ~degraded ~device cell] records a completion
    whose arrival, completion time and deadline are [cell.(0)],
    [cell.(1)] and [cell.(2)]: read from a float cell, they are not
    boxed, and a streaming collector records the completion without
    allocating.  [degraded] marks a completion served by the
    local-fallback path after the offload plan failed; it still counts
    toward [completed] (and toward [deadline_hits] if it met the
    deadline). *)

val on_completion :
  collector -> device:int -> arrival:float -> now:float -> deadline:float -> unit -> unit
(** [on_completion c ~device ~arrival ~now ~deadline ()] is
    {!on_completion_cell} of a completion that is not degraded, its
    floats written into a cell of [c]. *)

val finalize :
  collector -> server_busy:float array -> duration:float -> report
(** [server_busy] is cumulative busy seconds per server over the whole run;
    utilization is normalized by the measurement window. *)

val conserved : report -> bool
(** The five-term conservation law: every generated request ended in
    exactly one outcome, generated = completed + dropped + timed out + shed
    (degraded completions count as completed). *)

val report_to_json : report -> Es_obs.Json.t
(** One [kind="report"] JSON object: totals, quantiles, per-server
    utilization and a per-device summary array, for machine consumers. *)

val record_to : Es_obs.Metric.registry -> report -> unit
(** Mirror the report's summary into gauges ([report/dsr],
    [report/p99_s], [report/server_utilization{server=…}], …) so a metrics
    snapshot contains the end-of-run view alongside live counters. *)
