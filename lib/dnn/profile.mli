(** Per-processor latency prediction.

    A processor is summarized by a roofline-style performance model: layer
    execution time is the max of its compute time (FLOPs / throughput) and
    its memory time (bytes moved / bandwidth), plus a fixed per-layer
    dispatch overhead.  This is the standard substitute for on-device layer
    profiling (Neurosurgeon builds exactly such per-layer latency predictors)
    and preserves the property surgery decisions depend on: compute-heavy
    layers scale with device FLOPS while cheap layers are overhead/bandwidth
    bound. *)

type perf = {
  flops_per_s : float;  (** sustained dense-compute throughput *)
  mem_bytes_per_s : float;  (** memory bandwidth *)
  layer_overhead_s : float;  (** fixed per-layer dispatch cost *)
}

val perf : flops_per_s:float -> mem_bytes_per_s:float -> layer_overhead_s:float -> perf
(** @raise Invalid_argument on non-positive throughput or bandwidth. *)

val layer_latency : perf -> Graph.t -> int -> float
(** Seconds to execute one node of the graph on the processor. *)

val range_latency : perf -> Graph.t -> lo:int -> hi:int -> float
(** Seconds to execute nodes with ids in [lo, hi) sequentially. *)

val scaled_range_latency : perf -> scale:float -> Graph.t -> lo:int -> hi:int -> float
(** [range_latency] on [perf] with its compute and memory throughput
    multiplied by [scale] and its per-layer overhead kept: the speed of a
    reduced-precision execution, priced without building the scaled
    record.  Bit-identical to [range_latency] on that record. *)

val total_latency : perf -> Graph.t -> float
(** Whole-model single-inference latency. *)

val layer_bytes_touched : Graph.t -> int -> float
(** Bytes read + written by a node (inputs, output, parameters; fp32). *)
