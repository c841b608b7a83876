(** Processor classes of the heterogeneous edge.

    Sustained-throughput numbers are calibrated to the device classes used
    across the edge-inference literature (Raspberry Pi, Jetson boards,
    smartphones; CPU and GPU edge servers).  Only *relative* speeds matter
    to the reproduction — they set where partition points fall. *)

type power = {
  idle_w : float;  (** draw while waiting *)
  busy_w : float;  (** draw while computing *)
  tx_w : float;  (** radio transmit *)
  rx_w : float;  (** radio receive *)
}

type t = {
  name : string;
  perf : Es_dnn.Profile.perf;
  power : power;
  mem_bytes : float;  (** usable RAM for model weights + activations *)
}

val make :
  name:string ->
  gflops:float ->
  mem_gbps:float ->
  overhead_us:float ->
  ?power:power ->
  ?mem_gb:float ->
  unit ->
  t
(** Convenience constructor in engineering units (GFLOP/s, GB/s, µs, GB).
    Default power/memory fit a mid-size embedded board. *)

(** {1 End-device classes} *)

val iot_board : t
(** Cortex-A53-class IoT board, ~4 GFLOP/s sustained. *)

val raspberry_pi : t
(** Raspberry Pi 4 class, ~8 GFLOP/s. *)

val smartphone : t
(** Mid-range phone SoC with a small GPU/DSP, ~40 GFLOP/s. *)

val jetson_nano : t
(** Jetson Nano GPU, ~120 GFLOP/s sustained fp32. *)

(** {1 Edge-server classes} *)

val edge_cpu : t
(** Many-core CPU server, ~600 GFLOP/s. *)

val edge_gpu_small : t
(** Entry GPU (GTX-1080-class), ~2.5 TFLOP/s sustained. *)

val edge_gpu : t
(** Server GPU (2080Ti/T4-class), ~6 TFLOP/s sustained. *)

val scaled : t -> float -> t
(** [scaled p f] multiplies compute and memory throughput by [f]; used by
    the heterogeneity-skew experiments. *)
