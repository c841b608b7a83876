(** Surgery plans: the unit of decision of the joint optimizer.

    A plan fixes the three surgery knobs for one model:
    - [exit_node] — truncate the base graph after this node and attach a
      lightweight exit head (global-pool + FC for classifiers, 1×1 conv for
      detectors); [None] keeps the full depth;
    - [width] — slim the truncated network by a channel multiplier;
    - [precision] — numeric precision ({!Precision.t}): quantization shrinks
      transfers and speeds up compute at a small accuracy cost;
    - [cut] — partition position in the *executed* graph: nodes before the
      cut run on the device, the rest on an edge server, the crossing
      activations are shipped uplink.

    The executed graph is materialized concretely (via {!Es_dnn.Graph}), so
    every cost below is an exact layer-walk, not an estimate of an
    estimate. *)

type t = private {
  base_name : string;  (** zoo name of the unmodified model *)
  width : float;
  exit_node : int option;  (** node id in the base graph; [None] = full depth *)
  precision : Precision.t;
  graph : Es_dnn.Graph.t;  (** the executed (truncated, width-scaled) graph *)
  cut : int;  (** in [0, n_nodes graph] *)
  depth_frac : float;  (** FLOPs of the truncated graph / FLOPs of the base *)
  accuracy : float;  (** from {!Accuracy.predict} *)
}

val make :
  ?width:float -> ?exit_node:int -> ?precision:Precision.t -> ?cut:int -> Es_dnn.Graph.t -> t
(** [make base] builds a plan.  Defaults: full width, full depth, fp32, and
    [cut = 0] (full offload).  [cut] defaults apply after truncation; pass
    [cut = n_nodes] of the executed graph for device-only execution — use
    {!device_only} / {!server_only} for the common cases.
    @raise Invalid_argument for an invalid exit node (not one of the base
    graph's exit candidates or its output), width outside (0, 1], or a cut
    outside range. *)

val device_only : Es_dnn.Graph.t -> t
(** The unmodified model (full width and depth, fp32) executing entirely
    on the device (cut at the end). *)

val server_only : Es_dnn.Graph.t -> t
(** The unmodified model offloaded whole (cut at 0; the raw input is
    shipped). *)

val with_cut : t -> int -> t
(** Same surgery, different partition point. *)

val truncate_at : Es_dnn.Graph.t -> int -> Es_dnn.Graph.t
(** [truncate_at base id] — the prefix of [base] up to and including node
    [id], with a fresh exit head attached.  Exposed for tests and for
    multi-exit model construction ({!Multi_exit}). *)

(** {1 Costs} *)

val dev_flops : t -> float
val srv_flops : t -> float
val transfer_bytes : t -> float
(** Uplink bytes: activations crossing the cut at the plan's precision
    (raw input when [cut = 0], 0 when fully on-device). *)

val result_bytes : t -> float
(** Downlink bytes: the final output tensor, 0 when fully on-device. *)

val device_mem_bytes : t -> float
(** Device-side memory footprint: the prefix's weights at the plan's
    precision plus double the largest activation (in/out buffers).  Used
    against {!Es_edge.Processor.t.mem_bytes} — a VGG-16 at fp32 simply does
    not fit a 512 MB IoT board, forcing offload or quantization. *)

val device_time : Es_dnn.Profile.perf -> t -> float
(** Exact layer-walk execution time of the device-side prefix, at the
    plan's precision. *)

val server_time : Es_dnn.Profile.perf -> t -> float
(** Exact layer-walk execution time of the server-side suffix, at full
    (unshared) speed; the allocator divides by the compute share. *)

val is_device_only : t -> bool
val is_server_only : t -> bool

val describe : t -> string
(** e.g. ["resnet50 w=1.00 exit=full cut=57/177"]. *)
