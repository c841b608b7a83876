(** Comparator policies.

    Every baseline is a function [Cluster.t -> Decision.t array] producing a
    decision set the simulator and the analytic model evaluate on identical
    footing with the joint optimizer.  Decision rules follow the published
    systems each baseline stands for:

    - {!device_only} — all inference local, unmodified model (the no-edge
      strawman every paper in this line opens with);
    - {!exit_local} — BranchyNet-style: local execution but with the best
      early exit/width meeting the device's accuracy floor;
    - {!server_only} — full offload of the raw input, equal resource split;
    - {!neurosurgeon} — partition-only: per-device latency-optimal cut of
      the unmodified model under fair-share resources, equal allocation
      (Kang et al., ASPLOS'17 decision rule);
    - {!surgery_only} — EdgeSurgeon's surgery loop but naive (equal)
      allocation: the first ablation arm;
    - {!alloc_only} — no surgery (Neurosurgeon cuts frozen) but optimal
      min-max allocation and assignment: the second ablation arm;
    - {!random_policy} — random accuracy-feasible plan, random server,
      demand-proportional allocation: the sanity floor. *)

type t = {
  name : string;
  solve : Es_edge.Cluster.t -> Es_edge.Decision.t array;
}

val device_only : t
val exit_local : t
val server_only : t
val neurosurgeon : t
val surgery_only : t
val alloc_only : t
val random_policy : int -> t
(** Seeded. *)

val edgesurgeon : t
(** The joint optimizer under its default configuration, packaged like the
    baselines so harnesses can iterate over one list. *)

val all : unit -> t list
(** Every policy above, EdgeSurgeon last; the random policy is seeded
    with 11. *)

val fair_share_plans :
  ?exits:int option list ->
  ?precisions:Es_surgery.Precision.t list ->
  widths:float list ->
  Es_edge.Cluster.t ->
  assignment:int array ->
  Es_surgery.Plan.t array
(** Helper used by several baselines: per-device best plan under fair-share
    grant estimates at the assigned server. *)
