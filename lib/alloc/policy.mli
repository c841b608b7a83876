(** Glue between the cluster model and the allocators: turn per-device
    surgery plans plus a device→server assignment into fully resourced
    {!Es_edge.Decision.t}s. *)

type allocator = Minmax_alloc | Sum_sqrt | Equal | Proportional

val decisions :
  allocator ->
  Es_edge.Cluster.t ->
  assignment:int array ->
  plans:Es_surgery.Plan.t array ->
  Es_edge.Decision.t array option
(** Full pipeline: group offloading devices per assigned server, allocate,
    and emit one decision per device (device-only plans get zero grants).
    [None] propagates an infeasible {!Minmax_alloc} server. *)
