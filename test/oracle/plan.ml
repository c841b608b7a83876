(* [Es_surgery.Plan]'s device and server times as they were computed before
   the cost table took a precision scale: through a precision-applied perf
   record, one table row per such record. *)

open Es_surgery

let device_time perf (p : Plan.t) =
  Es_dnn.Profile.range_latency (Precision.apply p.Plan.precision perf) p.Plan.graph ~lo:0
    ~hi:p.Plan.cut

let server_time perf (p : Plan.t) =
  Es_dnn.Profile.range_latency (Precision.apply p.Plan.precision perf) p.Plan.graph
    ~lo:p.Plan.cut ~hi:(Es_dnn.Graph.n_nodes p.Plan.graph)
