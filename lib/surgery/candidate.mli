(** Surgery-candidate generation.

    Enumerates the full (exit × width × cut) plan space of a model and
    prunes it to the Pareto frontier under
    (device FLOPs, transfer bytes, server FLOPs, −accuracy) — the four
    quantities every latency/accuracy objective is monotone in.  The joint
    optimizer then only ever scans this frontier. *)

val default_widths : float list
(** [1.0; 0.75; 0.5] — the standard slimmable-network operating points. *)

val exit_nodes : Es_dnn.Graph.t -> int option list
(** The exit decisions available on a model: each flagged exit candidate,
    plus [None] (full depth). *)

val default_precisions : Precision.t list
(** [Fp32; Int8] — fp16 adds little over this pair for the optimizer. *)

val generate :
  ?widths:float list ->
  ?exits:int option list ->
  ?precisions:Precision.t list ->
  Es_dnn.Graph.t ->
  Plan.t list
(** Every (exit, width, precision, cut) plan.  Cut positions are all of
    [0 .. n_nodes] of each executed graph.  Plans sharing (exit, width)
    share their executed graph, so generation is O(exits·widths) graph
    builds plus O(total cuts) records. *)

val plan_key : Plan.t -> float array
(** The plan's frontier key, all minimized: (device FLOPs, transfer bytes,
    server FLOPs) with the FLOPs divided by the precision's
    {!Precision.compute_scale}, then −accuracy. *)

val pareto : Plan.t list -> Plan.t list
(** Non-dominated plans under (dev_flops, transfer_bytes, srv_flops,
    −accuracy), all minimized. *)

val pareto_candidates :
  ?widths:float list ->
  ?exits:int option list ->
  ?precisions:Precision.t list ->
  Es_dnn.Graph.t ->
  Plan.t list
(** [pareto (generate g)], memoized process-wide ({!Es_util.Once}) by model
    name and structure, the exact bits of every width, the exits and the
    precisions — candidate sets are queried once per model per experiment
    but reused across devices and sweep points. *)

val clear_cache : unit -> unit
(** Drop the memoized candidate sets; results never change, only cost. *)

val subsample : int -> Plan.t list -> Plan.t list
(** [subsample k plans] keeps at most [k] plans, evenly spaced over the
    list (first and last always kept).  Used to bound the exhaustive
    solver's search space and to run the heuristic over the identical grid
    for optimality-gap measurements. *)

