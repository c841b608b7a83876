(** Glue between the cluster model and the allocators: turn per-device
    surgery plans plus a device→server assignment into fully resourced
    {!Es_edge.Decision.t}s.

    One array path serves every caller.  {!stage} lays the offloading
    devices out once, grouped by server, with their {!Minmax.items} fields
    and the per-device latency terms; {!allocate} runs a rule over that
    layout into flat grant arrays; {!decisions_of} builds the decision
    array.  The joint optimizer's allocation step stages once, scores
    several rules' grants straight from the arrays and builds decisions
    only for the winner; {!decisions} is the one-rule pipeline. *)

type allocator = Minmax_alloc | Sum_sqrt | Equal | Proportional

type staged = private {
  cluster : Es_edge.Cluster.t;
  assignment : int array;
  plans : Es_surgery.Plan.t array;
  offloaders : int;  (** devices whose plan offloads: the number of slots *)
  items : Minmax.items;
      (** the allocators' inputs, one slot per offloader, grouped by server
          in device order; [work_s] is the server time on the assigned
          server *)
  first : int array;
      (** server [s]'s offloaders fill slots [first.(s) .. first.(s + 1) − 1] *)
  slot : int array;  (** device → its slot, or −1 when its plan is device-only *)
  device_s : float array;  (** per device: on-device compute time *)
  up_bytes : float array;  (** per slot: uplink bytes per request *)
  down_bytes : float array;  (** per slot: downlink (result) bytes per request *)
  theta : float array;  (** the min-max solver's θ cell *)
}
(** The arrays are borrowed from {!Es_util.Scratch} and may be longer than
    the device or slot counts; read only the documented prefixes. *)

val stage :
  Es_edge.Cluster.t -> assignment:int array -> plans:Es_surgery.Plan.t array -> staged
(** Borrows the layout's arrays; pair with {!release}, in LIFO order with
    any other scratch borrow.
    @raise Invalid_argument when [assignment] or [plans] does not cover
    every device or an offloader's server is out of range (nothing is
    borrowed then). *)

val release : staged -> unit

val allocate : allocator -> staged -> bw:float array -> share:float array -> bool
(** Runs the rule on every server with offloaders, in server order, writing
    each slot's bandwidth grant into [bw] and compute share into [share]
    (both at least [offloaders] long).  [false] as soon as {!Minmax_alloc}
    finds a server with no stable allocation; the share rules always
    succeed.  On success the grants pass {!Es_edge.Decision.make}'s checks.
    @raise Invalid_argument with {!Es_edge.Decision.make}'s message, at the
    first device in index order whose grant it would reject. *)

val decisions_of : staged -> bw:float array -> share:float array -> Es_edge.Decision.t array
(** One decision per device from grants {!allocate} produced: device-only
    plans get zero grants and server [max 0 assignment]. *)

val decisions :
  allocator ->
  Es_edge.Cluster.t ->
  assignment:int array ->
  plans:Es_surgery.Plan.t array ->
  Es_edge.Decision.t array option
(** Full pipeline: stage, allocate, and emit one decision per device.
    [None] propagates an infeasible {!Minmax_alloc} server. *)
