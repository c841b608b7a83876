(** FIFO service station.

    Models any sequential resource: a device CPU, a device's granted slice
    of an access point, or its granted share of a server.  Work is expressed
    in abstract units; the station's [speed] converts units to seconds
    (service time = units / speed), so reconfiguring the speed (e.g. the
    online scheduler changing a bandwidth grant) affects jobs that start
    after the change.

    A job is an int [tag] (the runner's request id) and its work; the
    waiting jobs sit in a flat ring, so queueing allocates nothing.  Work
    and estimates cross the interface in float cells ({!submit_cell},
    {!eta_cell}), the station reads the engine's clock cell and posts its
    completions through the engine's cell ({!Engine.post_cell}), so a job
    allocates nothing from submission to completion; {!submit} and
    {!eta_after} are the same paths behind boxed floats.  A job's
    completion is a data event on the engine ({!Engine.post_cell}):
    [event lor (epoch lsl 32)], where [event] is fixed at {!create} and the
    epoch (modulo 2{^29}) changes at every {!flush}.  The engine's handler
    passes it back to {!finish}, handles the returned job, then calls
    {!start_next}.

    An optional queue capacity drops arrivals when the backlog (including
    the job in service) is full — overload experiments count these drops. *)

type t

val create :
  Engine.t ->
  ?capacity:int ->
  ?on_start:(int -> unit) ->
  event:int ->
  speed:float ->
  unit ->
  t
(** [on_start tag] is called when a job leaves the queue and begins
    service (telemetry uses it to split waiting from service time); for a
    job submitted to an idle station it fires within {!submit} itself.
    @raise Invalid_argument on non-positive speed, or unless
    [0 <= event < 2{^32}]. *)

val submit : t -> tag:int -> work:float -> bool
(** [submit st ~tag ~work] enqueues a job needing [work] units.  Returns
    [false] (and drops the job) when the station is at capacity.
    Zero-work jobs complete at the current instant but still pass through
    the queue discipline and the engine.
    @raise Invalid_argument unless [work] is finite and [>= 0], or on a
    negative tag. *)

val submit_cell : t -> tag:int -> float array -> bool
(** [submit_cell st ~tag c] is [submit st ~tag ~work:c.(0)], with the
    work read from a float cell, so it is not boxed.
    @raise Invalid_argument as {!submit} does. *)

val finish : t -> int -> int
(** [finish st ev] takes one of [st]'s completion events and returns the
    tag of the job in service, or [-1] when [ev] is stale (its job was
    evicted by a {!flush} since).  The job stays in service, and counts in
    {!queue_length}, until {!start_next}: exactly one of a completion and
    an eviction ever happens to a job. *)

val start_next : t -> unit
(** Start the next waiting job, if any; call once after each job that
    {!finish} returned has been handled. *)

val flush : t -> int array
(** [flush st] evicts every queued job and cancels the job in service (its
    already-booked busy time is refunded for the unserved remainder), and
    returns the evicted tags, the job in service first, then in FIFO
    order.  The station is idle and empty on return, so the caller may
    resubmit.  Fault injection uses this when a server crashes or a link
    goes dark. *)

val set_speed : t -> float -> unit
(** Takes effect for subsequently started jobs. *)

val queue_length : t -> int
(** Jobs waiting or in service. *)

val eta_after : t -> after:float -> work:float -> float
(** [eta_after st ~after ~work]: seconds from now until a hypothetical
    [work]-unit job completes, when it can start no earlier than [after]
    seconds from now nor before the current backlog (remaining service of
    the job in service plus all waiting work) clears at the current speed
    — the admission controller's per-station estimate, one pipeline stage
    at a time.  Exact for a dedicated FIFO station absent future speed
    changes and evictions. *)

val eta_cell : t -> float array -> unit
(** [eta_cell st c] is {!eta_after} through a two-slot cell: it reads
    [~after] from [c.(0)] and [~work] from [c.(1)], and writes the
    estimate to [c.(0)], so a chain of stages passes it along unboxed. *)

val busy_time : t -> float
(** Cumulative seconds the station has been serving jobs. *)

val completed : t -> int

val dropped : t -> int
(** Arrivals rejected at capacity (does not include evictions). *)

val evicted : t -> int
(** Jobs thrown away by {!flush}. *)
