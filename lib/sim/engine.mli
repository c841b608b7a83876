(** Discrete-event simulation core: a clock and a time-ordered event list,
    held in a calendar queue ({!Es_util.Calendar_queue}, O(1) amortized per
    operation).

    An event is either a closure ({!schedule}) or a data event: a plain
    int ({!post}) that {!run} hands to its [handle] function.  The
    simulator's per-request hops are data events, so posting and firing
    one allocates nothing; closures suit one-off entries such as a fault
    schedule.

    Times cross into the engine and the queue in float cells, never as
    boxed arguments: the clock is the cell {!clock}, and {!post_cell}
    reads its delay from the engine's cell {!cell}.  A caller that keeps
    its times in float arrays posts without allocating; {!now} and
    {!post} are the same paths behind a boxed float.

    Both kinds share one queue and one sequence counter: events for the
    same instant fire in posting order, whatever their kind, so runs are
    fully deterministic.  A data event may instead take a sequence number
    reserved earlier ({!reserve}, {!post_at_seq}); it then fires as if
    posted at the reservation.  The test suite replays callback programs on this
    engine and on a binary-heap reference loop and requires identical
    event logs. *)

type t

val create : unit -> t

val now : t -> float

val clock : t -> float array
(** The one-cell array the engine keeps its current time in: [(clock t).(0)]
    is [now t], read without boxing it.  Read it; never write it. *)

val cell : t -> float array
(** The engine's one-cell argument: write a delay into [.(0)], then call
    {!post_cell}.  Every post and schedule overwrites it. *)

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t delay f] fires [f] at [now t +. delay].
    @raise Invalid_argument unless [delay] is finite and [>= 0]. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Absolute-time variant; clamps to the current time if in the past.
    @raise Invalid_argument on a NaN or infinite time (the calendar
    queue buckets by finite timestamps). *)

val post : t -> float -> int -> unit
(** [post t delay ev] queues data event [ev] for [now t +. delay].  The
    meaning of [ev] belongs to the caller (the runner packs an event kind
    and a request, station or trace index into it).
    @raise Invalid_argument unless [delay] is finite and [>= 0] and
    [0 <= ev <= max_int lsr 1]. *)

val post_cell : t -> int -> unit
(** [post_cell t ev] is [post t (cell t).(0) ev]: the delay comes from
    the engine's cell, so posting allocates nothing.  {!post} writes its
    argument into the cell and calls it.
    @raise Invalid_argument as {!post} does. *)

val post_at : t -> float -> int -> unit
(** Absolute-time variant of {!post}; clamps like {!schedule_at}. *)

val reserve : t -> int -> int
(** [reserve t n] sets aside the next [n] sequence numbers of the event
    list and returns the first, [base]; events posted or scheduled later
    fire after all of them at an equal time.  See {!post_at_seq}.
    @raise Invalid_argument when [n] is negative. *)

val post_at_seq : t -> float -> seq:int -> int -> unit
(** [post_at_seq t time ~seq ev] queues data event [ev] like {!post_at},
    under the reserved sequence number [seq] instead of a fresh one, so it
    fires exactly where it would have, had it been posted when [seq] was
    reserved.  A producer with a long time-sorted run of events (the
    runner's trace arrivals) reserves one number per event up front and
    posts each event only when the previous one fires: the event list then
    holds one of them at a time, and the firing order is unchanged.
    @raise Invalid_argument as {!post_at} does, or when [seq] was never
    reserved. *)

val run : ?handle:(int -> unit) -> t -> unit
(** Drain events until the list is empty; the clock is left at the last
    event's time.  Closure events are called; data events are passed to
    [handle], which must be given when any is queued.  One queue operation
    per event: no separate peek-then-pop rescan per timestamp, and no
    allocation to pop.
    @raise Invalid_argument on a data event without [handle]. *)

val pending : t -> int

type stats = {
  events_processed : int;  (** events popped and fired so far *)
  max_pending : int;  (** high-water mark of the future-event list *)
  pending : int;  (** events still queued *)
}

val stats : t -> stats
(** Cheap counters for throughput accounting (events/s) and obs gauges;
    reading them does not disturb the queue. *)
