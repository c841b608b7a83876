(** Discrete-event simulation core: a clock and a time-ordered event list,
    held in a calendar queue ({!Es_util.Calendar_queue}, O(1) amortized per
    operation).

    Events scheduled for the same instant fire in scheduling order (the
    queue is stabilized with sequence numbers), so runs are fully
    deterministic.  The test suite replays callback programs on this engine
    and on a binary-heap reference loop and requires identical event logs. *)

type t

val create : unit -> t

val now : t -> float

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t delay f] fires [f] at [now t +. delay].
    @raise Invalid_argument on negative delay. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Absolute-time variant; clamps to the current time if in the past.
    @raise Invalid_argument on a NaN or infinite time (the calendar
    queue buckets by finite timestamps). *)

val run : ?until:float -> t -> unit
(** Drain events until the list is empty or the clock passes [until]
    (events scheduled beyond the horizon stay unexecuted and the clock
    advances to [until], never backwards: a horizon earlier than the
    current time leaves the clock where it is).  One queue operation per
    event: no separate peek-then-pop rescan per timestamp. *)

val pending : t -> int

type stats = {
  events_processed : int;  (** events popped and fired so far *)
  max_pending : int;  (** high-water mark of the future-event list *)
  pending : int;  (** events still queued *)
}

val stats : t -> stats
(** Cheap counters for throughput accounting (events/s) and obs gauges;
    reading them does not disturb the queue. *)
