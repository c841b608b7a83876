(** Calendar queue: a bucketed priority queue with O(1) amortized insert
    and pop-min (Brown 1988), keyed by float priority.

    The future-event list of the discrete-event simulator.  Priorities map
    to a ring of time buckets of uniform [width]; pop scans forward from
    the last-popped bucket, so a schedule whose events are spread within a
    few bucket widths of the current time — the steady state of a
    simulation — pays a constant number of bucket probes per operation
    where a binary heap pays O(log n) comparisons.  The bucket array is
    resized (and the width re-estimated from sampled inter-event gaps)
    when the population doubles or quarters, keeping occupancy near one
    event per bucket; a far-future jump past a whole empty lap of the
    calendar falls back to a direct minimum search that repositions the
    scan.

    Ties pop in insertion order (entries carry a sequence number), exactly
    like the binary heap the test suite keeps as the reference oracle for
    this module. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push q prio v] inserts [v] with priority [prio]; smaller pops first,
    equal priorities pop in insertion order.
    @raise Invalid_argument when [prio] is negative, NaN or infinite
    (simulation timestamps are finite and non-negative; the bucket index
    of an infinite priority is meaningless). *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element. *)

val pop_exn : 'a t -> float * 'a
(** @raise Invalid_argument when empty. *)

val pop_before : 'a t -> float -> (float * 'a) option
(** [pop_before q horizon] pops the minimum element if its priority is
    [<= horizon], else returns [None] and leaves the queue intact — the
    single-scan primitive behind [Engine.run ?until] (no separate peek
    then pop). *)

val peek : 'a t -> (float * 'a) option

val clear : 'a t -> unit

val to_sorted_list : 'a t -> (float * 'a) list
(** Non-destructive: elements in pop order (priority, then insertion). *)

