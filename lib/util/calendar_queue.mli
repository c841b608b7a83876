(** Calendar queue: a bucketed priority queue with O(1) amortized insert
    and pop-min (Brown 1988), keyed by float priority, carrying an int
    payload per entry.

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
    this module.  A caller may also {!reserve} a block of sequence numbers
    and push into it later ({!push_seq}): such an entry pops where it
    would have, had it been pushed when the block was reserved.

    Payloads are ints (the simulator's events are ints, see
    [Es_sim.Engine]), so entries live in flat arrays: once the slot pool
    and the bucket array have grown to the run's high-water mark, a push
    or a {!pop_into} allocates nothing.  A drained queue keeps its pool
    for the next push.  {!push_from} and {!push_seq_from} take the
    priority from a float cell, as {!pop_into} returns it, so a caller
    holding it unboxed (in a float array) does not box it to push. *)

type t

val create : unit -> t

val length : t -> int
val is_empty : t -> bool

val push : t -> float -> int -> unit
(** [push q prio v] inserts payload [v] with priority [prio]; smaller pops
    first, equal priorities pop in insertion order.
    @raise Invalid_argument when [prio] is negative, NaN or infinite
    (simulation timestamps are finite and non-negative; the bucket index
    of an infinite priority is meaningless), or when [v] is negative. *)

val push_from : t -> float array -> int -> unit
(** [push_from q at v] is [push q at.(0) v]: the one insertion path, with
    the priority read from a float cell.  {!push} writes its argument into
    a cell of [q] and calls it.
    @raise Invalid_argument as {!push} does. *)

val reserve : t -> int -> int
(** [reserve q n] sets aside the next [n] sequence numbers and returns the
    first, [base]: later {!push}es tie-break after all of them.  An entry
    pushed with {!push_seq} at [base + i] pops exactly where it would have
    had it been pushed, with that priority, at the moment of the
    reservation, so a producer can hand over a sorted run of entries one
    at a time without changing the pop order.
    @raise Invalid_argument when [n] is negative. *)

val push_seq : t -> float -> seq:int -> int -> unit
(** [push_seq q prio ~seq v] inserts [v] like {!push}, but with the
    sequence number [seq] taken from an earlier {!reserve} in place of the
    next fresh one.  Each reserved number should be pushed at most once;
    equal keys would pop in an unspecified order.
    @raise Invalid_argument as {!push} does, or when [seq] is negative or
    was never handed out. *)

val push_seq_from : t -> float array -> seq:int -> int -> unit
(** [push_seq_from q at ~seq v] is [push_seq q at.(0) ~seq v], with the
    priority read from a float cell like {!push_from}.
    @raise Invalid_argument as {!push_seq} does. *)

val pop_into : t -> float array -> int
(** [pop_into q at] pops the minimum entry: it stores the priority in
    [at.(0)] and returns the payload.  On an empty queue it returns [-1]
    and leaves [at] intact.  The single-scan, allocation-free primitive
    behind [Engine.run] (no separate peek then pop); the priority goes
    through a float array because a returned float would be boxed. *)

val pop : t -> (float * int) option
(** Remove and return the minimum-priority entry. *)

val pop_exn : t -> float * int
(** @raise Invalid_argument when empty. *)

val clear : t -> unit

val to_sorted_list : t -> (float * int) list
(** Non-destructive: entries in pop order (priority, then insertion). *)
