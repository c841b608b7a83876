(** Binary min-heap keyed by float priority.

    The reference priority queue that {!Es_util.Calendar_queue} and, through
    {!Heap_engine}, [Es_sim.Engine] are checked against.  Amortized
    O(log n) insert / pop. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h prio v] inserts [v] with priority [prio]; smaller pops first.
    Ties pop in insertion order (the heap is stabilized with a sequence
    number), which makes simulations deterministic. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element. *)

val pop_exn : 'a t -> float * 'a
(** @raise Invalid_argument when empty. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> (float * 'a) list
(** Non-destructive: elements in priority order (copies the heap). *)
