(** Streaming and batch statistics used by the simulator's metric collection
    and the benchmark harness. *)

(** {1 Streaming accumulator (Welford)} *)

type t
(** Mutable accumulator of a stream of floats. *)

val create : unit -> t
val add : t -> float -> unit

val add_cell : t -> float array -> unit
(** [add_cell t c] is [add t c.(0)], the value read from a float cell so
    that a caller in another module does not box it. *)

val count : t -> int
val mean : t -> float
(** Mean of the observations; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val min : t -> float
val max : t -> float
val sum : t -> float

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to having seen both
    streams (Chan et al. parallel update). *)

(** {1 Batch helpers} *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]; linear interpolation between
    order statistics.  The input array is not modified.
    @raise Invalid_argument on an empty array or p outside [0,100]. *)

val median : float array -> float
val mean_of : float array -> float

val histogram : float array -> bins:int -> (float * int) array
(** [(bin_left_edge, count)] pairs over [bins] equal-width bins. *)

val jain_index : float array -> float
(** Jain's fairness index (Σx)²/(n·Σx²) over non-negative allocations:
    1 when perfectly equal, → 1/n under maximal skew.  [nan] on an empty
    array. @raise Invalid_argument on negative entries. *)
