(** Constant-memory log-bucketed histogram.

    Bucket [i] covers the geometric interval
    [[1e-9·g^i, 1e-9·g^(i+1))] with growth factor [g = 2^(1/8) ≈ 1.09], so
    relative resolution is uniform across the whole dynamic range: any
    quantile is recovered to within ~9% of its true value, from nanoseconds
    to hours, in a fixed 512-slot array (spanning 2^64 of dynamic range).

    Histograms merge exactly (bucket-wise sum),
    which is what lets per-device or per-shard telemetry be combined into a
    cluster-wide view without keeping raw samples.  Quantile queries follow
    the same rank convention as {!Es_util.Stats.percentile} ([p] in
    [0,100]), so simulator reports and exported telemetry agree to within
    one bucket width — a property the test suite pins. *)

type t

val create : unit -> t
(** An empty histogram.  Values below [1e-9] (including zero and
    negatives) land in a dedicated underflow bucket; values beyond the last
    bucket in an overflow bucket. *)

val observe : t -> float -> unit
(** NaN observations are ignored. *)

val count : t -> int

val sum : t -> float

val mean : t -> float
(** [nan] when empty. *)

val min_observed : t -> float
(** Exact smallest observation; [infinity] when empty. *)

val max_observed : t -> float
(** Exact largest observation; [neg_infinity] when empty. *)

val quantile : t -> float -> float
(** [quantile h p] with [p] in [0,100]: the geometric midpoint of the
    bucket holding the rank-[p] observation, clamped to the exact observed
    min/max.  Monotone non-decreasing in [p].  [nan] when empty.
    @raise Invalid_argument when [p] is outside [0,100]. *)

val bucket_width_at : float -> float
(** Width of the bucket that would hold value [v] — the resolution of any
    quantile answer near [v].  Used by tests to assert "within one bucket". *)

val merge : t -> t -> t
(** Fresh histogram equivalent to having observed both streams. *)

val nonempty_buckets : t -> (float * float * int) list
(** [(lower, upper, count)] per populated bucket in increasing value order,
    for exporters.  The underflow bucket reports [(0., 1e-9, n)], the
    overflow bucket [(upper_bound, infinity, n)]. *)
