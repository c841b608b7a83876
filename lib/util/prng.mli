(** Deterministic, splittable pseudo-random number generator.

    EdgeSurgeon needs reproducible experiments: every workload generator,
    simulator and optimizer draws randomness through this module so a run is
    fully determined by its seed.  The implementation is SplitMix64, which is
    fast, has a 64-bit state, and supports cheap stream splitting. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Two generators created with the
    same seed produce identical streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves independently. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    (with overwhelming probability) independent of [t]'s. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform on [lo, hi). *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> float -> float
(** [exponential t rate] draws from Exp(rate); mean [1/rate]. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian via Box–Muller. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp] of a Gaussian draw with the given log-space parameters. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto distribution, heavy-tailed; [scale] is the minimum value. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val weighted_choice : t -> ('a * float) array -> 'a
(** Element drawn with probability proportional to its weight.
    @raise Invalid_argument on an empty array or non-positive total weight. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct ints from
    [0, n). @raise Invalid_argument if [k > n]. *)
