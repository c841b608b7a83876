(** Small numeric helpers shared across the optimizer and cost models. *)

val clamp : lo:float -> hi:float -> float -> float
(** Restrict a value to [lo, hi]. *)

val interp1 : (float * float) array -> float -> float
(** Piecewise-linear interpolation through sorted (x, y) knots; clamps
    outside the knot range.  @raise Invalid_argument on an empty array. *)

val argmin_by : ('a -> float) -> 'a list -> 'a option
(** First element minimizing the key. *)

val argmax_by : ('a -> float) -> 'a list -> 'a option

val mbps : float -> float
(** Megabits per second → bytes per second. *)

val gflops : float -> float
(** GigaFLOPs → FLOPs (scalar multiply by 1e9). *)

val ms : float -> float
(** Milliseconds → seconds. *)
