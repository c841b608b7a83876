(** Small numeric helpers shared across the optimizer and cost models. *)

val clamp : lo:float -> hi:float -> float -> float
(** Restrict a value to [lo, hi]. *)

val interp1 : (float * float) array -> float -> float
(** Piecewise-linear interpolation through sorted (x, y) knots; clamps
    outside the knot range.  @raise Invalid_argument on an empty array. *)

val bisect :
  ?tol:float -> ?max_iter:int -> lo:float -> hi:float -> (float -> bool) -> float
(** [bisect ~lo ~hi pred] finds the smallest [x] in [lo, hi] with [pred x]
    true, assuming [pred] is monotone (false … false true … true).  Returns
    [hi] if [pred] is false everywhere on the interval.  Used by the min-max
    allocator's bisection on the latency bound. *)

val argmin_by : ('a -> float) -> 'a list -> 'a option
(** First element minimizing the key. *)

val argmax_by : ('a -> float) -> 'a list -> 'a option

val float_equal : ?eps:float -> float -> float -> bool
(** Approximate equality with absolute+relative tolerance (default 1e-9). *)

val mbps : float -> float
(** Megabits per second → bytes per second. *)

val gflops : float -> float
(** GigaFLOPs → FLOPs (scalar multiply by 1e9). *)

val ms : float -> float
(** Milliseconds → seconds. *)
