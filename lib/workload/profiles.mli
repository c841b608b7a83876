(** Time-varying load profiles: global multipliers applied to every
    device's nominal request rate. *)

type t = float -> float

val constant : float -> t

val step_burst : start_s:float -> stop_s:float -> factor:float -> t
(** 1.0 outside the burst window, [factor] inside — the F10 flash-crowd
    shape. *)

val diurnal : period_s:float -> amplitude:float -> t
(** 1 + amplitude·sin(2πt/period), floored at 0.05. *)

val flash_crowd : at_s:float -> rise_s:float -> decay_s:float -> factor:float -> t
(** 1.0 until [at_s], a linear surge to [factor] over [rise_s], then an
    exponential relaxation back toward 1.0 with time constant [decay_s] —
    the asymmetric spike of a real flash crowd, unlike the rectangular
    {!step_burst}. *)

val product : t -> t -> t
(** Pointwise product, e.g. a diurnal baseline carrying a flash crowd. *)

val scale : float -> t -> t
(** Constant multiplier on a profile — e.g. [scale 3.0] turns any shape
    into a 3×-capacity stress variant. *)

val sustained_flash : at_s:float -> rise_s:float -> factor:float -> t
(** A flash crowd that never relaxes: 1.0 until [at_s], a linear surge to
    [factor] over [rise_s], then flat at [factor] — the sustained-overload
    shape the overload-protection bench sheds against. *)
