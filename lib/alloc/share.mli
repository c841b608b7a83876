(** Non-optimal bandwidth/compute sharing rules.

    These are the allocation policies the baselines use (and what the
    ablation compares the optimal {!Minmax} step against): equal split,
    demand-proportional split, and the square-root rule that is optimal for
    the *sum*-latency objective (by Cauchy–Schwarz, minimizing
    Σ w_i·(bits_i/b_i) under Σ b_i ≤ B gives b_i ∝ √(w_i·bits_i)). *)

val equal : bandwidth_bps:float -> Minmax.item list -> (int * Minmax.grant) list
(** Every offloading device gets [B/n] (capped at its radio peak) and [1/n]
    of the server. *)

val proportional : bandwidth_bps:float -> Minmax.item list -> (int * Minmax.grant) list
(** Shares proportional to each device's demand (bits, server work). *)

val sqrt_rule : bandwidth_bps:float -> Minmax.item list -> (int * Minmax.grant) list
(** Sum-latency-optimal square-root allocation, weighted by request rate
    (w_i = λ_i: minimizing aggregate latency per unit time).  Peak caps
    are honored by iterative clipping. *)

