(** Non-optimal bandwidth/compute sharing rules.

    These are the allocation policies the baselines use (and what the
    ablation compares the optimal {!Minmax} step against): equal split,
    demand-proportional split, and the square-root rule that is optimal for
    the *sum*-latency objective (by Cauchy–Schwarz, minimizing
    Σ w_i·(bits_i/b_i) under Σ b_i ≤ B gives b_i ∝ √(w_i·bits_i)).
    @raise Invalid_argument when the range does not fit the arrays. *)

type rule =
  bandwidth_bps:float ->
  Minmax.items ->
  pos:int ->
  len:int ->
  bw:float array ->
  share:float array ->
  unit
(** A rule shares one server of bandwidth [bandwidth_bps] among items
    [pos .. pos + len − 1] and writes each item's bandwidth grant into
    [bw.(k)] and compute share into [share.(k)], as {!Minmax.solve} does;
    it always succeeds. *)

val equal : rule
(** Every offloading device gets [B/n] (capped at its radio peak) and [1/n]
    of the server. *)

val proportional : rule
(** Shares proportional to each device's demand (bits, server work). *)

val sqrt_rule : rule
(** Sum-latency-optimal square-root allocation, weighted by request rate
    (w_i = λ_i: minimizing aggregate latency per unit time).  Peak caps
    are honored by iterative clipping. *)
