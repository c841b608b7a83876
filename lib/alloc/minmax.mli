(** Optimal min-max resource allocation for one server — the convex inner
    step of the joint optimizer.

    Given the devices assigned to a server with their surgery plans fixed,
    allocate uplink bandwidth [b_i] (Σ b_i ≤ B, b_i ≤ radio peak) and
    compute shares [ρ_i] (Σ ρ_i ≤ 1) to minimize the maximum
    deadline-normalized latency

      θ = max_i (fixed_i + bits_i/b_i + work_i/ρ_i) / deadline_i.

    Solved exactly (up to tolerance) by bisection on θ: a trial θ gives each
    device a slack R_i to split between transfer time u_i and server time
    s_i = R_i − u_i; minimizing the worse of the two induced resource loads
    over the splits is a separable convex problem whose KKT point is

      u_i(μ) = R_i / (1 + √(μ·B·work_i/bits_i)),

    with the scalar multiplier μ found by a second bisection balancing the
    bandwidth load against the compute load.  Queueing-stability caps
    (λ_i·u_i ≤ margin, λ_i·s_i ≤ margin, margin = 0.95) bound the split
    so the granted rates survive sustained load, not just one request. *)

type item = {
  key : int;  (** caller's identifier (device id) *)
  fixed_s : float;  (** latency the allocator cannot influence: device-side
                        compute + link RTT *)
  bits : float;  (** uplink + downlink volume per request, in bits *)
  work_s : float;  (** server execution time per request at full speed *)
  deadline_s : float;
  peak_bps : float;  (** the device radio's ceiling *)
  rate : float;  (** mean request rate, for the stability caps *)
}

type grant = { bandwidth_bps : float; compute_share : float }

type result = {
  theta : float;  (** achieved max deadline-normalized latency *)
  grants : (int * grant) list;  (** keyed by [item.key] *)
}

val solve : bandwidth_bps:float -> item list -> result option
(** [None] when no allocation keeps every device stable (load exceeds the
    server's bandwidth or compute capacity outright).  A result with
    [theta > 1.0] is stable but misses some deadline.  Unused capacity is
    redistributed after the min-max point is found, so grants are
    leftover-free.  The stability margin is 0.95 and the bisection on θ
    stops at a relative tolerance of 1e-3. *)
