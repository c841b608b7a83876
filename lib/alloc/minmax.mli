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
    bandwidth load f(μ) against the compute load g(μ).  Queueing-stability
    caps (λ_i·u_i ≤ margin, λ_i·s_i ≤ margin, margin = 0.95) bound the split
    so the granted rates survive sustained load, not just one request.

    {b Early verdicts.}  A θ probe needs one bit: is the load max V that the
    full 60-step μ bisection would end on at most 1 + 1e-9?  In floating
    point f never decreases as μ grows and g never increases (every
    operation of a term is monotone and the sums keep a fixed order), and
    the bisection's hi only falls while its lo only rises, so V is at least
    f at every lo-side probe and g at every hi-side probe, and at most f at
    every hi-side probe.  Each θ probe stops as soon as those bounds decide
    it; only the final probe, whose splits become the grants, runs the
    bisection to its end (or to the fixed point where (lo, hi) stops
    changing).  Every verdict equals the full bisection's, so θ and the
    grants are bit-identical to the reference solver in [test/oracle/].

    {b Arrays in, arrays out.}  Items are a struct of arrays; a solve reads
    one contiguous range of it and writes its grants into the same range of
    caller arrays, so callers lay out every server's devices once and a
    steady-state solve allocates nothing. *)

type items = {
  fixed_s : float array;
      (** latency the allocator cannot influence: device-side compute + link
          RTT *)
  bits : float array;  (** uplink + downlink volume per request, in bits *)
  work_s : float array;  (** server execution time per request at full speed *)
  deadline_s : float array;
  peak_bps : float array;  (** the device radio's ceiling *)
  rate : float array;  (** mean request rate, for the stability caps *)
}
(** Item [k] is index [k] of every field. *)

val solve :
  bandwidth_bps:float ->
  items ->
  pos:int ->
  len:int ->
  bw:float array ->
  share:float array ->
  theta:float array ->
  bool
(** [solve ~bandwidth_bps items ~pos ~len ~bw ~share ~theta] allocates one
    server of bandwidth [bandwidth_bps] among items [pos .. pos + len − 1].
    On [true] it has written each item's bandwidth grant (bit/s) into
    [bw.(k)] and compute share into [share.(k)] for every [k] of the range,
    and the achieved max deadline-normalized latency into [theta.(0)]
    (0 for an empty range); nothing else is written.  [false] when no
    allocation keeps every device stable (load exceeds the server's
    bandwidth or compute capacity outright); the range's grants are then
    unspecified.  A [theta] above 1.0 is stable but misses some deadline.
    Unused capacity is redistributed after the min-max point is found, so
    grants are leftover-free.  The θ bisection stops at a relative
    tolerance of 1e-3.

    @raise Invalid_argument when [bandwidth_bps] is not positive and
    finite, or the range does not fit every array ([theta] needs one
    cell). *)
