(** Batched service station — a GPU-style server queue.

    Real inference servers batch requests: a batch of [k] items costs less
    than [k] sequential executions because the kernel launches amortize and
    the GPU fills.  The model: jobs accumulate until either [max_batch] are
    waiting or [window_s] elapses after the first queued arrival; the batch
    then executes for

      (Σ work_i) · ((1 − α) + α / k) / speed

    seconds — [α] is the parallelizable fraction (0 = no benefit, 0.7 ≈
    3.3× per-item speedup at large batches).  One batch runs at a time;
    jobs arriving mid-batch wait for the next one.

    This replaces the per-device dedicated-share stations when the
    simulator runs in batching mode ({!Runner.options}); compute shares are
    ignored there because the whole accelerator serves one batch queue.

    As in {!Station}, a job is an int [tag] and its work, queued in a flat
    ring, and the batcher's timers are data events on the engine: [event]
    (fixed at {!create}) when a batch completes, [event lor 2{^32}] when a
    collection window closes.  The engine's handler passes them back to
    {!fire}. *)

type t

val create :
  Engine.t ->
  ?max_batch:int ->
  ?window_s:float ->
  ?alpha:float ->
  event:int ->
  speed:float ->
  unit ->
  t
(** Defaults: [max_batch = 8], [window_s = 5e-3], [alpha = 0.7].
    @raise Invalid_argument on non-positive speed/batch/window, α outside
    [0, 1), or unless [0 <= event < 2{^32}]. *)

val submit : t -> tag:int -> work:float -> unit
(** Enqueue a job of [work] units.
    @raise Invalid_argument on negative work or a negative tag. *)

val fire : t -> int -> int
(** [fire b ev] takes one of [b]'s events.  A window deadline launches
    the waiting jobs if the accelerator is idle and returns [0].  A batch
    completion returns the batch size [k]: the finished tags are
    [finished b 0] to [finished b (k - 1)], in submission order, and the
    caller calls {!resume} once it has handled them. *)

val finished : t -> int -> int

val resume : t -> unit
(** Free the accelerator after a batch completion: launch the next batch
    at once when a full one is waiting, else open a collection window for
    the jobs that are. *)

val queue_length : t -> int
val busy_time : t -> float
val completed : t -> int
val batches : t -> int
(** Number of batches launched — [completed / batches] is the realized mean
    batch size. *)
