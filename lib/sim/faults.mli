(** Declarative fault injection for the simulator.

    A fault schedule is a time-ordered list of instantaneous state
    transitions over the cluster: servers crash and recover, device links
    black out, fade to a fraction of their rate, or a server temporarily
    straggles (every service on it slows by a factor).  {!Runner.run}
    compiles the schedule onto the engine timeline and applies each event to
    the affected stations:

    - a down server rejects new submissions and evicts its queued and
      in-service jobs (the per-request resilience policy decides whether an
      evicted request retries, falls back to local execution, or drops);
    - a link outage likewise rejects and evicts both transfer directions;
    - a degraded link or a straggling server only rescales station speeds,
      affecting subsequently started jobs.

    Schedules are plain data, scripted ({!scripted}, {!of_spec}), so the
    simulation stays fully deterministic under its seed, and an empty
    schedule leaves the runner's behavior bit-identical to a fault-free
    build. *)

type event =
  | Server_down of int  (** server crashes: rejects + evicts its queues *)
  | Server_up of int  (** server restored *)
  | Link_outage of int  (** device's uplink/downlink go dark *)
  | Link_restored of int
  | Link_degraded of int * float
      (** device's effective link rate × factor; factor 1 restores.
          Factor must be finite and positive. *)
  | Straggler of int * float
      (** server's services slowed by factor (≥ 1 slows, 1 restores) *)

type t
(** A compiled, time-sorted schedule.  Events at equal times apply in their
    scripted order. *)

val empty : t
val is_empty : t -> bool

val events : t -> (float * event) list
(** Time-sorted [(time, event)] pairs. *)

val scripted : (float * event) list -> t
(** Sorts (stably) by time.
    @raise Invalid_argument on negative/non-finite times or non-positive /
    non-finite factors. *)

(* Duration sugar: each helper emits the begin event and its paired end. *)

val crash : at:float -> ?for_s:float -> int -> (float * event) list
(** Server down at [at]; with [for_s], back up at [at +. for_s]. *)

val outage : at:float -> for_s:float -> int -> (float * event) list
val degrade : at:float -> for_s:float -> factor:float -> int -> (float * event) list
val straggle : at:float -> for_s:float -> factor:float -> int -> (float * event) list

val validate : n_devices:int -> n_servers:int -> t -> (unit, string) result
(** Every server/device index in range. *)

val down_at : t -> time:float -> int list
(** Servers down at [time] (events at exactly [time] included), sorted. *)

val of_spec : string -> ((float * event) list, string) result
(** Parse a comma/semicolon-separated scripted spec.  Tokens:
    [down:S\@T], [up:S\@T], [down:S\@T+DUR], [outage:D\@T+DUR],
    [degrade:D:F\@T+DUR], [straggle:S:F\@T+DUR] — times/durations in
    seconds, [S]/[D] server/device indices, [F] a positive factor. *)

val of_spec_or_file : string -> (t, string) result
(** If the argument names a readable file, parse one token per line
    (blank lines and [#] comments ignored); otherwise parse it as an
    inline spec. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
