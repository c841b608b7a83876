(** Trace spans: named, attributed time intervals with parent/child nesting.

    A {!tracer} binds a clock source to a sink.  The clock is abstract so
    the same instrumentation serves both real processes ([Unix]-free
    [Sys.time] or any monotonic source the caller supplies) and the
    discrete-event simulator (where the clock is {!Es_sim.Engine.now} and
    spans measure *simulated* time).

    Finished spans are pushed to the sink immediately on {!finish}; the
    tracer retains nothing, so tracing arbitrarily long runs is
    constant-memory as long as the sink streams (e.g. the JSONL sink in
    {!Export}).

    The {!null} tracer is the disabled path: {!start} returns a shared
    non-recording dummy span and every other operation is a cheap no-op, so
    instrumentation can stay unconditional in hot code. *)

type t = private {
  id : int;  (** unique within a tracer, dense from 1 *)
  parent : int option;  (** id of the enclosing span *)
  trace : int;  (** id of the root span of this span's tree *)
  name : string;
  start_s : float;
  mutable end_s : float;  (** [nan] until finished *)
  mutable attrs : (string * Json.t) list;
  recording : bool;
}

type sink = t -> unit

type tracer

val tracer : ?sink:sink -> clock:(unit -> float) -> unit -> tracer
(** A live tracer.  [sink] defaults to dropping each span (spans are still
    created and timed, useful when only attributes read back matter). *)

val null : tracer
(** The disabled tracer: spans returned by {!start} are a shared dummy with
    [recording = false]; {!finish} and {!set_attr} on them do nothing. *)

val enabled : tracer -> bool

val start : tracer -> ?parent:t -> ?attrs:(string * Json.t) list -> string -> t
(** [start tr name] opens a span at the clock's current time.  With
    [?parent] the span joins the parent's trace tree; without, it roots a
    new trace. *)

val finish : tracer -> ?attrs:(string * Json.t) list -> t -> unit
(** Stamps the end time and emits the span to the sink.  Extra [attrs] are
    appended first.  Finishing twice emits twice (callers own the
    discipline); finishing a non-recording span does nothing. *)

val set_attr : t -> string -> Json.t -> unit
(** No-op on non-recording spans. *)

val attr : t -> string -> Json.t option

val duration_s : t -> float
(** [end_s -. start_s]; [nan] while unfinished. *)

val memory_sink : unit -> sink * (unit -> t list)
(** An accumulating sink for tests: the second component returns all spans
    emitted so far, in emission (i.e. finish) order. *)

val locked_sink : sink -> sink
(** Serializes emissions behind a mutex, for sinks shared by tracers running
    on different domains (e.g. both multi-start trajectories streaming into
    one JSONL channel under [--jobs]).  Per-span order across domains is
    whatever completion order was; each emission is atomic. *)
