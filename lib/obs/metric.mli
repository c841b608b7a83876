(** Metric registry: named counters, gauges and histograms.

    Instruments are registered get-or-create by [(name, labels)], so
    instrumentation sites can be written declaratively — asking for
    ["requests_dropped" (reason=queue_full)] twice yields the same counter.
    Hot paths should resolve their instrument handle once and hold on to it;
    the handle operations ({!inc}, {!set}, {!Histogram.observe}) are plain
    field updates with no lookup.

    Naming convention (documented in DESIGN.md): lower_snake_case with a
    unit suffix where applicable ([request_latency_s], [queue_depth]),
    namespaced by subsystem with a [/] ([optimizer/iterations]).  Labels are
    sorted at registration, so label order at call sites is irrelevant.

    Thread-safety: a registry may be shared across domains (parallel solver
    trajectories report into one registry under [--jobs]).  Registration is
    mutex-protected; counters and gauges are atomics, so {!inc} and {!add}
    are linearizable; {!Histogram.observe} serializes internally. *)

type registry

type counter
type gauge

val create : unit -> registry

val counter : registry -> ?labels:(string * string) list -> string -> counter
val gauge : registry -> ?labels:(string * string) list -> string -> gauge

val histogram : registry -> ?labels:(string * string) list -> string -> Histogram.t

val inc : counter -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit
val add : gauge -> float -> unit

(** {1 Introspection and export} *)

type value = Counter of int | Gauge of float | Histo of Histogram.t

type sample = { name : string; labels : (string * string) list; value : value }

val snapshot : registry -> sample list
(** All registered instruments, sorted by [(name, labels)] for
    deterministic export. *)

val find : registry -> string -> value option
(** Current value of one unlabelled instrument, for tests; {!snapshot}
    reads labelled ones. *)
