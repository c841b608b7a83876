(** Telemetry export as JSONL (one JSON object per line).

    JSONL is the interchange format between the simulator/CLI and the bench
    harness: it streams (spans are written as they finish), appends cleanly,
    and every line is independently parseable.

    Span lines carry ([kind="span"], ids, times, attrs); metric lines carry
    ([kind="metric"], instrument type, value — histograms additionally
    export count/sum/min/max, p50/p95/p99 and their populated buckets). *)

type span_record = {
  id : int;
  parent : int option;
  trace : int;
  name : string;
  start_s : float;
  end_s : float;
  attrs : (string * Json.t) list;
}
(** A plain (constructible) image of {!Span.t}, as recovered by the JSONL
    parser — {!Span.t} itself is private to its tracer. *)

val record_of_span : Span.t -> span_record

val span_to_json : Span.t -> Json.t
val span_record_to_json : span_record -> Json.t

val span_of_json : Json.t -> (span_record, string) result
(** Inverse of {!span_to_json} / {!span_record_to_json}. *)

val sample_to_json : Metric.sample -> Json.t

val write_jsonl_line : out_channel -> Json.t -> unit
(** One compact JSON rendering plus ['\n']. *)

val jsonl_span_sink : out_channel -> Span.sink
(** A streaming sink: each finished span becomes one JSONL line
    immediately (no buffering beyond the channel's). *)

val metrics_to_jsonl : out_channel -> Metric.registry -> unit
(** One line per registered instrument, snapshot order (sorted). *)

val with_file : string -> (out_channel -> 'a) -> 'a
(** Opens (truncating), runs, closes — also on exception. *)

val read_jsonl : string -> (Json.t list, string) result
(** Parse every non-empty line of a JSONL file; the first malformed line
    fails the whole read with its line number. *)
