(** Rendering: report lines and the per-rule summary table.
    All output is a pure function of the (already sorted) finding lists. *)

val render_findings : Finding.t list -> string
(** One [file:line:col [rule] message] line per finding. *)

val render_summary : Engine.result -> string
(** Per-rule table of fired/suppressed counts plus a one-line verdict. *)
