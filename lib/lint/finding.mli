(** A single lint finding, anchored to a source position. *)

type t = { rule : Rule.t; file : string; line : int; col : int; msg : string }

val make : rule:Rule.t -> file:string -> line:int -> col:int -> string -> t

val compare : t -> t -> int
(** Total order by (file, line, col, rule, message) — the canonical output
    order, independent of discovery order. *)

val to_line : t -> string
(** ["file:line:col [rule-id] message"] — the grep-able report line. *)
