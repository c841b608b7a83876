(** Phase 1 of the interprocedural analysis: one parse of a compilation
    unit yields its per-file raw findings (D1–D4 and D6, evaluated under
    every configuration with inline suppressions recorded as a flag — the
    engine filters afterwards) plus an effect summary: per-function
    direct effects, call edges, lock-order observations and Par/Domain
    fan-out sites for phase 2 ({!Callgraph}) to propagate.

    A summary is a deterministic function of the file text alone.  D5
    (interface presence) depends on the filesystem rather than the parse
    and is never part of a summary. *)

type raw_finding = {
  rf_rule : Rule.t;
  rf_line : int;
  rf_col : int;
  rf_msg : string;
  rf_inline : bool;
      (** disarmed by an inline mechanism (sorted/cold marker, verified
          guard) rather than the allowlist *)
}

type pending_guard = {
  pg_name : string;  (** the guarded binding *)
  pg_what : string;  (** "ref cell", "Hashtbl.t", … *)
  pg_guard : string list;  (** alias-resolved qualified path to verify *)
  pg_line : int;
  pg_col : int;
}

type site = { s_path : string list; s_line : int; s_col : int }

type pair_site = {
  pr_held : string list;
  pr_acq : string list;
  pr_line : int;
  pr_col : int;
}

type held_call = {
  hc_held : string list;
  hc_callee : string list;
  hc_line : int;
  hc_col : int;
}

type fn = {
  f_name : string;
      (** dotted path within the unit; a ["#par@line.col.i"] suffix marks a
          synthetic node holding the effects shipped to a fan-out sink *)
  mutable f_clock : (string * int) list;
  mutable f_allocs : (string * int) list;
  mutable f_muts : site list;
  mutable f_captured : (string * int) list;
  mutable f_locks : site list;
  mutable f_pairs : pair_site list;
  mutable f_held_calls : held_call list;
  mutable f_calls : site list;
}

type par_site = {
  ps_parent : string;
  ps_node : string;
  ps_sink : string;
  ps_line : int;
  ps_col : int;
}

type t = {
  file : string;
  unit_name : string;
  hot : bool;
  exempt : bool;
  cold_lines : int list;
  top_values : string list;
  top_mutexes : string list;
  mutex_fields : string list;
  mutables : (string * bool) list;
  pending_guards : pending_guard list;
  fns : fn list;
  par_sites : par_site list;
  raw : raw_finding list;
}

val display_unit : string -> string
(** Capitalized module name for messages: ["par"] ↦ ["Par"]. *)

val of_file : rel:string -> exempt:bool -> root:string -> t
(** Read [root/rel] and summarize its text.  [exempt] marks D1-exempt
    files (the clock module and [bench/]): they produce no D1 findings and
    contribute no clock effect to D8 propagation.  Parse failures yield a
    summary whose only content is the [parse] raw finding.  Raises
    [Sys_error] if the file cannot be read. *)
