(** The analysis orchestrator: phase 1 ({!Summary}, one parse per unit —
    per-file rules D1–D4/D6 plus effect extraction)
    feeding phase 2 ({!Callgraph}, the whole-program SCC effect fixpoint
    behind D7–D10), with the filesystem-dependent D5 evaluated separately and
    the configuration (enabled rules, allowlist) applied to the union.

    The engine is purely syntactic (no typing pass) and deliberately
    Hashtbl-free, so its output depends only on the set of input paths —
    never on discovery or hashing order. *)

type mli_mode =
  | Mli_by_path  (** D5 applies under [lib/] and [bin/]; bench/tests exempt *)
  | Mli_always  (** D5 applies to every file (used by the fixture tests) *)
  | Mli_never

type config = {
  rules : Rule.t list;  (** enabled rules; {!Rule.Parse_error} is implicit *)
  allow : Allowlist.t;  (** committed legacy exceptions (rule:path) *)
  mli_mode : mli_mode;
  root : string;  (** directory the relative input paths resolve against *)
}

val default_config : config
(** All rules, empty allowlist, [Mli_by_path], root ["."]. *)

type result = {
  findings : Finding.t list;  (** unsuppressed, sorted by {!Finding.compare} *)
  suppressed : Finding.t list;
      (** findings disarmed by an [(* es_lint: sorted *)]/[cold] comment,
          a verified [[@@es_lint.guarded]] attribute, or an allowlist
          entry; sorted *)
}

type analysis = {
  graph : Callgraph.t;  (** the phase-2 call graph (for --why) *)
  result : result;
}

val analyze_files : config -> string list -> analysis
(** Full two-phase analysis over a set of root-relative paths.  Paths are
    normalized, deduplicated and sorted first; the analysis — graph and
    both finding lists — is byte-identical for any permutation
    or duplication of the input.  Non-[.ml] paths are ignored. *)

val lint_files : config -> string list -> result
(** [analyze_files] keeping only the findings. *)
