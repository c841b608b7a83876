(* Shared vocabulary for both analysis phases: the path classifiers behind
   D1/D2/D3/D6, the Par/Domain fan-out sinks and container mutators behind
   D7–D10, and the small parsetree helpers every walk needs.  Everything
   here is a pure function of a flattened [Longident] path (or of raw
   source text for the closure sniff), so it stays portable across the
   compiler-libs versions the CI matrix builds against. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Longident / location helpers                                        *)

let flatten lid = try Longident.flatten lid with _ -> []

let rec peel_expr e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> peel_expr e
  | _ -> e

let rec peel_pat p = match p.ppat_desc with Ppat_constraint (p, _) -> peel_pat p | _ -> p

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

(* Peel a chain of field projections down to its base identifier:
   [pool.queue] → (["pool"], ["queue"]), [Par.pool.m] → (["Par"; "pool"],
   ["m"]).  Returns [None] when the base is not a plain identifier. *)
let rec field_chain e =
  match (peel_expr e).pexp_desc with
  | Pexp_ident { txt; _ } -> ( match flatten txt with [] -> None | p -> Some (p, []))
  | Pexp_field (base, { txt; _ }) -> (
      match field_chain base with
      | Some (p, fields) -> Some (p, fields @ [ Longident.last txt ])
      | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-file rule classifiers (D1/D2/D3/D6)                             *)

let d1_violation path =
  match path with
  | [ "Sys"; "time" ] -> Some "Sys.time"
  | [ "Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime") ] ->
      Some (String.concat "." path)
  | [ "Random"; "State"; "make_self_init" ] -> Some "Random.State.make_self_init"
  | [ "Random"; _ ] -> Some (String.concat "." path)
  | _ -> None

let d2_violation path =
  match path with
  | [ "Hashtbl"; ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") ] ->
      Some (String.concat "." path)
  | _ -> None

let d3_violation path =
  match path with
  | [ "compare" ] | [ "Stdlib"; "compare" ] | [ "Pervasives"; "compare" ] ->
      Some (String.concat "." path)
  | _ -> None

(* D6 (hot-tagged files only): the list builders named by the rule, plus
   closure literals in argument position (detected separately below).
   This set is also the "allocates" effect the phase-2 summaries
   propagate for D10 — deliberately without the closure sniff, so the
   interprocedural effect means "runs a per-element list builder", not
   "builds one closure". *)
let d6_violation path =
  match path with
  | [ "List"; ("map" | "init") ] -> Some (String.concat "." path)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Phase-2 effect classifiers                                          *)

(* The fan-out sinks whose function arguments escape to other domains.
   Matched on the qualified suffix so [Es_util.Par.parallel_map],
   [Par.parallel_map] and a local [Par.parallel_iter] all count. *)
let par_sink path =
  match path with
  | [ "Domain"; "spawn" ] -> Some "Domain.spawn"
  | _ -> (
      match List.rev path with
      | fn :: "Par" :: _
        when fn = "parallel_map" || fn = "parallel_map_array" || fn = "parallel_iter" ->
          Some ("Par." ^ fn)
      | _ -> None)

(* Stdlib calls that mutate a container passed as an argument, with the
   positional indices of the argument(s) actually mutated — only those
   positions count as mutations (keys/values/sources are merely read). *)
let container_mutator path =
  let name = String.concat "." path in
  match path with
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear") ] -> Some (name, [ 0 ])
  | [ "Hashtbl"; "filter_map_inplace" ] -> Some (name, [ 1 ])
  | [ "Buffer";
      ( "add_string" | "add_char" | "add_bytes" | "add_buffer" | "add_subbytes"
      | "add_substring" | "clear" | "reset" | "truncate" ) ] ->
      Some (name, [ 0 ])
  | [ "Queue"; ("add" | "push") ] -> Some (name, [ 1 ])
  | [ "Queue"; ("pop" | "take" | "clear") ] -> Some (name, [ 0 ])
  | [ "Queue"; "transfer" ] -> Some (name, [ 0; 1 ])
  | [ "Stack"; "push" ] -> Some (name, [ 1 ])
  | [ "Stack"; ("pop" | "clear") ] -> Some (name, [ 0 ])
  | _ -> None

let assignment_op path = match path with [ ":=" ] | [ "Stdlib"; ":=" ] -> true | _ -> false

let incr_decr path =
  match path with [ ("incr" | "decr") ] | [ "Stdlib"; ("incr" | "decr") ] -> true | _ -> false

type lock_op = Lock | Unlock

let mutex_op path =
  match path with
  | [ "Mutex"; "lock" ] -> Some Lock
  | [ "Mutex"; "unlock" ] -> Some Unlock
  | _ -> None

(* A call head worth recording as a call-graph edge: a plain (possibly
   qualified) identifier whose last segment is an alphabetic name —
   operators and the mutation/locking primitives handled above are not
   edges. *)
let callable_head path =
  match List.rev path with
  | last :: _ when String.length last > 0 -> (
      match last.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* D6 closure-argument sniff.  [Pexp_fun]'s parsetree representation
   changed between compiler-libs versions this linter builds against, so
   argument expressions are classified textually instead of by
   constructor: from the argument's source offset (the lexbuf is fed the
   whole file, so [pos_cnum] is an absolute offset), skip opening
   parens/[begin]/whitespace and test for the [fun]/[function] keyword.
   The parser relocates a parenthesized expression to span its parens, so
   the sniff lands on the right token. *)

let ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let keyword_at text i kw =
  let k = String.length kw in
  i + k <= String.length text
  && String.sub text i k = kw
  && (i + k = String.length text || not (ident_char text.[i + k]))

let is_closure_literal text (e : expression) =
  let n = String.length text in
  let rec skip i =
    if i >= n then n
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' | '(' -> skip (i + 1)
      | 'b' when keyword_at text i "begin" -> skip (i + 5)
      | _ -> i
  in
  let off = e.pexp_loc.Location.loc_start.Lexing.pos_cnum in
  off >= 0 && off < n
  &&
  let i = skip off in
  keyword_at text i "fun" || keyword_at text i "function"
