(* The analysis orchestrator.  Phase 1 ({!Summary}) parses each .ml once
   and produces both its per-file raw findings (D1–D4, D6, parse) and an
   effect summary; phase 2 ({!Callgraph}) resolves the
   summaries into a whole-program call graph, fixpoints the effect
   lattice over its SCCs and fires the interprocedural rules (D7–D10)
   plus the cross-unit [@@es_lint.guarded] verifications.  This module
   wires the phases together, evaluates the one filesystem-dependent rule
   (D5), and applies the configuration — enabled rules
   and the allowlist — to the union.

   Everything stays list/Map-based on purpose: the linter that enforces
   "no unordered iteration feeding output" must itself be trivially
   order-independent, so it never touches Hashtbl.

   Known syntactic approximations (documented in DESIGN.md §11/§16):
   module aliases (`module H = Hashtbl`) hide D2 sites; D3 triggers on
   any bare [compare] in a file whose type declarations mention [float];
   D4 sees only directly-initialized module-level bindings, and its
   record check is name-based per file; D6 sees only the named List
   builders and syntactic closure literals in argument position; the
   call graph sees only direct applications of (possibly qualified)
   identifiers — functions passed as values are invisible to D7–D10, and
   the lock-order walk is linear in source order, so branch-local
   acquisitions blend across arms of the same function. *)

type mli_mode = Mli_by_path | Mli_always | Mli_never

type config = {
  rules : Rule.t list;
  allow : Allowlist.t;
  mli_mode : mli_mode;
  root : string;
}

let default_config =
  {
    rules = Rule.all;
    allow = Allowlist.empty;
    mli_mode = Mli_by_path;
    root = ".";
  }

type result = { findings : Finding.t list; suppressed : Finding.t list }

type analysis = { graph : Callgraph.t; result : result }

(* ------------------------------------------------------------------ *)
(* Path scoping                                                        *)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let normalize_rel path =
  let path = if starts_with ~prefix:"./" path then String.sub path 2 (String.length path - 2) else path in
  String.concat "/" (List.filter (fun seg -> seg <> "" && seg <> ".") (String.split_on_char '/' path))

(* D1 carve-outs: the designated clock module and the benchmark harness
   (benches measure real wall time by definition).  The same files are
   exempt from D8 — clock effects neither originate nor fire there. *)
let d1_exempt rel = rel = "lib/obs/obs.ml" || starts_with ~prefix:"bench/" rel

(* D5 scope under [Mli_by_path]: the library and binary trees must ship
   interfaces; bench/, examples/ and tests stay exempt. *)
let mli_required_by_path rel = starts_with ~prefix:"lib/" rel || starts_with ~prefix:"bin/" rel

(* ------------------------------------------------------------------ *)

let analyze_files config paths =
  let paths =
    paths |> List.map normalize_rel
    |> List.filter (fun p -> Filename.check_suffix p ".ml")
    |> List.sort_uniq String.compare
  in
  let summaries =
    List.map
      (fun rel -> Summary.of_file ~rel ~exempt:(d1_exempt rel) ~root:config.root)
      paths
  in
  let graph = Callgraph.build summaries in
  let enabled r = r = Rule.Parse_error || List.mem r config.rules in
  let findings = ref [] in
  let suppressed = ref [] in
  let route ~inline (f : Finding.t) =
    if enabled f.Finding.rule then
      if inline || Allowlist.mem config.allow ~rule_id:(Rule.id f.Finding.rule) ~path:f.Finding.file
      then suppressed := f :: !suppressed
      else findings := f :: !findings
  in
  List.iter
    (fun (s : Summary.t) ->
      (* D5 is filesystem state, not parse state, so it is evaluated here
         rather than in the summary. *)
      let mli_required =
        match config.mli_mode with
        | Mli_always -> true
        | Mli_never -> false
        | Mli_by_path -> mli_required_by_path s.file
      in
      if mli_required then begin
        let mli = Filename.chop_suffix (Filename.concat config.root s.file) ".ml" ^ ".mli" in
        if not (Sys.file_exists mli) then
          route ~inline:false
            (Finding.make ~rule:Rule.D5 ~file:s.file ~line:1 ~col:0
               (Printf.sprintf "missing sibling interface %s"
                  (Filename.basename (Filename.chop_suffix s.file ".ml" ^ ".mli"))));
      end;
      List.iter
        (fun (r : Summary.raw_finding) ->
          route ~inline:r.rf_inline
            (Finding.make ~rule:r.rf_rule ~file:s.file ~line:r.rf_line ~col:r.rf_col r.rf_msg))
        s.raw)
    summaries;
  List.iter (fun (f, inline) -> route ~inline f) (Callgraph.findings graph);
  {
    graph;
    result =
      {
        findings = List.sort_uniq Finding.compare !findings;
        suppressed = List.sort_uniq Finding.compare !suppressed;
      };
  }

let lint_files config paths = (analyze_files config paths).result
