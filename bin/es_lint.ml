(* es_lint — determinism & domain-safety static analysis over the library.

   Parses every .ml under the given paths (default: lib bin bench) and
   reports D1–D10 findings as sorted `file:line:col [rule] message` lines,
   then a per-rule summary table.  Exit status: 0 clean, 1 unsuppressed
   findings, 2 usage/IO error.  Output is byte-identical across runs and
   across any ordering or duplication of the input paths. *)

let usage () =
  prerr_endline
    "usage: es_lint [--root DIR] [--allow FILE|none] [--rules LIST] [--disable LIST]\n\
    \               [--why RULE:FILE:LINE] [PATHS...]\n\
     \n\
    \  PATHS           files or directories, relative to --root (default: lib bin bench)\n\
    \  --root DIR      repo root the paths resolve against (default: .)\n\
    \  --allow F       allowlist of legacy RULE:PATH exceptions (default: lint.allow if present)\n\
    \  --rules L       comma-separated rule ids to enable (default: all of D1..D10)\n\
    \  --disable L     comma-separated rule ids to disable\n\
    \  --why R:F:L     print the call chain behind the interprocedural finding\n\
    \                  of rule R at file F line L, instead of the report";
  exit 2

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("es_lint: " ^ m); exit 2) fmt

let parse_rule_list spec =
  String.split_on_char ',' spec
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map (fun s ->
         match Es_lint.Rule.of_id s with
         | Some r -> r
         | None -> fail "unknown rule id %S (expected D1..D10)" (String.trim s))

(* Deterministic directory walk: readdir order is filesystem-dependent, so
   sort entries before recursing (the engine re-sorts the union anyway). *)
let rec collect_ml root rel acc =
  let abs = Filename.concat root rel in
  if Sys.is_directory abs then
    Array.to_list (Sys.readdir abs)
    |> List.sort String.compare
    |> List.filter (fun e -> e <> "_build" && not (String.length e > 0 && e.[0] = '.'))
    |> List.fold_left (fun acc e -> collect_ml root (Filename.concat rel e) acc) acc
  else if Filename.check_suffix rel ".ml" then rel :: acc
  else acc

(* --why RULE:FILE:LINE — FILE may itself contain no colons (repo paths
   don't), so a simple split is enough. *)
let parse_why spec =
  match String.split_on_char ':' spec with
  | [ rule; file; line ] -> (
      match (Es_lint.Rule.of_id rule, int_of_string_opt line) with
      | Some r, Some l when Es_lint.Rule.interprocedural r -> (r, file, l)
      | Some r, Some _ ->
          fail "--why explains interprocedural rules (D7..D10), not %s" (Es_lint.Rule.id r)
      | None, _ -> fail "--why: unknown rule id %S" rule
      | _, None -> fail "--why: bad line number %S" line)
  | _ -> fail "--why expects RULE:FILE:LINE, got %S" spec

let () =
  let root = ref "." in
  let allow_file = ref None in
  let rules = ref Es_lint.Rule.all in
  let why = ref None in
  let paths = ref [] in
  let rec parse = function
    | "--root" :: d :: rest ->
        root := d;
        parse rest
    | "--allow" :: f :: rest ->
        allow_file := Some f;
        parse rest
    | "--rules" :: l :: rest ->
        rules := parse_rule_list l;
        parse rest
    | "--disable" :: l :: rest ->
        let off = parse_rule_list l in
        rules := List.filter (fun r -> not (List.mem r off)) !rules;
        parse rest
    | "--why" :: spec :: rest ->
        why := Some (parse_why spec);
        parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | p :: rest when String.length p > 0 && p.[0] <> '-' ->
        paths := p :: !paths;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let allow =
    let load f =
      match Es_lint.Allowlist.load f with Ok a -> a | Error m -> fail "bad allow file: %s" m
    in
    match !allow_file with
    | Some "none" -> Es_lint.Allowlist.empty
    | Some f -> load f
    | None ->
        let default = Filename.concat !root "lint.allow" in
        if Sys.file_exists default then load default else Es_lint.Allowlist.empty
  in
  let roots = match List.rev !paths with [] -> [ "lib"; "bin"; "bench" ] | ps -> ps in
  let files =
    List.fold_left
      (fun acc p ->
        if not (Sys.file_exists (Filename.concat !root p)) then fail "no such path: %s" p;
        collect_ml !root p acc)
      [] roots
  in
  let config =
    { Es_lint.Engine.default_config with rules = !rules; allow; root = !root }
  in
  let analysis = Es_lint.Engine.analyze_files config files in
  match !why with
  | Some (rule, file, line) -> (
      match Es_lint.Callgraph.explain analysis.Es_lint.Engine.graph ~rule ~file ~line with
      | [] ->
          fail "no %s finding anchored at %s:%d (is the file in the linted path set?)"
            (Es_lint.Rule.id rule) file line
      | lines ->
          List.iter print_endline lines;
          exit 0)
  | None ->
      let result = analysis.Es_lint.Engine.result in
      print_string (Es_lint.Report.render_findings result.Es_lint.Engine.findings);
      (* Summary always prints (and flushes) before the failing exit, so a
         CI log that stops at the exit code still shows every finding. *)
      print_string (Es_lint.Report.render_summary result);
      flush stdout;
      if result.Es_lint.Engine.findings <> [] then exit 1
