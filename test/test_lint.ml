(* es_lint rule semantics over the seeded fixtures: every rule fires exactly
   where expected and nowhere in the clean fixture; suppression comments,
   guard attributes and the allow file disarm findings; output is invariant
   under input-order shuffling and duplication. *)

open Es_lint

let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* dune runtest runs in _build/default/test next to the copied fixtures;
   `dune exec test/test_lint.exe` runs from the repo root. *)
let root = if Sys.file_exists "lint_fixtures" then "lint_fixtures" else "test/lint_fixtures"

(* D5 reaches only the fixtures under lib/, as it reaches only lib/ and
   bin/ in the repo. *)
let cfg ?(rules = Rule.all) ?(allow = Allowlist.empty) () = { Engine.rules; allow; root }

let all_fixtures =
  [
    "bad_d1.ml";
    "bad_d2.ml";
    "bad_d3.ml";
    "bad_d4.ml";
    "bad_parse.ml";
    "lib/clean.ml";
    "lib/d5_missing.ml";
    "hot_d6.ml";
    (* interprocedural fixtures: these five interact through the phase-2
       call graph (cross-unit guards, transitive effects), so shuffling
       them exercises the summary-fixpoint order-independence too. *)
    "par_race_d7.ml";
    "clock_wrap_d8.ml";
    "locks_d9.ml";
    "hot_d10.ml";
    "alloc_helper.ml";
    "alias_d4.ml";
  ]

let rule_lines (fs : Finding.t list) = List.map (fun (f : Finding.t) -> (Rule.id f.rule, f.line)) fs

let check_rule_lines msg expected fs =
  Alcotest.(check (list (pair string int))) msg expected (rule_lines fs)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------- per-rule fixture assertions ---------- *)

let test_d1 () =
  let r = Engine.lint_files (cfg ~rules:[ Rule.D1 ] ()) [ "bad_d1.ml" ] in
  check_rule_lines "D1 fires on every clock/RNG read"
    [ ("D1", 1); ("D1", 2); ("D1", 3); ("D1", 4); ("D1", 5); ("D1", 5) ]
    r.findings;
  (* Line 5 holds two findings, ordered by column: localtime then time. *)
  let line5 = List.filter (fun (f : Finding.t) -> f.line = 5) r.findings in
  Alcotest.(check bool)
    "localtime before time" true
    (match line5 with
    | [ a; b ] -> contains ~sub:"Unix.localtime" a.msg && contains ~sub:"Unix.time" b.msg
    | _ -> false);
  Alcotest.(check int) "Random.State is fine" 0
    (List.length (List.filter (fun (f : Finding.t) -> f.line = 6) r.findings))

let test_d2 () =
  let r = Engine.lint_files (cfg ~rules:[ Rule.D2 ] ()) [ "bad_d2.ml" ] in
  check_rule_lines "D2 fires on unsuppressed iteration"
    [ ("D2", 1); ("D2", 2); ("D2", 3) ]
    r.findings;
  check_rule_lines "sorted-comment suppressions (line above + same line)"
    [ ("D2", 6); ("D2", 7) ]
    r.suppressed

let test_d3 () =
  let r = Engine.lint_files (cfg ~rules:[ Rule.D3 ] ()) [ "bad_d3.ml" ] in
  check_rule_lines "D3 fires on bare compare in a float-bearing module"
    [ ("D3", 3); ("D3", 4) ]
    r.findings

let test_d3_needs_float_types () =
  (* clean.ml uses bare compare on ints and declares no float types. *)
  let r = Engine.lint_files (cfg ~rules:[ Rule.D3 ] ()) [ "lib/clean.ml" ] in
  check_rule_lines "no float declarations, no D3" [] r.findings

let test_d4 () =
  let r = Engine.lint_files (cfg ~rules:[ Rule.D4 ] ()) [ "bad_d4.ml" ] in
  check_rule_lines "D4 fires on every unguarded mutable binding"
    [ ("D4", 1); ("D4", 2); ("D4", 3); ("D4", 7); ("D4", 9) ]
    r.findings;
  let orphan = List.find (fun (f : Finding.t) -> f.line = 9) r.findings in
  Alcotest.(check bool) "bad guard names the missing mutex" true
    (contains ~sub:"no_such_mutex" orphan.msg && contains ~sub:"no Mutex.t" orphan.msg)

let test_d4_atomic_fields () =
  (* A record whose fields are Atomic.t is lock-free domain-safe state: no
     D4, even when another type in the file declares the same field name
     plain mutable.  Fields without an Atomic.t declaration still fire. *)
  let r = Engine.lint_files (cfg ~rules:[ Rule.D4 ] ()) [ "atomic_d4.ml" ] in
  check_rule_lines "only the plain-mutable literal fires" [ ("D4", 5) ] r.findings

let test_d5 () =
  let r =
    Engine.lint_files (cfg ~rules:[ Rule.D5 ] ())
      [ "lib/d5_missing.ml"; "lib/clean.ml"; "bad_d1.ml" ]
  in
  check_rule_lines "only the interface-less module under lib/ fires" [ ("D5", 1) ] r.findings;
  Alcotest.(check string) "on the right file" "lib/d5_missing.ml"
    (List.hd r.findings).Finding.file

let test_d6 () =
  let r = Engine.lint_files (cfg ~rules:[ Rule.D6 ] ()) [ "hot_d6.ml" ] in
  (* Line 3 carries two findings at the same position: the List.map ident
     and the closure-literal argument of the same application.  List.combine
     (line 7), the let-bound closure (line 15) and the operator-section
     argument (line 17) must stay silent. *)
  check_rule_lines "D6 fires on List builders and closure arguments"
    [ ("D6", 3); ("D6", 3); ("D6", 5) ]
    r.findings;
  check_rule_lines "cold markers (line above + same line) suppress"
    [ ("D6", 11); ("D6", 11); ("D6", 13) ]
    r.suppressed

let test_d6_needs_hot_tag () =
  (* clean.ml constructs closures in argument position but carries no
     [es_lint: hot] tag, so D6 never looks at it. *)
  let r = Engine.lint_files (cfg ~rules:[ Rule.D6 ] ()) [ "lib/clean.ml"; "bad_d2.ml" ] in
  check_rule_lines "untagged files are exempt" [] r.findings;
  check_rule_lines "…with nothing suppressed either" [] r.suppressed

let test_parse_error () =
  let r = Engine.lint_files (cfg ()) [ "bad_parse.ml" ] in
  (* The error anchors at EOF — line 2 of the one-line fixture. *)
  check_rule_lines "unparsable file yields exactly a parse finding" [ ("parse", 2) ] r.findings

let test_clean_fixture () =
  let r = Engine.lint_files (cfg ()) [ "lib/clean.ml" ] in
  check_rule_lines "clean fixture has zero findings under every rule" [] r.findings;
  (* Its suppressions are visible: one sorted comment, two guarded bindings. *)
  Alcotest.(check (list (pair string int)))
    "suppressed inventory"
    [ ("D4", 2); ("D4", 6); ("D2", 11) ]
    (rule_lines r.suppressed)

let test_rule_toggle () =
  let r = Engine.lint_files (cfg ~rules:[ Rule.D2 ] ()) [ "bad_d1.ml" ] in
  check_rule_lines "disabled rules stay silent" [] r.findings

(* ---------- suppression via the allow file ---------- *)

let test_allow_file () =
  let allow =
    match Allowlist.load (Filename.concat root "fixtures.allow") with
    | Ok a -> a
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "mem" true (Allowlist.mem allow ~rule_id:"D4" ~path:"bad_d4.ml");
  let r = Engine.lint_files (cfg ~allow ()) [ "bad_d4.ml" ] in
  Alcotest.(check int) "all D4 findings rerouted to suppressed" 0 (List.length r.findings);
  Alcotest.(check int) "…and accounted for" 5 (List.length r.suppressed)

let test_allow_round_trip () =
  let t = Allowlist.of_entries [ ("D4", "b.ml"); ("D2", "a.ml"); ("D4", "b.ml") ] in
  Alcotest.(check (list (pair string string)))
    "entries are sorted and deduped"
    [ ("D2", "a.ml"); ("D4", "b.ml") ]
    (Allowlist.entries t);
  match Allowlist.of_string ~file:"<mem>" (String.concat "\n" (Allowlist.to_lines t)) with
  | Error m -> Alcotest.fail m
  | Ok t' ->
      Alcotest.(check (list (pair string string)))
        "to_lines/of_string round-trips" (Allowlist.entries t) (Allowlist.entries t')

let test_allow_rejects_garbage () =
  (* D7–D10 are real rules now, so their entries must parse… *)
  (match Allowlist.of_string ~file:"<mem>" "D9:foo.ml\nD10:bar.ml" with
  | Ok a ->
      Alcotest.(check bool) "interprocedural rules allowed" true
        (Allowlist.mem a ~rule_id:"D10" ~path:"bar.ml")
  | Error m -> Alcotest.fail m);
  (match Allowlist.of_string ~file:"<mem>" "D42:foo.ml" with
  | Ok _ -> Alcotest.fail "unknown rule accepted"
  | Error m -> Alcotest.(check bool) "names the bad rule" true (contains ~sub:"D42" m));
  match Allowlist.of_string ~file:"<mem>" "no-colon-here" with
  | Ok _ -> Alcotest.fail "missing colon accepted"
  | Error _ -> ()

(* ---------- output determinism ---------- *)

let shuffle seed xs =
  let rng = Es_util.Prng.create seed in
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = Es_util.Prng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let render_all files =
  let r = Engine.lint_files (cfg ()) files in
  Report.render_findings r.findings ^ Report.render_summary r

let qcheck_order_invariance =
  let baseline = lazy (render_all all_fixtures) in
  qtest "report is byte-identical under shuffled + duplicated file order" QCheck.int (fun seed ->
      let files = shuffle seed all_fixtures @ shuffle (seed + 1) all_fixtures in
      String.equal (Lazy.force baseline) (render_all files))

let test_finding_format () =
  let r = Engine.lint_files (cfg ~rules:[ Rule.D1 ] ()) [ "bad_d1.ml" ] in
  let first = List.hd r.findings in
  Alcotest.(check bool) "file:line:col [rule] message" true
    (contains ~sub:"bad_d1.ml:1:" (Finding.to_line first)
    && contains ~sub:"[D1]" (Finding.to_line first))

(* ---------- interprocedural rules (D7–D10) ---------- *)

let test_d7 () =
  let r = Engine.lint_files (cfg ~rules:[ Rule.D7 ] ()) [ "par_race_d7.ml" ] in
  check_rule_lines "D7 fires at each domain fan-out shipping racy work"
    [ ("D7", 3); ("D7", 7); ("D7", 10) ]
    r.findings;
  let at l = List.find (fun (f : Finding.t) -> f.line = l) r.findings in
  Alcotest.(check bool) "transitive toplevel race names the ref and the hop" true
    (contains ~sub:"Par_race_d7.total" (at 3).msg && contains ~sub:"par_race_d7.ml:2" (at 3).msg);
  Alcotest.(check bool) "captured-local race is its own message" true
    (contains ~sub:"captured local" (at 7).msg && contains ~sub:"local" (at 7).msg);
  Alcotest.(check bool) "Domain.spawn of a function reference is covered" true
    (contains ~sub:"Par_race_d7.total" (at 10).msg)

let test_d8 () =
  let r = Engine.lint_files (cfg ~rules:[ Rule.D8 ] ()) [ "clock_wrap_d8.ml" ] in
  (* now () reads the clock directly (that is D1's beat); D8 fires at every
     call site whose callee is transitively clocky: stamp -> now (one hop)
     and log_latency -> stamp (two hops). *)
  check_rule_lines "D8 fires at each call site reaching the clock"
    [ ("D8", 2); ("D8", 3) ]
    r.findings;
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool) "names the underlying clock read" true
        (contains ~sub:"Unix.gettimeofday" f.msg))
    r.findings

let test_d9 () =
  let r = Engine.lint_files (cfg ~rules:[ Rule.D9 ] ()) [ "locks_d9.ml" ] in
  (* first takes a then b, second takes b then a: both inner acquisitions
     complete the a<->b cycle. *)
  check_rule_lines "D9 fires on both edges of the AB/BA cycle"
    [ ("D9", 6); ("D9", 12) ]
    r.findings;
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool) "names both mutexes" true
        (contains ~sub:"Locks_d9.a" f.msg && contains ~sub:"Locks_d9.b" f.msg))
    r.findings

let test_d10 () =
  let r = Engine.lint_files (cfg ~rules:[ Rule.D10 ] ()) [ "hot_d10.ml"; "alloc_helper.ml" ] in
  check_rule_lines "hot-file calls into allocating helpers fire, one and two hops"
    [ ("D10", 2); ("D10", 3) ]
    r.findings;
  let deep = List.find (fun (f : Finding.t) -> f.line = 3) r.findings in
  Alcotest.(check bool) "witness is the List.map in the helper" true
    (contains ~sub:"List.map" deep.msg && contains ~sub:"alloc_helper.ml:1" deep.msg);
  check_rule_lines "a cold marker on the call site suppresses" [ ("D10", 7) ] r.suppressed;
  (* The helper itself is not a hot file: alone it yields nothing. *)
  let r = Engine.lint_files (cfg ~rules:[ Rule.D10 ] ()) [ "alloc_helper.ml" ] in
  check_rule_lines "no hot tag, no D10" [] r.findings

let test_alias_d4 () =
  (* alias_d4.ml guards through a value alias (m = real_lock), a qualified
     cross-unit mutex (Locks_d9.a) and a module alias (L.b = Locks_d9.b);
     only the guard naming a nonexistent mutex fires. *)
  let r = Engine.lint_files (cfg ~rules:[ Rule.D4 ] ()) [ "alias_d4.ml"; "locks_d9.ml" ] in
  check_rule_lines "only the orphan guard fires" [ ("D4", 8) ] r.findings;
  let orphan = List.hd r.findings in
  Alcotest.(check bool) "orphan guard names the missing mutex" true
    (contains ~sub:"Locks_d9.zzz" orphan.msg && contains ~sub:"no Mutex.t" orphan.msg);
  Alcotest.(check (list int))
    "alias, cross-unit and module-alias guards all verify"
    [ 5; 6; 7 ]
    (List.map (fun (f : Finding.t) -> f.line) r.suppressed);
  (* Without locks_d9.ml in the analyzed set, the qualified guards cannot
     be verified and fire instead of verifying. *)
  let r = Engine.lint_files (cfg ~rules:[ Rule.D4 ] ()) [ "alias_d4.ml" ] in
  check_rule_lines "qualified guards need the defining unit"
    [ ("D4", 6); ("D4", 7); ("D4", 8) ]
    r.findings

let test_why_chain () =
  let a = Engine.analyze_files (cfg ()) all_fixtures in
  (* D8 at clock_wrap_d8.ml:3 is two hops from the clock read: the chain
     must walk log_latency -> stamp -> now -> Unix.gettimeofday. *)
  let chain = Callgraph.explain a.graph ~rule:Rule.D8 ~file:"clock_wrap_d8.ml" ~line:3 in
  let text = String.concat "\n" chain in
  Alcotest.(check bool) "multi-hop chain reaches the witness" true
    (contains ~sub:"log_latency" text && contains ~sub:"stamp" text && contains ~sub:"now" text
    && contains ~sub:"Unix.gettimeofday" text
    && contains ~sub:"clock_wrap_d8.ml:1" text);
  (* D9 explains the cycle rather than a call chain. *)
  let cycle = String.concat "\n" (Callgraph.explain a.graph ~rule:Rule.D9 ~file:"locks_d9.ml" ~line:6) in
  Alcotest.(check bool) "lock cycle names both mutexes" true
    (contains ~sub:"Locks_d9.a" cycle && contains ~sub:"Locks_d9.b" cycle);
  Alcotest.(check (list string))
    "no anchored finding, no chain" []
    (Callgraph.explain a.graph ~rule:Rule.D8 ~file:"lib/clean.ml" ~line:1)

let () =
  Alcotest.run "es_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "D1 nondeterminism sources" `Quick test_d1;
          Alcotest.test_case "D2 unordered iteration" `Quick test_d2;
          Alcotest.test_case "D3 polymorphic compare" `Quick test_d3;
          Alcotest.test_case "D3 needs float declarations" `Quick test_d3_needs_float_types;
          Alcotest.test_case "D4 mutable toplevel state" `Quick test_d4;
          Alcotest.test_case "D4 Atomic.t record fields exempt" `Quick test_d4_atomic_fields;
          Alcotest.test_case "D5 mli coverage" `Quick test_d5;
          Alcotest.test_case "D6 hot-path allocation" `Quick test_d6;
          Alcotest.test_case "D6 needs the hot tag" `Quick test_d6_needs_hot_tag;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "clean fixture is clean" `Quick test_clean_fixture;
          Alcotest.test_case "rule toggling" `Quick test_rule_toggle;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "D7 domain-escape races" `Quick test_d7;
          Alcotest.test_case "D8 transitive nondeterminism" `Quick test_d8;
          Alcotest.test_case "D9 lock-order cycle" `Quick test_d9;
          Alcotest.test_case "D10 transitive hot-path allocation" `Quick test_d10;
          Alcotest.test_case "D4 guard aliases and cross-unit mutexes" `Quick test_alias_d4;
          Alcotest.test_case "--why call chains" `Quick test_why_chain;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "allow file reroutes findings" `Quick test_allow_file;
          Alcotest.test_case "allow round-trip" `Quick test_allow_round_trip;
          Alcotest.test_case "allow rejects garbage" `Quick test_allow_rejects_garbage;
        ] );
      ( "determinism",
        [ qcheck_order_invariance; Alcotest.test_case "finding format" `Quick test_finding_format ]
      );
    ]
