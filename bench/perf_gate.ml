(* CI perf-regression gate.

   Compares a fresh bench run (bench_smoke.json, produced by timing.exe on
   the CI box) against the committed baseline (BENCH_solver.json, produced
   on a dev box).  Absolute times are incomparable across machines, so the
   gate checks machine-relative quantities only, with a generous 2x band —
   it exists to catch real regressions (a warm-start that stopped helping,
   a skyline that fell back to quadratic), not scheduler noise:

     - pareto_micro skyline speedup must stay within 2x of baseline;
     - the scan_micro record (when the current run carries one): the
       surgery scan's speedup over the reference list scan must stay
       within 2x of baseline, and both must pick the same plan for every
       device;
     - warm_online re-solve speedup must stay within 2x of baseline, and
       its equal-or-better invariant must hold;
     - every solver_scaling record must report identical objectives at
       jobs=1 and jobs=N (determinism, not performance);
     - every sharded_scaling record (baseline and current) must be
       bit-identical across jobs and feasible, and wherever a file holds
       both a >=1000-device sharded tier and a 100-device monolithic
       measurement, the sharded solve must be no slower — the headline
       scaling claim, checked same-machine within one file.  The
       monolithic reference is the sharded_vs_mono record's t_mono_s when
       present (100 devices on a comparably provisioned 4-server cluster,
       like the sharded tiers at ~40 devices/server) and the 2-server
       solver_scaling tier otherwise;
     - each sharded_vs_mono record is gated against the baseline record
       with the same device count: machine-relative speedup within the
       2x band, and the decomposition's objective give-up bounded
       (quality_ratio <= 1.25, the bound the test suite enforces);
     - each alloc_per_solve record (when the current run carries any) is
       gated absolutely: allocation counts are machine-independent, so
       minor-heap words per solve must stay within 5% + 1024 words of the
       committed baseline, and the flat kernels must agree with their
       retained reference oracles on the solve's landing point;
     - the current million_request record is gated absolutely: the runner's
       event-list high-water mark stays within 1/16 of the requests it
       served (trace arrivals are read lazily, not posted up front), and
       its minor words per request stay within 5% + 1 word of the
       committed baseline's.

   Usage: perf_gate.exe --baseline BENCH_solver.json --current bench_smoke.json
   Exit 0 on pass, 1 on regression, 2 on usage/parse errors. *)

module J = Es_obs.Json

let fail_usage () =
  prerr_endline "usage: perf_gate.exe --baseline PATH --current PATH";
  exit 2

let read_records path =
  let ic =
    try open_in path
    with Sys_error e ->
      Printf.eprintf "perf-gate: cannot open %s: %s\n" path e;
      exit 2
  in
  let records = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match J.of_string line with
         | Ok j -> records := j :: !records
         | Error e ->
             Printf.eprintf "perf-gate: %s: bad JSONL line: %s\n" path e;
             exit 2
     done
   with End_of_file -> close_in ic);
  List.rev !records

let kind_of j = Option.bind (J.member "kind" j) J.to_string_opt

let find_kind kind records =
  List.find_opt (fun j -> kind_of j = Some kind) records

let float_field name j = Option.bind (J.member name j) J.to_float_opt

let bool_field name j =
  match J.member name j with Some (J.Bool b) -> Some b | _ -> None

(* Failures carry their detail string so the summary can repeat the
   absolute baseline and current values — a CI log skimmed bottom-up then
   shows the numbers, not just the check names. *)
let failures : (string * string) list ref = ref []

let check name ok detail =
  if ok then Printf.printf "perf-gate: PASS %-28s %s\n" name detail
  else begin
    Printf.printf "perf-gate: FAIL %-28s %s\n" name detail;
    failures := (name, detail) :: !failures
  end

(* A current speedup is acceptable when it retains at least half the
   baseline's; speedups below 1x in the baseline gate at half of 1x. *)
let speedup_floor baseline = Float.max baseline 1.0 /. 2.0

let gate_speedup name ~baseline ~current =
  match (baseline, current) with
  | None, _ ->
      check name false "baseline record/field missing"
  | _, None ->
      check name false "current record/field missing"
  | Some b, Some c ->
      let floor = speedup_floor b in
      check name (c >= floor)
        (Printf.sprintf "current %.2fx vs baseline %.2fx (floor %.2fx)" c b floor)

let () =
  let baseline_path = ref "" and current_path = ref "" in
  let rec parse = function
    | "--baseline" :: p :: rest ->
        baseline_path := p;
        parse rest
    | "--current" :: p :: rest ->
        current_path := p;
        parse rest
    | [] -> ()
    | _ -> fail_usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !baseline_path = "" || !current_path = "" then fail_usage ();
  let baseline = read_records !baseline_path in
  let current = read_records !current_path in

  (* pareto_micro: the sort-based skyline must stay clearly ahead of the
     quadratic reference. *)
  gate_speedup "pareto_micro.speedup"
    ~baseline:(Option.bind (find_kind "pareto_micro" baseline) (float_field "speedup"))
    ~current:(Option.bind (find_kind "pareto_micro" current) (float_field "speedup"));

  (* scan_micro: the pool scan must stay clearly ahead of the reference
     list scan at the same grants, picking the same plans. *)
  (match find_kind "scan_micro" current with
  | None -> ()
  | Some cur ->
      gate_speedup "scan_micro.speedup"
        ~baseline:(Option.bind (find_kind "scan_micro" baseline) (float_field "speedup"))
        ~current:(float_field "speedup" cur);
      check "scan_micro.identical"
        (bool_field "identical" cur = Some true)
        (match bool_field "identical" cur with
        | Some b -> Printf.sprintf "%b" b
        | None -> "current record/field missing"));

  (* warm_online: warm+cached epoch re-solves vs cold. *)
  let warm_base = find_kind "warm_online" baseline in
  let warm_cur = find_kind "warm_online" current in
  gate_speedup "warm_online.speedup"
    ~baseline:(Option.bind warm_base (float_field "speedup"))
    ~current:(Option.bind warm_cur (float_field "speedup"));
  (match Option.bind warm_cur (bool_field "equal_or_better") with
  | Some b -> check "warm_online.equal_or_better" b (Printf.sprintf "%b" b)
  | None -> check "warm_online.equal_or_better" false "current record/field missing");
  (match Option.bind warm_cur (fun j -> Option.bind (J.member "cache_hits" j) J.to_int_opt) with
  | Some h -> check "warm_online.cache_hits" (h > 0) (Printf.sprintf "%d hits" h)
  | None -> check "warm_online.cache_hits" false "current record/field missing");

  (* solver_scaling: jobs=1 and jobs=N must agree bit-for-bit on every
     cluster size measured in the current run. *)
  let scaling = List.filter (fun j -> kind_of j = Some "solver_scaling") current in
  check "solver_scaling.identical"
    (scaling <> [] && List.for_all (fun j -> bool_field "identical" j = Some true) scaling)
    (Printf.sprintf "%d records" (List.length scaling));

  (* sharded_scaling: determinism + feasibility wherever measured, and the
     headline same-machine claim — a >=1000-device sharded solve no slower
     than the 100-device monolithic one — in any file holding both. *)
  let int_field name j = Option.bind (J.member name j) J.to_int_opt in
  let sharded_of records =
    List.filter (fun j -> kind_of j = Some "sharded_scaling") records
  in
  List.iter
    (fun (label, records) ->
      let sharded = sharded_of records in
      if sharded <> [] then begin
        check
          (Printf.sprintf "sharded_scaling.%s.identical" label)
          (List.for_all (fun j -> bool_field "identical" j = Some true) sharded)
          (Printf.sprintf "%d records" (List.length sharded));
        check
          (Printf.sprintf "sharded_scaling.%s.feasible" label)
          (List.for_all (fun j -> bool_field "feasible" j = Some true) sharded)
          (Printf.sprintf "%d records" (List.length sharded))
      end;
      let big_sharded =
        List.filter (fun j -> match int_field "devices" j with Some d -> d >= 1000 | None -> false) sharded
      in
      let record_with kind field =
        Option.bind
          (List.find_opt
             (fun j -> kind_of j = Some kind && int_field "devices" j = Some 100)
             records)
          (float_field field)
      in
      let mono100_t =
        match record_with "sharded_vs_mono" "t_mono_s" with
        | Some t -> Some t
        | None -> record_with "solver_scaling" "t_jobs1_s"
      in
      match (big_sharded, mono100_t) with
      | [], _ | _, None -> ()
      | big, Some tm ->
          List.iter
            (fun j ->
              match (float_field "t_jobs1_s" j, int_field "devices" j) with
              | Some ts, Some d ->
                  check
                    (Printf.sprintf "sharded_scaling.%s.%d_vs_mono100" label d)
                    (ts <= tm)
                    (Printf.sprintf "sharded@%d %.3fs vs mono@100 %.3fs" d ts tm)
              | _ ->
                  check
                    (Printf.sprintf "sharded_scaling.%s.vs_mono100" label)
                    false "missing t_jobs1_s field")
            big)
    [ ("baseline", baseline); ("current", current) ];

  (* sharded_vs_mono: machine-relative head-to-head speedup, paired by
     device count, plus the bounded objective give-up. *)
  List.iter
    (fun j ->
      match int_field "devices" j with
      | None -> check "sharded_vs_mono.devices" false "current record missing devices"
      | Some d ->
          let name suffix = Printf.sprintf "sharded_vs_mono.%d.%s" d suffix in
          let base =
            List.find_opt
              (fun b ->
                kind_of b = Some "sharded_vs_mono" && int_field "devices" b = Some d)
              baseline
          in
          (match base with
          | None -> ()
          | Some b ->
              gate_speedup (name "speedup")
                ~baseline:(float_field "speedup" b)
                ~current:(float_field "speedup" j));
          (match float_field "quality_ratio" j with
          | Some q ->
              check (name "quality") (q <= 1.25) (Printf.sprintf "quality_ratio %.3f" q)
          | None -> check (name "quality") false "missing quality_ratio");
          check (name "feasible")
            (bool_field "feasible" j = Some true)
            "sharded decisions validate")
    (List.filter (fun j -> kind_of j = Some "sharded_vs_mono") current);

  (* million_request: the serving-engine arm.  The engine-vs-heap-loop
     events/s ratio is machine-relative; it also shrinks with [n] (the heap
     pays log n), so a CI smoke at a smaller n than the committed baseline
     leans on the 2x band — the gate still catches the failure it exists
     for, the calendar queue collapsing to heap speed.  The correctness
     bits must simply hold: the engine and the reference heap loop process
     the same event count, two runner runs produce byte-equal reports, and
     every generated request is accounted for. *)
  (match find_kind "million_request" current with
  | None -> ()
  | Some cur ->
      gate_speedup "million_request.engine_speedup"
        ~baseline:
          (Option.bind (find_kind "million_request" baseline)
             (float_field "engine_speedup"))
        ~current:(float_field "engine_speedup" cur);
      List.iter
        (fun field ->
          check
            (Printf.sprintf "million_request.%s" field)
            (bool_field field cur = Some true)
            (match bool_field field cur with
            | Some b -> Printf.sprintf "%b" b
            | None -> "current record/field missing"))
        [ "identical"; "reports_match"; "conservation" ];
      (match float_field "calendar_events_per_s" cur with
      | Some eps -> check "million_request.events_per_s" (eps > 0.0) (Printf.sprintf "%.0f ev/s" eps)
      | None -> check "million_request.events_per_s" false "current record/field missing");
      (* Absolute, like the overload arm: the runner reads its trace one
         arrival at a time, so its event list holds the requests in
         flight, a small fraction of the trace. *)
      (match (int_field "runner_max_pending" cur, int_field "requests" cur) with
      | Some pending, Some requests ->
          check "million_request.max_pending" (pending * 16 <= requests)
            (Printf.sprintf "%d pending for %d requests (ceiling 1/16)" pending requests)
      | _ -> check "million_request.max_pending" false "current record/field missing");
      (* Minor words per served request, absolute like alloc_per_solve:
         the run is deterministic, so the count depends on the binary,
         not the machine (5% + 1 word of slack). *)
      let base =
        Option.bind (find_kind "million_request" baseline) (float_field "runner_words_per_request")
      in
      match (base, float_field "runner_words_per_request" cur) with
      | Some bw, Some cw ->
          let ceiling = (bw *. 1.05) +. 1.0 in
          check "million_request.runner_words" (cw <= ceiling)
            (Printf.sprintf "current %.2f vs baseline %.2f words/request (ceiling %.2f)" cw bw
               ceiling)
      | None, _ -> check "million_request.runner_words" false "no baseline runner_words_per_request"
      | _, None -> check "million_request.runner_words" false "current record/field missing");

  (* overload: the protection arm's checks are absolute (within-record, on
     the current machine), so no baseline pairing is needed — protection
     must lift admitted DSR >= 2x over the unprotected run without losing
     useful completions, the armed-but-lax run must be byte-identical to
     the unprotected one, and its wall-time overhead must sit inside the
     2x noise band. *)
  (match find_kind "overload" current with
  | None -> ()
  | Some cur ->
      (match float_field "protection_dsr_ratio" cur with
      | Some r ->
          check "overload.protection_dsr_ratio" (r >= 2.0)
            (Printf.sprintf "admitted-DSR ratio %.2fx (floor 2.0x)" r)
      | None -> check "overload.protection_dsr_ratio" false "current record/field missing");
      (match float_field "overhead_ratio" cur with
      | Some r ->
          check "overload.overhead_ratio" (r <= 2.0)
            (Printf.sprintf "armed-but-lax overhead %.2fx (ceiling 2.0x)" r)
      | None -> check "overload.overhead_ratio" false "current record/field missing");
      List.iter
        (fun field ->
          check
            (Printf.sprintf "overload.%s" field)
            (bool_field field cur = Some true)
            (match bool_field field cur with
            | Some b -> Printf.sprintf "%b" b
            | None -> "current record/field missing"))
        [ "no_fewer_hits"; "off_identical"; "conservation" ]);

  (* alloc_per_solve: allocated minor-heap words per steady-state solve.
     Allocation counts are machine-independent (same binary, same compiler
     -> same words), so unlike the wall-clock checks above this one is
     absolute: a small tolerance for harness jitter (5% + 1024 words), no
     2x band.  The section is skipped when the current run carries no
     alloc records (plain smoke runs), but once it does, every record must
     pair with a committed baseline and its flat kernels must agree with
     the retained reference oracles. *)
  let alloc_of records = List.filter (fun j -> kind_of j = Some "alloc_per_solve") records in
  let string_field name j = Option.bind (J.member name j) J.to_string_opt in
  List.iter
    (fun cur ->
      let scenario = Option.value ~default:"?" (string_field "scenario" cur) in
      let name suffix = Printf.sprintf "alloc.%s.%s" scenario suffix in
      (match bool_field "oracle_ok" cur with
      | Some b -> check (name "oracle") b "flat kernels vs reference oracles on the landing point"
      | None -> check (name "oracle") false "current record missing oracle_ok");
      let base =
        List.find_opt
          (fun b ->
            kind_of b = Some "alloc_per_solve"
            && string_field "scenario" b = Some scenario
            && int_field "devices" b = int_field "devices" cur)
          (alloc_of baseline)
      in
      match base with
      | None -> check (name "minor_words") false "no baseline alloc record for this scenario"
      | Some b -> (
          match
            (float_field "minor_words_per_solve" b, float_field "minor_words_per_solve" cur)
          with
          | Some bw, Some cw ->
              let ceiling = (bw *. 1.05) +. 1024.0 in
              check (name "minor_words") (cw <= ceiling)
                (Printf.sprintf "current %.0f vs baseline %.0f words/solve (ceiling %.0f)" cw
                   bw ceiling)
          | _ -> check (name "minor_words") false "missing minor_words_per_solve field"))
    (alloc_of current);

  (* Name the failed checks in the summary and flush before exiting, so a
     CI log that truncates at the non-zero exit still shows what failed. *)
  match List.rev !failures with
  | [] ->
      print_endline "perf-gate: all checks passed";
      flush stdout
  | failed ->
      Printf.printf "perf-gate: %d check(s) failed:\n" (List.length failed);
      List.iter (fun (name, detail) -> Printf.printf "  FAIL %s — %s\n" name detail) failed;
      flush stdout;
      exit 1
