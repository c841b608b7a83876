(* edgebench --compare A.jsonl B.jsonl: two sets of runs side by side.

   Each line of a set is one run as --record appends it.  For every
   workload x metric the comparison prints each set's median and quartiles
   (end-to-end metrics from the untraced runs, per-layer ones from the
   traced runs).  It flags, and then exits 1:
   - a run that failed an operation or reported correct = false;
   - a workload whose two sets were not run at the same seeds;
   - a bounded metric with no finite value in some run of either set;
   - a median that got worse by more than the metric's bound in
     BENCHMARK.json;
   - a metric that repeats exactly whose runs of equal seeds differ. *)

module J = Es_obs.Json

(* The metrics that repeat bit for bit from run to run of the same code:
   counts, allocation and simulated quality, never wall-clock times. *)
let exact =
  [
    "solve_minor_words";
    "objective";
    "sim_minor_words_per_request";
    "dsr";
    "sim_mean_latency";
    "candidate.plans";
    "candidate.frontier_plans";
    "optimizer.iterations";
    "optimizer.best_scored_words";
    "optimizer.best_allocation_words";
    "shard.devices";
    "engine.events";
    "engine.max_pending";
    "runner.minor_words_per_event";
    "outcomes.shed";
    "outcomes.degraded";
    "outcomes.timed_out";
    "outcomes.dropped";
  ]

type record = {
  workload : string;
  seed : int;
  trace : bool;
  correct : bool;
  failed : int;
  values : (string * float) list;  (** a null value (non-finite when written) reads nan *)
}

let record_of_json j =
  let ( let* ) = Option.bind in
  let field key f = Option.bind (J.member key j) f in
  let* workload = field "workload" J.to_string_opt in
  let* seed = field "seed" J.to_int_opt in
  let* trace = field "trace" J.to_int_opt in
  let* result = J.member "result" j in
  let* correct = match J.member "correct" result with Some (J.Bool b) -> Some b | _ -> None in
  let* failed = Option.bind (J.member "failed" result) J.to_int_opt in
  match J.member "metrics" result with
  | Some (J.Obj fields) ->
      let value m = Option.value ~default:nan (Option.bind (J.member "value" m) J.to_float_opt) in
      let values = List.map (fun (name, m) -> (name, value m)) fields in
      Some { workload; seed; trace = trace = 1; correct; failed; values }
  | _ -> None

let load path =
  match Es_obs.Export.read_jsonl path with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok lines -> (
      match List.map record_of_json lines with
      | records when List.for_all Option.is_some records ->
          Ok (List.filter_map Fun.id records)
      | _ -> Error (path ^ ": a line is not a run record (see --record)"))

(* Python's statistics.quantiles(xs, n=4), the default exclusive method. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Equal-seed runs of the two sets, value for value. *)
let same_seed_verdict va vb =
  let pairs =
    List.filter_map (fun (s, a) -> Option.map (fun b -> (a, b)) (List.assoc_opt s vb)) va
  in
  if pairs = [] then `No_common_seed
  else if
    List.for_all
      (fun (a, b) -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
      pairs
  then `Equal
  else `Differ

let seeds runs = List.sort Int.compare (List.map (fun r -> r.seed) runs)

let run (spec : Bench_file.t) a b =
  match (load a, load b) with
  | Error e, _ | _, Error e ->
      prerr_endline ("edgebench --compare: " ^ e);
      2
  | Ok ra, Ok rb ->
      let flagged = ref 0 in
      let flag fmt =
        incr flagged;
        Printf.sprintf fmt
      in
      Printf.printf "%-30s %-6s %-44s %-44s\n" "metric" "unit" ("A = " ^ a) ("B = " ^ b);
      List.iter
        (fun (set, records) ->
          List.iter
            (fun r ->
              if (not r.correct) || r.failed > 0 then
                print_endline
                  (flag "%s: %s seed %d (trace %b): correct = %b, %d failed" set r.workload
                     r.seed r.trace r.correct r.failed))
            records)
        [ ("A", ra); ("B", rb) ];
      let runs set w ~trace =
        List.filter (fun r -> r.workload = w && r.trace = trace) set
      in
      let show vs =
        let q1, q2, q3 = quartiles vs in
        Printf.sprintf "%12.6g [%-12.6g %12.6g] n=%-3d" q2 q1 q3 (List.length vs)
      in
      let metric_line ~na ~nb (m : Bench_file.metric) =
        let value r = Option.value ~default:nan (List.assoc_opt m.Bench_file.name r.values) in
        let va = List.map (fun r -> (r.seed, value r)) na
        and vb = List.map (fun r -> (r.seed, value r)) nb in
        let all_finite vs = vs <> [] && List.for_all (fun (_, v) -> Float.is_finite v) vs in
        let _, ma, _ = quartiles (List.map snd va) and _, mb, _ = quartiles (List.map snd vb) in
        let bound_verdict =
          match m.Bench_file.bound with
          | None -> ""
          | Some _ when not (all_finite va && all_finite vb) ->
              flag "MISSING: no finite value in some run"
          | Some bound ->
              let worse = (mb -. ma) /. ma in
              let worse = if m.Bench_file.better = "lower" then worse else -.worse in
              if worse > bound then
                flag "WORSE by %.2f%% (bound %.2f%%)" (100.0 *. worse) (100.0 *. bound)
              else Printf.sprintf "ok (%+.2f%% worse)" (100.0 *. worse)
        in
        let exact_verdict =
          if not (List.mem m.Bench_file.name exact) then ""
          else
            match same_seed_verdict va vb with
            | `Equal -> " equal"
            | `Differ -> " " ^ flag "DIFFER at equal seeds"
            | `No_common_seed -> " " ^ flag "NO COMMON SEED"
        in
        Printf.printf "  %-28s %-6s %s %s %s%s\n" m.Bench_file.name m.Bench_file.unit
          (show (List.map snd va)) (show (List.map snd vb)) bound_verdict exact_verdict
      in
      List.iter
        (fun w ->
          Printf.printf "%s\n" w;
          List.iter
            (fun (trace, metrics) ->
              let na = runs ra w ~trace and nb = runs rb w ~trace in
              if na <> [] || nb <> [] then begin
                if seeds na <> seeds nb then begin
                  let show_seeds runs = String.concat " " (List.map string_of_int (seeds runs)) in
                  print_endline
                    (flag "  %s runs at different seeds: A [%s], B [%s]"
                       (if trace then "traced" else "untraced")
                       (show_seeds na) (show_seeds nb))
                end;
                List.iter (metric_line ~na ~nb) metrics
              end)
            [ (false, spec.Bench_file.end_to_end); (true, spec.Bench_file.per_layer) ])
        spec.Bench_file.workloads;
      Printf.printf "%d problem(s) flagged\n" !flagged;
      if !flagged > 0 then 1 else 0
