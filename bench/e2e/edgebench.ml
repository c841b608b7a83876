(* edgebench: the end-to-end benchmark.

     edgebench --workload NAME --seed N [--seconds S] [--trace 0|1]
               [--spans FILE] [--record FILE]
     edgebench --smoke
     edgebench --compare A.jsonl B.jsonl

   A run measures one workload in its own process, single-threaded
   (jobs = 1 everywhere).  Its inputs come from a fixed seed (see
   Workload.seeds); --seed is recorded with the run and selects nothing.
   It prints as its last stdout line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   untraced, or with --trace 1 the per-layer metrics, taken in a separate
   traced run whose spans go to --spans.  The metrics, their names and
   units are those BENCHMARK.json (in the working directory) declares.  It
   exits 1 if any operation failed or a metric has no finite value.
   --smoke runs every workload at tiny sizes and checks the output against
   BENCHMARK.json; --compare sets two recorded sets of runs side by side.
   See README.md. *)

module J = Es_obs.Json
module W = Workload
module B = Bench_file

let value values name = Option.value ~default:nan (List.assoc_opt name values)

let result_json ~attempted ~failed (declared : B.metric list) values =
  let finite (m : B.metric) = Float.is_finite (value values m.B.name) in
  let correct = failed = 0 && List.for_all finite declared in
  ( correct,
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int (max 1 attempted));
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun (m : B.metric) ->
                 ( m.B.name,
                   J.Obj [ ("value", J.Float (value values m.B.name)); ("unit", J.String m.B.unit) ]
                 ))
               declared) );
      ] )

let pp_metrics title (declared : B.metric list) values =
  Printf.eprintf "%s\n" title;
  List.iter
    (fun (m : B.metric) ->
      Printf.eprintf "  %-30s %16.6g %s\n" m.B.name (value values m.B.name) m.B.unit)
    declared

let append_record path ~workload ~seed ~trace result =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Es_obs.Export.write_jsonl_line oc
        (J.Obj
           [
             ("workload", J.String workload);
             ("seed", J.Int seed);
             ("trace", J.Int (if trace then 1 else 0));
             ("result", result);
           ]))

let measure_workload (spec : B.t) ~trace ~spans_path ~record ~seed ~seconds (w : W.t) =
  let tr = if trace then Some (Spans.create ()) else None in
  let declared = if trace then spec.B.per_layer else spec.B.end_to_end in
  let measured () =
    let r = W.run ?tr ~size:W.Full ~seconds w in
    prerr_endline (W.samples r);
    let e2e = W.end_to_end r in
    let values =
      if not trace then e2e
      else begin
        let layers = Layers.measure r in
        pp_metrics
          "end-to-end metrics of this traced run (against an untraced run's, the tracing \
           overhead):"
          spec.B.end_to_end e2e;
        layers
      end
    in
    (r.W.ctx.W.attempted, r.W.ctx.W.failed, values)
  in
  let attempted, failed, values =
    try measured ()
    with e ->
      Printf.eprintf "edgebench: %s: %s\n" w.W.name (Printexc.to_string e);
      (1, 1, [])
  in
  Option.iter
    (fun t ->
      let table = Spans.write spans_path t in
      Printf.eprintf "%d spans written to %s; self time per span name:\n"
        (List.length (Spans.spans t)) spans_path;
      Spans.pp_self_times stderr table)
    tr;
  pp_metrics
    (Printf.sprintf "%s seed %d: %d operations, %d failed" w.W.name seed attempted failed)
    declared values;
  let correct, result = result_json ~attempted ~failed declared values in
  Option.iter (fun path -> append_record path ~workload:w.W.name ~seed ~trace result) record;
  print_endline (J.to_string result);
  if correct then 0 else 1

(* Every workload at tiny sizes in one traced run, which yields both metric
   sets: each metric BENCHMARK.json names is produced with a finite value,
   no operation fails, and spans are recorded. *)
let smoke (spec : B.t) =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let names = List.map (fun (w : W.t) -> w.W.name) W.all in
  if spec.B.workloads <> names then
    problem "BENCHMARK.json workloads [%s] <> edgebench's [%s]"
      (String.concat ", " spec.B.workloads)
      (String.concat ", " names);
  let check w (declared : B.metric list) values =
    List.iter
      (fun (m : B.metric) ->
        match List.assoc_opt m.B.name values with
        | Some v when Float.is_finite v -> ()
        | Some _ -> problem "%s: %s has no finite value" w m.B.name
        | None -> problem "%s: %s is not produced" w m.B.name)
      declared
  in
  List.iter
    (fun (w : W.t) ->
      let t0 = Es_obs.Obs.wall_clock () in
      let t = Spans.create () in
      let r = W.run ~tr:t ~size:W.Smoke ~seconds:0.05 w in
      check w.W.name spec.B.end_to_end (W.end_to_end r);
      check w.W.name spec.B.per_layer (Layers.measure r);
      if r.W.ctx.W.failed > 0 then
        problem "%s: %d of %d operations failed" w.W.name r.W.ctx.W.failed r.W.ctx.W.attempted;
      if Spans.spans t = [] then problem "%s: the traced run recorded no spans" w.W.name;
      Printf.eprintf "edgebench smoke: %s %.2fs\n%!" w.W.name (Es_obs.Obs.wall_clock () -. t0))
    W.all;
  List.iter prerr_endline (List.rev !problems);
  if !problems = [] then begin
    Printf.printf "edgebench smoke: %d workloads OK\n" (List.length W.all);
    0
  end
  else 1

let usage () =
  prerr_endline
    "usage: edgebench --workload NAME --seed N [--seconds S] [--trace 0|1] [--spans FILE] \
     [--record FILE]\n\
    \       edgebench --smoke\n\
    \       edgebench --compare A.jsonl B.jsonl";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 15.0 and trace = ref false in
  let spans = ref None and record = ref None in
  let mode = ref `Run in
  let positive_float s =
    match float_of_string_opt s with Some x when x > 0.0 -> x | _ -> usage ()
  in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := Some (match int_of_string_opt n with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := positive_float s;
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | "--spans" :: p :: rest ->
        spans := Some p;
        parse rest
    | "--record" :: p :: rest ->
        record := Some p;
        parse rest
    | "--smoke" :: rest ->
        mode := `Smoke;
        parse rest
    | "--compare" :: a :: b :: rest ->
        mode := `Compare (a, b);
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let code =
    match B.read () with
    | Error e ->
        prerr_endline ("edgebench: " ^ e);
        2
    | Ok spec -> (
        match !mode with
        | `Smoke -> smoke spec
        | `Compare (a, b) -> Compare.run spec a b
        | `Run -> (
            match (!workload, !seed) with
            | Some name, Some seed -> (
                match W.find name with
                | None ->
                    Printf.eprintf "edgebench: unknown workload %S (known: %s)\n" name
                      (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
                    2
                | Some w ->
                    let spans_path =
                      Option.value !spans
                        ~default:(Printf.sprintf "edgebench-%s.spans.jsonl" name)
                    in
                    measure_workload spec ~trace:!trace ~spans_path ~record:!record ~seed
                      ~seconds:!seconds w)
            | _ -> usage ()))
  in
  exit code
