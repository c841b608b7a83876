type span_record = {
  id : int;
  parent : int option;
  trace : int;
  name : string;
  start_s : float;
  end_s : float;
  attrs : (string * Json.t) list;
}

let record_of_span (s : Span.t) =
  {
    id = s.Span.id;
    parent = s.Span.parent;
    trace = s.Span.trace;
    name = s.Span.name;
    start_s = s.Span.start_s;
    end_s = s.Span.end_s;
    attrs = s.Span.attrs;
  }

let span_record_to_json r =
  Json.Obj
    ([
       ("kind", Json.String "span");
       ("trace", Json.Int r.trace);
       ("id", Json.Int r.id);
     ]
    @ (match r.parent with Some p -> [ ("parent", Json.Int p) ] | None -> [])
    @ [
        ("name", Json.String r.name);
        ("start_s", Json.Float r.start_s);
        ("end_s", Json.Float r.end_s);
        ("duration_s", Json.Float (r.end_s -. r.start_s));
      ]
    @ if r.attrs = [] then [] else [ ("attrs", Json.Obj r.attrs) ])

let span_to_json s = span_record_to_json (record_of_span s)

let span_of_json j =
  let ( let* ) = Result.bind in
  let req name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "span line: missing or ill-typed %S" name)
  in
  let* () =
    match Option.bind (Json.member "kind" j) Json.to_string_opt with
    | Some "span" -> Ok ()
    | _ -> Error "span line: kind is not \"span\""
  in
  let* trace = req "trace" Json.to_int_opt in
  let* id = req "id" Json.to_int_opt in
  let parent = Option.bind (Json.member "parent" j) Json.to_int_opt in
  let* name = req "name" Json.to_string_opt in
  let* start_s = req "start_s" Json.to_float_opt in
  let* end_s = req "end_s" Json.to_float_opt in
  let attrs =
    match Json.member "attrs" j with Some (Json.Obj kvs) -> kvs | _ -> []
  in
  Ok { id; parent; trace; name; start_s; end_s; attrs }

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let sample_to_json (s : Metric.sample) =
  let base =
    [ ("kind", Json.String "metric"); ("name", Json.String s.Metric.name) ]
    @ if s.Metric.labels = [] then [] else [ ("labels", labels_json s.Metric.labels) ]
  in
  match s.Metric.value with
  | Metric.Counter c -> Json.Obj (base @ [ ("type", Json.String "counter"); ("value", Json.Int c) ])
  | Metric.Gauge g -> Json.Obj (base @ [ ("type", Json.String "gauge"); ("value", Json.Float g) ])
  | Metric.Histo h ->
      let q p = Json.Float (Histogram.quantile h p) in
      Json.Obj
        (base
        @ [
            ("type", Json.String "histogram");
            ("count", Json.Int (Histogram.count h));
            ("sum", Json.Float (Histogram.sum h));
            ("min", Json.Float (Histogram.min_observed h));
            ("max", Json.Float (Histogram.max_observed h));
            ("p50", q 50.0);
            ("p95", q 95.0);
            ("p99", q 99.0);
            ( "buckets",
              Json.List
                (List.map
                   (fun (lo, hi, c) ->
                     Json.Obj
                       [ ("lo", Json.Float lo); ("hi", Json.Float hi); ("count", Json.Int c) ])
                   (Histogram.nonempty_buckets h)) );
          ])

let write_jsonl_line oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n'

let jsonl_span_sink oc : Span.sink = fun s -> write_jsonl_line oc (span_to_json s)

let metrics_to_jsonl oc reg =
  List.iter (fun s -> write_jsonl_line oc (sample_to_json s)) (Metric.snapshot reg)

let with_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let read_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go (lineno + 1) acc
        | line -> (
            match Json.of_string line with
            | Ok j -> go (lineno + 1) (j :: acc)
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
      in
      go 1 [])
