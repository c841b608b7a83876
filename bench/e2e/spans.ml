(* In-memory spans for the traced run (wall clock).

   The benchmark opens one root span per operation, so every operation gets
   its own trace id, and child spans around the public calls it makes into
   each layer.  Spans the program emits itself (the optimizer's
   [optimizer/solve] and [optimizer/iteration]) are adopted under the span
   that was open when they were emitted.  Nothing is written until the run
   ends: [write] dumps the spans as JSONL followed by one self-time line per
   span name. *)

module R = Es_obs.Export
module Smap = Map.Make (String)

let wall = Es_obs.Obs.wall_clock

type t = {
  mutable next_id : int;
  mutable open_spans : (int * int) list;  (** (id, trace) of open spans, innermost first *)
  mutable finished : R.span_record list;  (** newest first *)
}

let create () = { next_id = 1; open_spans = []; finished = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let with_span t ?(attrs = []) name f =
  let id = fresh_id t in
  let parent, trace =
    match t.open_spans with (p, tr) :: _ -> (Some p, tr) | [] -> (None, id)
  in
  t.open_spans <- (id, trace) :: t.open_spans;
  let start_s = wall () in
  Fun.protect
    ~finally:(fun () ->
      t.open_spans <- List.tl t.open_spans;
      let s = { R.id; parent; trace; name; start_s; end_s = wall (); attrs } in
      t.finished <- s :: t.finished)
    f

(* [span None] is the untraced path: the call runs bare. *)
let span tr ?attrs name f = match tr with None -> f () | Some t -> with_span t ?attrs name f

(* Optimizer.solve gives each multi-start trajectory its own tracer, whose
   ids restart at 1, and emits a trajectory children-first with its root
   last.  So a root closes one id space: ids are remapped group by group. *)
let adopt t (emitted : Es_obs.Span.t list) =
  let host, trace =
    match t.open_spans with
    | top :: _ -> top
    | [] -> invalid_arg "Spans.adopt: no open span to adopt under"
  in
  let flush group =
    let ids = List.map (fun (s : Es_obs.Span.t) -> (s.Es_obs.Span.id, fresh_id t)) group in
    List.iter
      (fun (s : Es_obs.Span.t) ->
        let parent =
          Option.value ~default:host
            (Option.bind s.Es_obs.Span.parent (fun p -> List.assoc_opt p ids))
        in
        t.finished <-
          {
            R.id = List.assoc s.Es_obs.Span.id ids;
            parent = Some parent;
            trace;
            name = s.Es_obs.Span.name;
            start_s = s.Es_obs.Span.start_s;
            end_s = s.Es_obs.Span.end_s;
            attrs = s.Es_obs.Span.attrs;
          }
          :: t.finished)
      group
  in
  let rest =
    List.fold_left
      (fun group (s : Es_obs.Span.t) ->
        let group = s :: group in
        if s.Es_obs.Span.parent = None then begin
          flush (List.rev group);
          []
        end
        else group)
      [] emitted
  in
  flush (List.rev rest)

let spans t = List.rev t.finished

let duration (s : R.span_record) = s.R.end_s -. s.R.start_s

type self_time = { name : string; count : int; total_s : float; self_s : float }

(* A span's self time is its duration minus the time its children cover;
   children never overlap here (one domain, nested calls). *)
let self_times spans =
  let child_s = Hashtbl.create 1024 in
  List.iter
    (fun (s : R.span_record) ->
      match s.R.parent with
      | Some p ->
          let acc = Option.value ~default:0.0 (Hashtbl.find_opt child_s p) in
          Hashtbl.replace child_s p (acc +. duration s)
      | None -> ())
    spans;
  let by_name =
    List.fold_left
      (fun m (s : R.span_record) ->
        let d = duration s in
        let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.R.id) in
        Smap.update s.R.name
          (fun prev ->
            let c, tot, slf = Option.value ~default:(0, 0.0, 0.0) prev in
            Some (c + 1, tot +. d, slf +. self))
          m)
      Smap.empty spans
  in
  Smap.bindings by_name
  |> List.map (fun (name, (count, total_s, self_s)) -> { name; count; total_s; self_s })
  |> List.sort (fun a b -> Float.compare b.self_s a.self_s)

let self_time_json r =
  Es_obs.Json.Obj
    [
      ("kind", Es_obs.Json.String "self_time");
      ("name", Es_obs.Json.String r.name);
      ("count", Es_obs.Json.Int r.count);
      ("total_s", Es_obs.Json.Float r.total_s);
      ("self_s", Es_obs.Json.Float r.self_s);
    ]

let pp_self_times oc table =
  Printf.fprintf oc "%-32s %8s %12s %12s\n" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun r ->
      Printf.fprintf oc "%-32s %8d %12.3f %12.3f\n" r.name r.count (1e3 *. r.total_s)
        (1e3 *. r.self_s))
    table

let write path t =
  let all = spans t in
  let table = self_times all in
  R.with_file path (fun oc ->
      List.iter (fun s -> R.write_jsonl_line oc (R.span_record_to_json s)) all;
      List.iter (fun r -> R.write_jsonl_line oc (self_time_json r)) table);
  table
