(* BENCHMARK.json, read from the working directory (the repository root):
   workload names, and each metric's unit, direction and (end-to-end only)
   regression bound. *)

module J = Es_obs.Json

type metric = { name : string; unit : string; better : string; bound : float option }

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let path = "BENCHMARK.json"

let read () =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error e -> Error e
  in
  let* json = J.of_string text in
  let list key j =
    match Option.bind (J.member key j) J.to_list_opt with
    | Some l -> Ok l
    | None -> Error (Printf.sprintf "%s: missing list %S" path key)
  in
  let str key j =
    match Option.bind (J.member key j) J.to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "%s: an entry lacks string %S" path key)
  in
  let metric j =
    let* name = str "name" j in
    let* unit = str "unit" j in
    let* better = str "better" j in
    Ok { name; unit; better; bound = Option.bind (J.member "bound" j) J.to_float_opt }
  in
  let all f l =
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* y = f x in
        Ok (y :: acc))
      l (Ok [])
  in
  let* workloads = list "workloads" json in
  let* workloads = all (str "name") workloads in
  let* end_to_end = list "end_to_end" json in
  let* end_to_end = all metric end_to_end in
  let* per_layer = list "per_layer" json in
  let* per_layer = all metric per_layer in
  Ok { workloads; end_to_end; per_layer }
