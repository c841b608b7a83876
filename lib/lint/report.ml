let render_findings findings = String.concat "" (List.map (fun f -> Finding.to_line f ^ "\n") findings)

let count rule fs = List.length (List.filter (fun (f : Finding.t) -> f.rule = rule) fs)

let render_summary (r : Engine.result) =
  let rows =
    List.map
      (fun rule ->
        [
          Rule.id rule;
          Rule.describe rule;
          string_of_int (count rule r.findings);
          string_of_int (count rule r.suppressed);
        ])
      Rule.all
  in
  let table =
    Es_util.Table.render
      ~align:[ Es_util.Table.Left; Es_util.Table.Left ]
      ~header:[ "rule"; "description"; "findings"; "suppressed" ]
      rows
  in
  let verdict =
    match List.length r.findings with
    | 0 -> "es_lint: clean (0 findings)"
    | 1 -> "es_lint: 1 finding"
    | n -> Printf.sprintf "es_lint: %d findings" n
  in
  table ^ verdict ^ "\n"
