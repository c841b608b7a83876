type t = { rule : Rule.t; file : string; line : int; col : int; msg : string }

let make ~rule ~file ~line ~col msg = { rule; file; line; col; msg }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = Rule.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.msg b.msg

let to_line f = Printf.sprintf "%s:%d:%d [%s] %s" f.file f.line f.col (Rule.id f.rule) f.msg
