let event_compare (t1, d1) (t2, d2) =
  match Float.compare t1 t2 with 0 -> Int.compare d1 d2 | c -> c

let merge traces =
  let arr = Array.concat traces in
  Array.sort event_compare arr;
  arr

let save_csv trace ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "time_s,device\n";
      Array.iter (fun (t, d) -> Printf.fprintf oc "%.9f,%d\n" t d) trace)

let load_csv ~path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      let result =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let events = ref [] in
            let line_no = ref 0 in
            let error = ref None in
            (try
               while !error = None do
                 let line = input_line ic in
                 incr line_no;
                 let line = String.trim line in
                 if line <> "" && line <> "time_s,device" then begin
                   match String.split_on_char ',' line with
                   | [ t; d ] -> (
                       match (float_of_string_opt t, int_of_string_opt d) with
                       | Some t, Some d when Float.is_finite t && t >= 0.0 && d >= 0 ->
                           events := (t, d) :: !events
                       | _ ->
                           error := Some (Printf.sprintf "line %d: bad event %S" !line_no line))
                   | _ -> error := Some (Printf.sprintf "line %d: expected time,device" !line_no)
                 end
               done
             with End_of_file -> ());
            match !error with
            | Some e -> Error e
            | None ->
                let arr = Array.of_list !events in
                Array.sort event_compare arr;
                Ok arr)
      in
      result
