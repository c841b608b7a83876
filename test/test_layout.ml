(* Reference oracles live in the test-only Es_oracle library (test/oracle/),
   so no lib/*/*.mli may declare a [val <name>_ref]. *)

let readdir d = Sys.readdir d |> Array.to_list |> List.sort compare |> List.map (Filename.concat d)

let ref_vals path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | "val" :: name :: _ ->
             let name = List.hd (String.split_on_char ':' name) in
             if String.ends_with ~suffix:"_ref" name then Some (path ^ ": val " ^ name) else None
         | _ -> None)

let test_no_ref_exports () =
  let mlis =
    readdir "../lib"
    |> List.filter Sys.is_directory
    |> List.concat_map readdir
    |> List.filter (fun f -> Filename.check_suffix f ".mli")
  in
  Alcotest.(check bool) "found the lib/ interfaces" true (List.length mlis > 20);
  Alcotest.(check (list string)) "no _ref exports" [] (List.concat_map ref_vals mlis)

let () =
  Alcotest.run "es_layout"
    [ ("oracles", [ Alcotest.test_case "none exported from lib" `Quick test_no_ref_exports ]) ]
