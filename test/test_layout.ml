(* Machine checks on what lib/ exports:
   - reference oracles live in the test-only Es_oracle library
     (test/oracle/), so no lib/*/*.mli may declare a [val <name>_ref] or
     [val <name>_naive];
   - every [val] in a lib/ interface has a caller: its name appears as a
     whole word in some .ml under lib/ bin/ bench/ examples/ test/ other
     than its own module's;
   - every optional argument of a [val] in a lib/ interface is passed by
     some .ml under lib/ bin/ bench/ examples/, as [~name] or [?name:], or
     forwarded as [?name] from another module: an option only tests set
     is a constant. *)

let readdir d = Sys.readdir d |> Array.to_list |> List.sort compare |> List.map (Filename.concat d)

let rec files_under d =
  List.concat_map (fun f -> if Sys.is_directory f then files_under f else [ f ]) (readdir d)

let lib_mlis () =
  let mlis = List.filter (fun f -> Filename.check_suffix f ".mli") (files_under "../lib") in
  Alcotest.(check bool) "found the lib/ interfaces" true (List.length mlis > 20);
  mlis

let read path = In_channel.with_open_text path In_channel.input_all

(* The names of the [val] declarations of an interface, in order. *)
let vals path =
  read path
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | "val" :: name :: _ -> Some (List.hd (String.split_on_char ':' name))
         | _ -> None)

let test_no_oracle_exports () =
  let oracle_vals path =
    List.filter_map
      (fun name ->
        if String.ends_with ~suffix:"_ref" name || String.ends_with ~suffix:"_naive" name then
          Some (path ^ ": val " ^ name)
        else None)
      (vals path)
  in
  Alcotest.(check (list string)) "no _ref or _naive exports" []
    (List.concat_map oracle_vals (lib_mlis ()))

let is_ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* Every identifier-shaped word of a source text. *)
let words text =
  let seen = Hashtbl.create 1024 in
  let n = String.length text in
  let rec go i =
    if i < n then
      if is_ident_char text.[i] then begin
        let j = ref i in
        while !j < n && is_ident_char text.[!j] do
          incr j
        done;
        Hashtbl.replace seen (String.sub text i (!j - i)) ();
        go !j
      end
      else go (i + 1)
  in
  go 0;
  seen

let test_every_export_called () =
  let sources =
    List.concat_map files_under [ "../lib"; "../bin"; "../bench"; "../examples"; "." ]
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (fun f -> (f, words (read f)))
  in
  Alcotest.(check bool) "found the sources" true (List.length sources > 100);
  let uncalled path =
    let own = Filename.remove_extension path ^ ".ml" in
    List.filter_map
      (fun name ->
        if List.exists (fun (f, ws) -> f <> own && Hashtbl.mem ws name) sources then None
        else Some (path ^ ": val " ^ name))
      (vals path)
  in
  Alcotest.(check (list string)) "exports without a caller" []
    (List.concat_map uncalled (lib_mlis ()))

let parse_with parse path =
  let lexbuf = Lexing.from_string (read path) in
  Location.init lexbuf path;
  parse lexbuf

(* [(function, label)] for every optional argument of every [val] of an
   interface, nested module signatures included. *)
let optional_args path =
  let rec labels fn (t : Parsetree.core_type) =
    match t.ptyp_desc with
    | Ptyp_arrow (Optional l, _, rest) -> (fn, l) :: labels fn rest
    | Ptyp_arrow (_, _, rest) -> labels fn rest
    | _ -> []
  in
  let rec items sg =
    List.concat_map
      (fun (it : Parsetree.signature_item) ->
        match it.psig_desc with
        | Psig_value vd -> labels vd.pval_name.txt vd.pval_type
        | Psig_module { pmd_type = { pmty_desc = Pmty_signature sg; _ }; _ } -> items sg
        | _ -> [])
      sg
  in
  items (parse_with Parse.interface path)

(* What an implementation passes, by function: [given] holds
   [(f, label)] for every [~label] or [?label:expr] applied to an
   identifier whose last component is [f]; [forwards] holds
   [(g, f, label)] for every option forwarded as [?label] to [f] inside
   the top-level binding [g] (nested modules' bindings included). *)
let passed_args path =
  let given = Hashtbl.create 256 and forwards = ref [] and binding = ref "" in
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = fn; _ }; _ }, args) ->
        let f = Longident.last fn in
        List.iter
          (fun ((label : Asttypes.arg_label), (arg : Parsetree.expression)) ->
            match (label, arg.pexp_desc) with
            | Optional l, Pexp_ident { txt = Lident v; _ } when v = l ->
                forwards := (!binding, f, l) :: !forwards
            | (Labelled l | Optional l), _ -> Hashtbl.replace given (f, l) ()
            | Nolabel, _ -> ())
          args
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let structure_item (self : Ast_iterator.iterator) (it : Parsetree.structure_item) =
    match it.pstr_desc with
    | Pstr_value (_, vbs) ->
        let outer = !binding in
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            (binding :=
               match vb.pvb_pat.ppat_desc with
               | Ppat_var { txt; _ }
               | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
                   txt
               | _ -> "");
            self.value_binding self vb)
          vbs;
        binding := outer
    | _ -> Ast_iterator.default_iterator.structure_item self it
  in
  let it = { Ast_iterator.default_iterator with expr; structure_item } in
  it.structure it (parse_with Parse.implementation path);
  (given, !forwards)

(* Option [?label] of [f], declared by the module implemented in [own],
   is passed when some program gives it to a function named [f], or
   forwards it from another module, or forwards it from inside a
   top-level binding [g] of [own] whose own [?label] is passed: a
   same-module wrapper keeps an option alive only while the wrapper's
   option is alive.  A name collision can only count an option as
   passed, never as unpassed. *)
let test_every_option_passed () =
  let sources =
    List.concat_map files_under [ "../lib"; "../bin"; "../bench"; "../examples" ]
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (fun f -> (f, passed_args f))
  in
  Alcotest.(check bool) "found the sources" true (List.length sources > 80);
  let rec passed own visited f label =
    List.exists
      (fun (file, (given, forwards)) ->
        Hashtbl.mem given (f, label)
        || List.exists
             (fun (g, f', l) ->
               f' = f && l = label
               && (file <> own
                  || (not (Hashtbl.mem visited g))
                     && (Hashtbl.replace visited g ();
                         passed own visited g label)))
             forwards)
      sources
  in
  let unpassed path =
    let own = Filename.remove_extension path ^ ".ml" in
    List.filter_map
      (fun (fn, label) ->
        if passed own (Hashtbl.create 8) fn label then None
        else Some (Printf.sprintf "%s: %s ?%s" path fn label))
      (optional_args path)
  in
  Alcotest.(check (list string)) "optional arguments no program passes" []
    (List.concat_map unpassed (lib_mlis ()))

let () =
  Alcotest.run "es_layout"
    [
      ("oracles", [ Alcotest.test_case "none exported from lib" `Quick test_no_oracle_exports ]);
      ( "exports",
        [
          Alcotest.test_case "every val has a caller" `Quick test_every_export_called;
          Alcotest.test_case "every option is passed" `Quick test_every_option_passed;
        ] );
    ]
