(* Phase 1 of the interprocedural analysis: one parse of a compilation
   unit produces (a) the per-file D1–D6 raw findings exactly as the old
   single-phase engine emitted them, and (b) an effect summary — per-
   function direct effects (clock/RNG reads, list-builder allocations,
   candidate toplevel mutations, lock acquisitions and the lock-order
   pairs observed while holding one) plus the call edges and Par/Domain
   fan-out sites phase 2 propagates over.

   Raw findings are config-independent: every rule is evaluated, inline
   suppressions (sorted/cold markers, locally-verified guards) are
   recorded as a flag, and the engine applies the enabled-rule filter and
   the allowlist afterwards.  D5 (interface presence) is the one rule
   excluded here — it depends on the filesystem, not the parse, so the
   engine evaluates it separately.

   Like the rest of the linter, this module is Hashtbl-free and appends
   in source order, so a summary is a deterministic function of the file
   text alone. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Types                                                               *)

type raw_finding = {
  rf_rule : Rule.t;
  rf_line : int;
  rf_col : int;
  rf_msg : string;
  rf_inline : bool;  (* disarmed by an inline mechanism, not the allowlist *)
}

type pending_guard = {
  pg_name : string;  (* the guarded binding *)
  pg_what : string;  (* "ref cell", "Hashtbl.t", … *)
  pg_guard : string list;  (* alias-resolved qualified path to verify *)
  pg_line : int;
  pg_col : int;
}

type site = { s_path : string list; s_line : int; s_col : int }
type pair_site = { pr_held : string list; pr_acq : string list; pr_line : int; pr_col : int }

type held_call = {
  hc_held : string list;
  hc_callee : string list;
  hc_line : int;
  hc_col : int;
}

type fn = {
  f_name : string;  (* dotted within the unit; "#par@L.C" suffix = synthetic *)
  mutable f_clock : (string * int) list;  (* direct D1 sources (what, line) *)
  mutable f_allocs : (string * int) list;  (* direct list builders (what, line) *)
  mutable f_muts : site list;  (* candidate toplevel mutations, unresolved *)
  mutable f_captured : (string * int) list;  (* closure-captured assignments *)
  mutable f_locks : site list;  (* mutex acquisitions *)
  mutable f_pairs : pair_site list;  (* direct lock-order pairs *)
  mutable f_held_calls : held_call list;  (* calls made while holding a lock *)
  mutable f_calls : site list;  (* call edges (callee path, line, col) *)
}

type par_site = {
  ps_parent : string;  (* enclosing function node *)
  ps_node : string;  (* the synthetic node holding the shipped effects *)
  ps_sink : string;  (* display name: "Par.parallel_map", "Domain.spawn" *)
  ps_line : int;
  ps_col : int;
}

type t = {
  file : string;  (* root-relative path *)
  unit_name : string;  (* lowercase module basename *)
  hot : bool;
  exempt : bool;  (* D1-exempt (clock module / bench) *)
  cold_lines : int list;
  top_values : string list;
  top_mutexes : string list;
  mutex_fields : string list;
  mutables : (string * bool) list;  (* toplevel mutable bindings, guarded? *)
  pending_guards : pending_guard list;
  fns : fn list;
  par_sites : par_site list;
  raw : raw_finding list;
}

let unit_of_path rel = String.uncapitalize_ascii (Filename.remove_extension (Filename.basename rel))

let display_unit u = String.capitalize_ascii u

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

let parse_impl ~rel text =
  let lexbuf = Lexing.from_string text in
  lexbuf.Lexing.lex_curr_p <- { pos_fname = rel; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
  Parse.implementation lexbuf

let loc_of_exn exn =
  match Location.error_of_exn exn with
  | Some (`Ok e) -> Some e.Location.main.Location.loc
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-file declaration context (types, toplevel bindings, aliases)    *)

type ctx = {
  mutable float_bearing : bool;
  mutable mutable_fields : string list;
  mutable atomic_fields : string list;
  mutable mutex_fields_c : string list;
  mutable top_values_c : string list;
  mutable top_mutexes_c : string list;
  mutable value_aliases : (string * string list) list;  (* let m = <path> *)
  mutable module_aliases : (string * string list) list;  (* module M = <path> *)
}

let rec core_type_mentions_float ty =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, args) -> (
      match Effects.flatten txt with
      | [ "float" ] | [ "Float"; "t" ] -> true
      | _ -> List.exists core_type_mentions_float args)
  | Ptyp_tuple tys -> List.exists core_type_mentions_float tys
  | Ptyp_arrow (_, a, b) -> core_type_mentions_float a || core_type_mentions_float b
  | Ptyp_alias (ty, _) | Ptyp_poly (_, ty) -> core_type_mentions_float ty
  | _ -> false

let type_is path ty =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> Effects.flatten txt = path
  | _ -> false

let scan_type_decl ctx (td : type_declaration) =
  let scan_label (ld : label_declaration) =
    if core_type_mentions_float ld.pld_type then ctx.float_bearing <- true;
    if ld.pld_mutable = Mutable then ctx.mutable_fields <- ld.pld_name.txt :: ctx.mutable_fields;
    if type_is [ "Atomic"; "t" ] ld.pld_type then
      ctx.atomic_fields <- ld.pld_name.txt :: ctx.atomic_fields;
    if type_is [ "Mutex"; "t" ] ld.pld_type then
      ctx.mutex_fields_c <- ld.pld_name.txt :: ctx.mutex_fields_c
  in
  let scan_constructor (cd : constructor_declaration) =
    match cd.pcd_args with
    | Pcstr_tuple tys -> if List.exists core_type_mentions_float tys then ctx.float_bearing <- true
    | Pcstr_record lds -> List.iter scan_label lds
  in
  (match td.ptype_manifest with
  | Some ty -> if core_type_mentions_float ty then ctx.float_bearing <- true
  | None -> ());
  match td.ptype_kind with
  | Ptype_record lds -> List.iter scan_label lds
  | Ptype_variant cds -> List.iter scan_constructor cds
  | Ptype_abstract | Ptype_open -> ()

(* Walk module-level bindings, recursing into nested module structures;
   [f] receives the binding together with the dotted module prefix. *)
let rec walk_toplevel ~prefix f str =
  List.iter
    (fun (si : structure_item) ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter (f ~prefix) vbs
      | Pstr_module mb ->
          let sub =
            match mb.pmb_name.txt with
            | Some n -> if prefix = "" then n else prefix ^ "." ^ n
            | None -> prefix
          in
          walk_toplevel_me ~prefix:sub f mb.pmb_expr
      | Pstr_recmodule mbs ->
          List.iter
            (fun mb ->
              let sub =
                match mb.pmb_name.txt with
                | Some n -> if prefix = "" then n else prefix ^ "." ^ n
                | None -> prefix
              in
              walk_toplevel_me ~prefix:sub f mb.pmb_expr)
            mbs
      | Pstr_include inc -> walk_toplevel_me ~prefix f inc.pincl_mod
      | _ -> ())
    str

and walk_toplevel_me ~prefix f me =
  match me.pmod_desc with
  | Pmod_structure str -> walk_toplevel ~prefix f str
  | Pmod_constraint (me, _) -> walk_toplevel_me ~prefix f me
  | Pmod_functor (_, me) -> walk_toplevel_me ~prefix f me
  | _ -> ()

let rec collect_module_aliases ctx str =
  List.iter
    (fun (si : structure_item) ->
      match si.pstr_desc with
      | Pstr_module mb -> (
          match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
          | Some n, Pmod_ident { txt; _ } ->
              ctx.module_aliases <- (n, Effects.flatten txt) :: ctx.module_aliases
          | Some _, Pmod_structure sub -> collect_module_aliases ctx sub
          | _ -> ())
      | _ -> ())
    str

let collect_ctx str =
  let ctx =
    {
      float_bearing = false;
      mutable_fields = [];
      atomic_fields = [];
      mutex_fields_c = [];
      top_values_c = [];
      top_mutexes_c = [];
      value_aliases = [];
      module_aliases = [];
    }
  in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          scan_type_decl ctx td;
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.structure it str;
  collect_module_aliases ctx str;
  walk_toplevel ~prefix:""
    (fun ~prefix:_ vb ->
      match (Effects.peel_pat vb.pvb_pat).ppat_desc with
      | Ppat_var { txt = name; _ } -> (
          ctx.top_values_c <- name :: ctx.top_values_c;
          match (Effects.peel_expr vb.pvb_expr).pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when Effects.flatten txt = [ "Mutex"; "create" ] ->
              ctx.top_mutexes_c <- name :: ctx.top_mutexes_c
          | Pexp_ident { txt; _ } -> (
              match Effects.flatten txt with
              | [] -> ()
              | p -> ctx.value_aliases <- (name, p) :: ctx.value_aliases)
          | _ -> ())
      | _ -> ())
    str;
  ctx

(* ------------------------------------------------------------------ *)
(* D4: module-level mutable state and guard resolution                 *)

let mutable_init ctx e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Effects.flatten txt with
      | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref cell"
      | [ "Hashtbl"; "create" ] -> Some "Hashtbl.t"
      | [ "Buffer"; "create" ] -> Some "Buffer.t"
      | [ "Queue"; "create" ] -> Some "Queue.t"
      | [ "Stack"; "create" ] -> Some "Stack.t"
      | _ -> None)
  | Pexp_record (fields, _) ->
      let counts n = List.mem n ctx.mutable_fields && not (List.mem n ctx.atomic_fields) in
      if
        List.exists
          (fun (({ txt; _ } : Longident.t Location.loc), _) ->
            match txt with
            | Longident.Lident n -> counts n
            | _ -> counts (Longident.last txt))
          fields
      then Some "record with mutable fields"
      else None
  | _ -> None

let guarded_attr vb =
  List.find_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "es_lint.guarded" then None
      else
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ->
            Some (`Named s)
        | _ -> Some `Malformed)
    vb.pvb_attributes

let is_module_seg s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

(* Resolve a guard name against this file's declarations.  Aliases are
   followed one hop: a toplevel [let m = other] or [module M = Other]
   substitutes before classification.  Qualified paths (any module
   segment) cannot be checked per-file and become pending guards, verified
   against the named unit's summary in phase 2. *)
type guard_status = Verified | Unverified | Deferred of string list

let resolve_guard ctx name =
  let segs = String.split_on_char '.' name in
  let segs =
    match segs with
    | first :: rest when not (is_module_seg first) -> (
        match List.assoc_opt first ctx.value_aliases with
        | Some target -> target @ rest
        | None -> segs)
    | first :: rest -> (
        match List.assoc_opt first ctx.module_aliases with
        | Some target -> target @ rest
        | None -> segs)
    | [] -> segs
  in
  if List.exists is_module_seg segs then Deferred segs
  else
    match segs with
    | [ m ] -> if List.mem m ctx.top_mutexes_c then Verified else Unverified
    | [ v; f ] ->
        if List.mem v ctx.top_values_c && List.mem f ctx.mutex_fields_c then Verified
        else Unverified
    | _ -> Unverified

(* ------------------------------------------------------------------ *)
(* The extraction walk                                                 *)

let new_fn name =
  {
    f_name = name;
    f_clock = [];
    f_allocs = [];
    f_muts = [];
    f_captured = [];
    f_locks = [];
    f_pairs = [];
    f_held_calls = [];
    f_calls = [];
  }

(* Names bound anywhere inside an expression (fun parameters and let
   bindings alike): the complement is what a closure captures. *)
let bound_names e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.expr it e;
  !acc

type walk_state = {
  text : string;
  exempt : bool;
  hot : bool;
  cold_lines : int list;
  sorted_lines : int list;
  ctx : ctx;
  mutable node : fn;  (* effects accumulate here *)
  mutable bound : string list option;  (* Some names inside a par closure *)
  mutable held : string list list;  (* raw lock paths currently held *)
  mutable done_fns : fn list;  (* completed synthetic nodes, reversed *)
  mutable sites : par_site list;  (* reversed *)
  mutable raw_rev : raw_finding list;
}

let emit st ?(inline = false) ~rule ~line ~col msg =
  st.raw_rev <- { rf_rule = rule; rf_line = line; rf_col = col; rf_msg = msg; rf_inline = inline } :: st.raw_rev

let record_mut st e loc =
  match Effects.field_chain e with
  | None -> ()
  | Some (base, _fields) ->
      let line, col = Effects.pos_of loc in
      st.node.f_muts <- { s_path = base; s_line = line; s_col = col } :: st.node.f_muts;
      (match (st.bound, base) with
      | Some bound, [ name ] when not (is_module_seg name) ->
          if not (List.mem name bound) then
            st.node.f_captured <- (name, line) :: st.node.f_captured
      | _ -> ())

let lock_path e =
  match Effects.field_chain e with Some (base, fields) -> Some (base @ fields) | None -> None

let positional args = List.filter_map (fun (lbl, a) -> match lbl with Asttypes.Nolabel -> Some a | _ -> None) args

(* Emission shared by the D1/D2/D3/D6 per-file rules: called on every
   identifier occurrence, mirroring the single-phase engine. *)
let on_ident st loc path =
  let line, col = Effects.pos_of loc in
  (match Effects.d1_violation path with
  | Some what when not st.exempt ->
      st.node.f_clock <- (what, line) :: st.node.f_clock;
      emit st ~rule:Rule.D1 ~line ~col
        (Printf.sprintf
           "nondeterministic call %s; route time through Es_obs.Obs.wall_clock and randomness \
            through a seeded Es_util.Prng"
           what)
  | _ -> ());
  (match Effects.d2_violation path with
  | Some what ->
      emit st
        ~inline:(Source.suppressed_at st.sorted_lines ~line)
        ~rule:Rule.D2 ~line ~col
        (Printf.sprintf
           "unordered %s; sort before the result can reach output or fingerprints, then mark \
            the call site (* es_lint: sorted *)"
           what)
  | _ -> ());
  (match Effects.d3_violation path with
  | Some what when st.ctx.float_bearing ->
      emit st ~rule:Rule.D3 ~line ~col
        (Printf.sprintf
           "polymorphic %s in a float-bearing module; use Float.compare or an explicit \
            comparator"
           what)
  | _ -> ());
  match Effects.d6_violation path with
  | Some what ->
      (* The allocation effect skips cold-marked sites: the marker is the
         reviewed claim that this allocation is a deliberate cold path, so
         it neither fires D6 here nor propagates to D10 call sites. *)
      if not (Source.suppressed_at st.cold_lines ~line) then
        st.node.f_allocs <- (what, line) :: st.node.f_allocs;
      if st.hot then
        emit st
          ~inline:(Source.suppressed_at st.cold_lines ~line)
          ~rule:Rule.D6 ~line ~col
          (Printf.sprintf
             "allocating %s in a hot-tagged file; use a preallocated-array loop or mark the \
              call site (* es_lint: cold *)"
             what)
  | _ -> ()

let rec walk_expr st it (e : expression) =
  (* A par-sink application takes over traversal of its own arguments (the
     closure walks under its synthetic node, everything else under the
     parent), so the default recursion must not re-visit them. *)
  let handled = ref false in
  (match e.pexp_desc with
  | Pexp_ident { txt; loc } -> on_ident st loc (Effects.flatten txt)
  | Pexp_setfield (lhs, _, _) -> record_mut st lhs e.pexp_loc
  | Pexp_apply (head, args) -> (
      let line, col = Effects.pos_of e.pexp_loc in
      (* One D6 finding per application carrying closure-literal arguments,
         anchored at the application itself — cold markers sit above the
         call site, which may start lines before the closure token. *)
      if st.hot && List.exists (fun (_, a) -> Effects.is_closure_literal st.text a) args then
        emit st
          ~inline:(Source.suppressed_at st.cold_lines ~line)
          ~rule:Rule.D6 ~line ~col
          "closure literal in argument position in a hot-tagged file; hoist it to a top-level \
           function or mark the call site (* es_lint: cold *)";
      match (Effects.peel_expr head).pexp_desc with
      | Pexp_ident { txt; _ } -> (
          let path = Effects.flatten txt in
          let pos = positional args in
          if Effects.assignment_op path then (
            match pos with lhs :: _ -> record_mut st lhs e.pexp_loc | [] -> ())
          else if Effects.incr_decr path then (
            match pos with arg :: _ -> record_mut st arg e.pexp_loc | [] -> ());
          (match Effects.container_mutator path with
          | Some (_, idxs) ->
              List.iteri (fun i a -> if List.mem i idxs then record_mut st a e.pexp_loc) pos
          | None -> ());
          (match Effects.mutex_op path with
          | Some Effects.Lock -> (
              match pos with
              | arg :: _ -> (
                  match lock_path arg with
                  | Some lk ->
                      st.node.f_locks <-
                        { s_path = lk; s_line = line; s_col = col } :: st.node.f_locks;
                      List.iter
                        (fun held ->
                          st.node.f_pairs <-
                            { pr_held = held; pr_acq = lk; pr_line = line; pr_col = col }
                            :: st.node.f_pairs)
                        st.held;
                      st.held <- lk :: st.held
                  | None -> ())
              | [] -> ())
          | Some Effects.Unlock -> (
              match pos with
              | arg :: _ -> (
                  match lock_path arg with
                  | Some lk ->
                      let rec drop = function
                        | [] -> []
                        | h :: t -> if h = lk then t else h :: drop t
                      in
                      st.held <- drop st.held
                  | None -> ())
              | [] -> ())
          | None -> ());
          if Effects.callable_head path && Effects.mutex_op path = None then begin
            st.node.f_calls <- { s_path = path; s_line = line; s_col = col } :: st.node.f_calls;
            List.iter
              (fun held ->
                st.node.f_held_calls <-
                  { hc_held = held; hc_callee = path; hc_line = line; hc_col = col }
                  :: st.node.f_held_calls)
              st.held
          end;
          match Effects.par_sink path with
          | Some sink ->
              handled := true;
              let parent = st.node in
              let parent_bound = st.bound in
              let add_site node_name =
                st.sites <-
                  {
                    ps_parent = parent.f_name;
                    ps_node = node_name;
                    ps_sink = sink;
                    ps_line = line;
                    ps_col = col;
                  }
                  :: st.sites
              in
              let idx = ref (-1) in
              List.iter
                (fun (lbl, a) ->
                  let positional = lbl = Asttypes.Nolabel in
                  if positional then incr idx;
                  if positional && Effects.is_closure_literal st.text a then begin
                    let node_name = Printf.sprintf "%s#par@%d.%d.%d" parent.f_name line col !idx in
                    let node = new_fn node_name in
                    add_site node_name;
                    st.node <- node;
                    st.bound <- Some (bound_names a);
                    it.Ast_iterator.expr it a;
                    st.done_fns <- node :: st.done_fns;
                    st.node <- parent;
                    st.bound <- parent_bound
                  end
                  else
                    match (Effects.peel_expr a).pexp_desc with
                    | Pexp_ident { txt; _ }
                      when positional && Effects.callable_head (Effects.flatten txt) ->
                        (* A function reference shipped by name: give it a
                           synthetic node holding one call edge, so its
                           transitive effects cross the fan-out like a
                           closure's would. *)
                        let fpath = Effects.flatten txt in
                        let node_name =
                          Printf.sprintf "%s#par@%d.%d.%d" parent.f_name line col !idx
                        in
                        let node = new_fn node_name in
                        node.f_calls <- [ { s_path = fpath; s_line = line; s_col = col } ];
                        st.done_fns <- node :: st.done_fns;
                        add_site node_name
                    | _ -> it.Ast_iterator.expr it a)
                args
          | None -> ())
      | _ -> ())
  | _ -> ());
  if not !handled then Ast_iterator.default_iterator.expr it e

and iterator_of st =
  {
    Ast_iterator.default_iterator with
    expr = (fun it e -> walk_expr st it e);
  }

(* ------------------------------------------------------------------ *)
(* Putting a file together                                             *)

let analyze ~rel ~exempt text =
  let unit_name = unit_of_path rel in
  let hot = Source.is_hot text in
  let cold_lines = Source.cold_lines text in
  let empty =
    {
      file = rel;
      unit_name;
      hot;
      exempt;
      cold_lines;
      top_values = [];
      top_mutexes = [];
      mutex_fields = [];
      mutables = [];
      pending_guards = [];
      fns = [];
      par_sites = [];
      raw = [];
    }
  in
  match parse_impl ~rel text with
  | exception exn ->
      let line, col = match loc_of_exn exn with Some loc -> Effects.pos_of loc | None -> (1, 0) in
      {
        empty with
        raw =
          [ { rf_rule = Rule.Parse_error; rf_line = line; rf_col = col; rf_msg = "syntax error"; rf_inline = false } ];
      }
  | str ->
      let ctx = collect_ctx str in
      let st =
        {
          text;
          exempt;
          hot;
          cold_lines;
          sorted_lines = Source.suppression_lines text;
          ctx;
          node = new_fn "";
          bound = None;
          held = [];
          done_fns = [];
          sites = [];
          raw_rev = [];
        }
      in
      let it = iterator_of st in
      let fns = ref [] in
      let mutables = ref [] in
      let pending = ref [] in
      (* Walk every toplevel binding as one function node; [let () = …] and
         other nameless bindings become per-line [_init@] nodes whose effects
         run at module initialization. *)
      let visit_binding ~prefix vb =
        let line, col = Effects.pos_of vb.pvb_pat.ppat_loc in
        let base_name =
          match (Effects.peel_pat vb.pvb_pat).ppat_desc with
          | Ppat_var { txt; _ } -> txt
          | _ -> Printf.sprintf "_init@%d" line
        in
        let name = if prefix = "" then base_name else prefix ^ "." ^ base_name in
        let node = new_fn name in
        st.node <- node;
        st.bound <- None;
        st.held <- [];
        (* Eta aliases ([let wrap = base]) carry the target's effects: record
           the bare identifier as a call edge. *)
        (match (Effects.peel_expr vb.pvb_expr).pexp_desc with
        | Pexp_ident { txt; _ } when Effects.callable_head (Effects.flatten txt) ->
            node.f_calls <- [ { s_path = Effects.flatten txt; s_line = line; s_col = col } ]
        | _ -> ());
        it.Ast_iterator.expr it vb.pvb_expr;
        List.iter (fun a -> it.Ast_iterator.attribute it a) vb.pvb_attributes;
        fns := node :: !fns;
        (* D4 over the same binding. *)
        match (Effects.peel_pat vb.pvb_pat).ppat_desc with
        | Ppat_var { txt = bname; _ } -> (
            match mutable_init ctx (Effects.peel_expr vb.pvb_expr) with
            | None -> ()
            | Some what -> (
                match guarded_attr vb with
                | Some (`Named guard) -> (
                    match resolve_guard ctx guard with
                    | Verified ->
                        mutables := (bname, true) :: !mutables;
                        emit st ~inline:true ~rule:Rule.D4 ~line ~col
                          (Printf.sprintf "%s %S guarded by %s" what bname guard)
                    | Deferred path ->
                        (* Cross-unit guard: verified against the named unit's
                           summary in phase 2; the binding counts as guarded
                           for D7 either way — a bad name is its own D4
                           finding. *)
                        mutables := (bname, true) :: !mutables;
                        pending :=
                          {
                            pg_name = bname;
                            pg_what = what;
                            pg_guard = path;
                            pg_line = line;
                            pg_col = col;
                          }
                          :: !pending
                    | Unverified ->
                        mutables := (bname, false) :: !mutables;
                        emit st ~rule:Rule.D4 ~line ~col
                          (Printf.sprintf
                             "[@@es_lint.guarded %S] on %S names no Mutex.t in this file" guard
                             bname))
                | Some `Malformed ->
                    mutables := (bname, false) :: !mutables;
                    emit st ~rule:Rule.D4 ~line ~col
                      (Printf.sprintf
                         "[@@es_lint.guarded] on %S: payload must be a string literal naming \
                          a mutex"
                         bname)
                | None ->
                    mutables := (bname, false) :: !mutables;
                    emit st ~rule:Rule.D4 ~line ~col
                      (Printf.sprintf
                         "module-level mutable state (%s) %S; guard it with a mutex and \
                          annotate [@@es_lint.guarded \"<mutex>\"]"
                         what bname)))
        | _ -> ()
      in
      walk_toplevel ~prefix:"" visit_binding str;
      (* Toplevel expressions outside value bindings ([Pstr_eval]) still need
         the per-file rules; give them init nodes too. *)
      List.iter
        (fun (si : structure_item) ->
          match si.pstr_desc with
          | Pstr_eval (e, _) ->
              let line, _ = Effects.pos_of si.pstr_loc in
              let node = new_fn (Printf.sprintf "_init@%d" line) in
              st.node <- node;
              st.bound <- None;
              st.held <- [];
              it.Ast_iterator.expr it e;
              fns := node :: !fns
          | _ -> ())
        str;
      {
        file = rel;
        unit_name;
        hot;
        exempt;
        cold_lines;
        top_values = List.rev ctx.top_values_c;
        top_mutexes = List.rev ctx.top_mutexes_c;
        mutex_fields = List.rev ctx.mutex_fields_c;
        mutables = List.rev !mutables;
        pending_guards = List.rev !pending;
        fns = List.rev_append st.done_fns (List.rev !fns) |> List.rev;
        par_sites = List.rev st.sites;
        raw = List.rev st.raw_rev;
      }

let of_file ~rel ~exempt ~root = analyze ~rel ~exempt (Source.read_file (Filename.concat root rel))
