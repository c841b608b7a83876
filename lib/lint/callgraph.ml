(* Phase 2 of the interprocedural analysis: resolve the per-unit summaries
   ({!Summary}) into a module-qualified whole-program call graph, fixpoint
   the effect lattice over its strongly connected components, and fire the
   interprocedural rules:

   - D7: a closure or function reference shipped to a [Par]/[Domain]
     fan-out sink whose transitive effects mutate unguarded toplevel state
     (or assign a captured local);
   - D8: a call site whose callee transitively reads a D1 nondeterminism
     source;
   - D9: a cycle in the global lock-acquisition-order graph over named
     mutexes;
   - D10: a call site in a hot-tagged file whose callee transitively
     allocates.

   Cross-unit [@@es_lint.guarded "Module.path"] guards (deferred by phase
   1 as pending guards) are verified here too.

   Two propagation passes share one Tarjan pass each: clock/alloc/race
   effects flow over every edge, while lock sets flow over synchronous
   call edges only — the parent → par-site edges are asynchronous, so a
   lock held around [Domain.spawn] is NOT held inside the spawned closure
   and must not manufacture self-deadlock cycles.

   Like phase 1 this module is Hashtbl-free: nodes live in sorted
   [Map.Make(String)]s, every adjacency list is sorted, and witness sets
   are canonically deduplicated, so the computed effects — and therefore
   the findings — are a pure function of the summary set. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

type witness = { w_what : string; w_file : string; w_line : int }

type eff = { clock : witness list; alloc : witness list; races : witness list }

let empty_eff = { clock = []; alloc = []; races = [] }

(* Canonical witness union: sorted, one witness per distinct [w_what]
   (the smallest (file, line) wins), so joins are order-independent. *)
let merge_w a b =
  let rec dedup = function
    | x :: (y :: _ as rest) when x.w_what = y.w_what -> dedup (x :: List.tl rest)
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  dedup (List.sort Stdlib.compare (a @ b))

let join_eff a b =
  { clock = merge_w a.clock b.clock; alloc = merge_w a.alloc b.alloc; races = merge_w a.races b.races }

type node = {
  nd_file : string;
  nd_unit : string;
  nd_fn : string;
  nd_sync : string list;  (* resolved callee node ids, sorted *)
  nd_async : string list;  (* par-site nodes reachable from this fn, sorted *)
  nd_direct : eff;
  nd_direct_locks : SSet.t;
}

type lock_edge = { le_held : string; le_acq : string; le_file : string; le_line : int; le_col : int }

type t = {
  sums : Summary.t list;  (* sorted by file *)
  units : Summary.t list SMap.t;
  nodes : node SMap.t;
  eff_all : eff SMap.t;  (* transitive clock/alloc/races (all edges) *)
  eff_locks : SSet.t SMap.t;  (* transitive lock sets (sync edges only) *)
  lock_edges : lock_edge list;  (* deduped, sorted *)
  lock_adj : string list SMap.t;
  lock_cyclic : SSet.t;  (* lock ids inside a cyclic SCC *)
}

let node_id file fn = file ^ "#" ^ fn

let is_module_seg s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

(* ------------------------------------------------------------------ *)
(* Tarjan SCC: returns components in reverse topological order of the
   condensation (every component is emitted after all components it can
   reach), which is exactly the evaluation order the fixpoint wants. *)

let sccs (adj_of : string -> string list) (roots : string list) =
  let index = ref SMap.empty in
  let low = ref SMap.empty in
  let on_stack = ref SSet.empty in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strong v =
    index := SMap.add v !counter !index;
    low := SMap.add v !counter !low;
    incr counter;
    stack := v :: !stack;
    on_stack := SSet.add v !on_stack;
    List.iter
      (fun w ->
        if not (SMap.mem w !index) then begin
          strong w;
          low := SMap.add v (min (SMap.find v !low) (SMap.find w !low)) !low
        end
        else if SSet.mem w !on_stack then
          low := SMap.add v (min (SMap.find v !low) (SMap.find w !index)) !low)
      (adj_of v);
    if SMap.find v !low = SMap.find v !index then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack := SSet.remove w !on_stack;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (SMap.mem v !index) then strong v) roots;
  List.rev !out

(* Condensation fixpoint: each SCC's effect is the join of its members'
   direct effects and the (already computed) effects of every successor
   outside the component. *)
let propagate ~adj_of ~direct_of ~join ~empty order =
  List.fold_left
    (fun acc scc ->
      let inside = List.fold_left (fun s v -> SSet.add v s) SSet.empty scc in
      let combined =
        List.fold_left
          (fun e v ->
            let e = join e (direct_of v) in
            List.fold_left
              (fun e w ->
                if SSet.mem w inside then e
                else match SMap.find_opt w acc with Some ew -> join e ew | None -> e)
              e (adj_of v))
          empty scc
      in
      List.fold_left (fun acc v -> SMap.add v combined acc) acc scc)
    SMap.empty order

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)

let defines (s : Summary.t) fname = List.exists (fun (f : Summary.fn) -> f.f_name = fname) s.fns

let resolve_in_unit units uname fname =
  match SMap.find_opt uname units with
  | None -> None
  | Some sums ->
      List.find_map
        (fun (s : Summary.t) -> if defines s fname then Some (node_id s.file fname) else None)
        sums

(* Resolve a call path seen in [s].  Unqualified names resolve within the
   same file; qualified paths scan left to right for the first module
   segment that names a linted unit defining the remaining path (so
   [Es_util.Par.parallel_map] resolves through [Par] even though
   [Es_util] is a library wrapper, not a unit).  A qualified path that
   resolves nowhere falls back to a nested-module binding of the same
   file ([M.f] is stored under that dotted name). *)
let resolve_call units (s : Summary.t) path =
  match path with
  | [] -> None
  | first :: _ when not (is_module_seg first) ->
      let fname = String.concat "." path in
      if defines s fname then Some (node_id s.file fname) else None
  | _ ->
      let rec scan = function
        | seg :: (_ :: _ as rest) when is_module_seg seg -> (
            match resolve_in_unit units (String.uncapitalize_ascii seg) (String.concat "." rest) with
            | Some id -> Some id
            | None -> scan rest)
        | _ -> None
      in
      (match scan path with
      | Some id -> Some id
      | None ->
          let fname = String.concat "." path in
          if defines s fname then Some (node_id s.file fname) else None)

(* Resolve a mutation target (the base identifier of an assignment /
   container-mutator argument) to a module-level mutable binding. *)
type mut_res = Unguarded of string | Guarded | Unresolved

let resolve_mut units (s : Summary.t) base =
  let lookup (s2 : Summary.t) n =
    match List.assoc_opt n s2.mutables with
    | Some true -> Some Guarded
    | Some false -> Some (Unguarded (Summary.display_unit s2.unit_name ^ "." ^ n))
    | None -> None
  in
  match base with
  | [ n ] when not (is_module_seg n) -> ( match lookup s n with Some r -> r | None -> Unresolved)
  | _ ->
      let rec scan = function
        | seg :: (_ :: _ as rest) when is_module_seg seg -> (
            let u = String.uncapitalize_ascii seg in
            match (SMap.find_opt u units, rest) with
            | Some sums, [ n ] -> (
                match List.find_map (fun s2 -> lookup s2 n) sums with
                | Some r -> Some r
                | None -> scan rest)
            | _ -> scan rest)
        | _ -> None
      in
      (match scan base with Some r -> r | None -> Unresolved)

(* Canonicalize a raw lock path ([m], [pool.m], [Par.pool_mutex],
   [Par.pool.m]) to a unit-qualified lock identity, or [None] when the
   lock is a parameter / local and has no global identity. *)
let resolve_lock units (s : Summary.t) path =
  let local (s2 : Summary.t) = function
    | [ n ] when List.mem n s2.top_mutexes ->
        Some (Summary.display_unit s2.unit_name ^ "." ^ n)
    | [ v; f ] when List.mem v s2.top_values && List.mem f s2.mutex_fields ->
        Some (Summary.display_unit s2.unit_name ^ "." ^ v ^ "." ^ f)
    | _ -> None
  in
  match path with
  | seg :: _ when not (is_module_seg seg) -> local s path
  | _ ->
      let rec scan = function
        | seg :: (_ :: _ as rest) when is_module_seg seg -> (
            let u = String.uncapitalize_ascii seg in
            match SMap.find_opt u units with
            | Some sums -> (
                match List.find_map (fun s2 -> local s2 rest) sums with
                | Some id -> Some id
                | None -> scan rest)
            | None -> scan rest)
        | _ -> None
      in
      scan path

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)

let direct_eff units (s : Summary.t) (f : Summary.fn) =
  let clock = List.map (fun (what, line) -> { w_what = what; w_file = s.file; w_line = line }) f.f_clock in
  let alloc = List.map (fun (what, line) -> { w_what = what; w_file = s.file; w_line = line }) f.f_allocs in
  let muts =
    List.filter_map
      (fun (m : Summary.site) ->
        match resolve_mut units s m.s_path with
        | Unguarded target -> Some { w_what = target; w_file = s.file; w_line = m.s_line }
        | Guarded | Unresolved -> None)
      f.f_muts
  in
  let captured =
    List.filter_map
      (fun (n, line) ->
        if List.mem n s.top_values then None
        else Some { w_what = Printf.sprintf "captured local %S" n; w_file = s.file; w_line = line })
      f.f_captured
  in
  {
    clock = merge_w clock [];
    alloc = merge_w alloc [];
    races = merge_w muts captured;
  }

let build (sums : Summary.t list) =
  let sums = List.sort (fun (a : Summary.t) b -> Stdlib.compare a.file b.file) sums in
  let units =
    List.fold_left
      (fun m (s : Summary.t) ->
        SMap.update s.unit_name (function Some l -> Some (l @ [ s ]) | None -> Some [ s ]) m)
      SMap.empty sums
  in
  let nodes =
    List.fold_left
      (fun m (s : Summary.t) ->
        List.fold_left
          (fun m (f : Summary.fn) ->
            let sync =
              List.filter_map (fun (c : Summary.site) -> resolve_call units s c.s_path) f.f_calls
              |> List.sort_uniq Stdlib.compare
            in
            let async =
              List.filter_map
                (fun (p : Summary.par_site) ->
                  if p.ps_parent = f.f_name then Some (node_id s.file p.ps_node) else None)
                s.par_sites
              |> List.sort_uniq Stdlib.compare
            in
            let locks =
              List.fold_left
                (fun acc (l : Summary.site) ->
                  match resolve_lock units s l.s_path with
                  | Some id -> SSet.add id acc
                  | None -> acc)
                SSet.empty f.f_locks
            in
            SMap.add (node_id s.file f.f_name)
              {
                nd_file = s.file;
                nd_unit = s.unit_name;
                nd_fn = f.f_name;
                nd_sync = sync;
                nd_async = async;
                nd_direct = direct_eff units s f;
                nd_direct_locks = locks;
              }
              m)
          m s.fns)
      SMap.empty sums
  in
  let ids = SMap.fold (fun id _ acc -> id :: acc) nodes [] |> List.rev in
  let sync_of id = match SMap.find_opt id nodes with Some n -> n.nd_sync | None -> [] in
  let all_of id =
    match SMap.find_opt id nodes with Some n -> n.nd_sync @ n.nd_async | None -> []
  in
  let eff_all =
    propagate ~adj_of:all_of
      ~direct_of:(fun id -> (SMap.find id nodes).nd_direct)
      ~join:join_eff ~empty:empty_eff (sccs all_of ids)
  in
  let eff_locks =
    propagate ~adj_of:sync_of
      ~direct_of:(fun id -> (SMap.find id nodes).nd_direct_locks)
      ~join:SSet.union ~empty:SSet.empty (sccs sync_of ids)
  in
  (* The lock-order graph: direct held→acquired pairs, plus the transitive
     lock set of every callee invoked while holding a lock. *)
  let lock_edges =
    List.concat_map
      (fun (s : Summary.t) ->
        List.concat_map
          (fun (f : Summary.fn) ->
            let direct =
              List.filter_map
                (fun (p : Summary.pair_site) ->
                  match (resolve_lock units s p.pr_held, resolve_lock units s p.pr_acq) with
                  | Some h, Some a ->
                      Some { le_held = h; le_acq = a; le_file = s.file; le_line = p.pr_line; le_col = p.pr_col }
                  | _ -> None)
                f.f_pairs
            in
            let via_calls =
              List.concat_map
                (fun (h : Summary.held_call) ->
                  match (resolve_lock units s h.hc_held, resolve_call units s h.hc_callee) with
                  | Some held, Some callee ->
                      let callee_locks =
                        match SMap.find_opt callee eff_locks with
                        | Some l -> SSet.elements l
                        | None -> []
                      in
                      List.map
                        (fun a ->
                          { le_held = held; le_acq = a; le_file = s.file; le_line = h.hc_line; le_col = h.hc_col })
                        callee_locks
                  | _ -> [])
                f.f_held_calls
            in
            direct @ via_calls)
          s.fns)
      sums
  in
  (* One witness per distinct (held, acquired) edge: the smallest
     (file, line, col) after sorting. *)
  let lock_edges =
    let sorted =
      List.sort
        (fun a b ->
          Stdlib.compare
            (a.le_held, a.le_acq, a.le_file, a.le_line, a.le_col)
            (b.le_held, b.le_acq, b.le_file, b.le_line, b.le_col))
        lock_edges
    in
    let rec dedup = function
      | x :: (y :: _ as rest) when x.le_held = y.le_held && x.le_acq = y.le_acq ->
          dedup (x :: List.tl rest)
      | x :: rest -> x :: dedup rest
      | [] -> []
    in
    dedup sorted
  in
  let lock_adj =
    List.fold_left
      (fun m e ->
        SMap.update e.le_held
          (function Some l -> Some (List.sort_uniq Stdlib.compare (e.le_acq :: l)) | None -> Some [ e.le_acq ])
          m)
      SMap.empty lock_edges
  in
  let lock_ids =
    List.concat_map (fun e -> [ e.le_held; e.le_acq ]) lock_edges |> List.sort_uniq Stdlib.compare
  in
  let lock_adj_of id = match SMap.find_opt id lock_adj with Some l -> l | None -> [] in
  let lock_cyclic =
    List.fold_left
      (fun acc scc ->
        match scc with
        | [ v ] ->
            if List.mem v (lock_adj_of v) then SSet.add v acc else acc
        | _ :: _ :: _ -> List.fold_left (fun acc v -> SSet.add v acc) acc scc
        | [] -> acc)
      SSet.empty
      (sccs lock_adj_of lock_ids)
  in
  { sums; units; nodes; eff_all; eff_locks; lock_edges; lock_adj; lock_cyclic }

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)

let eff_of t id = match SMap.find_opt id t.eff_all with Some e -> e | None -> empty_eff

let callee_display t id =
  match SMap.find_opt id t.nodes with
  | Some n -> Summary.display_unit n.nd_unit ^ "." ^ n.nd_fn
  | None -> id

(* Edges participating in a cycle: both endpoints inside the same cyclic
   SCC (self-edges included by construction). *)
let cyclic_edge t e =
  (e.le_held = e.le_acq && SSet.mem e.le_held t.lock_cyclic)
  || (e.le_held <> e.le_acq && SSet.mem e.le_held t.lock_cyclic && SSet.mem e.le_acq t.lock_cyclic
      &&
      (* same component: [a] must reach [held] back *)
      let rec reach visited frontier =
        match frontier with
        | [] -> false
        | v :: rest ->
            if v = e.le_held then true
            else
              let succs =
                (match SMap.find_opt v t.lock_adj with Some l -> l | None -> [])
                |> List.filter (fun w -> not (SSet.mem w visited))
              in
              reach (List.fold_left (fun s w -> SSet.add w s) visited succs) (rest @ succs)
      in
      reach (SSet.singleton e.le_acq) [ e.le_acq ])

let findings t =
  let acc = ref [] in
  let push ?(inline = false) ~rule ~file ~line ~col msg =
    acc := (Finding.make ~rule ~file ~line ~col msg, inline) :: !acc
  in
  List.iter
    (fun (s : Summary.t) ->
      (* D7: effects shipped across a fan-out sink. *)
      List.iter
        (fun (p : Summary.par_site) ->
          let e = eff_of t (node_id s.file p.ps_node) in
          List.iter
            (fun w ->
              let msg =
                if String.length w.w_what >= 14 && String.sub w.w_what 0 14 = "captured local" then
                  Printf.sprintf
                    "work shipped to %s assigns %s; aggregate per-domain results and combine \
                     after the join"
                    p.ps_sink w.w_what
                else
                  Printf.sprintf
                    "work shipped to %s mutates unguarded toplevel state %s (via %s:%d); guard \
                     the target with a mutex and [@@es_lint.guarded], or keep domain-shipped \
                     work pure"
                    p.ps_sink w.w_what w.w_file w.w_line
              in
              push ~rule:Rule.D7 ~file:s.file ~line:p.ps_line ~col:p.ps_col msg)
            e.races)
        s.par_sites;
      (* D8 / D10: per call site, against the callee's transitive effects. *)
      List.iter
        (fun (f : Summary.fn) ->
          List.iter
            (fun (c : Summary.site) ->
              match resolve_call t.units s c.s_path with
              | None -> ()
              | Some callee ->
                  let e = eff_of t callee in
                  (if (not s.exempt) && e.clock <> [] then
                     match e.clock with
                     | w :: _ ->
                         push ~rule:Rule.D8 ~file:s.file ~line:c.s_line ~col:c.s_col
                           (Printf.sprintf
                              "call into %s transitively reads %s (via %s:%d); route time \
                               through Es_obs.Obs.wall_clock and randomness through a seeded \
                               Es_util.Prng"
                              (callee_display t callee) w.w_what w.w_file w.w_line)
                     | [] -> ());
                  if s.hot && e.alloc <> [] then
                    match e.alloc with
                    | w :: _ ->
                        push
                          ~inline:(Source.suppressed_at s.cold_lines ~line:c.s_line)
                          ~rule:Rule.D10 ~file:s.file ~line:c.s_line ~col:c.s_col
                          (Printf.sprintf
                             "call into %s, which transitively allocates (%s at %s:%d); inline \
                              an allocation-free path or mark the call site (* es_lint: cold *)"
                             (callee_display t callee) w.w_what w.w_file w.w_line)
                    | [] -> ())
            f.f_calls)
        s.fns;
      (* Cross-unit [@@es_lint.guarded "Module.path"] verification. *)
      List.iter
        (fun (p : Summary.pending_guard) ->
          let guard = String.concat "." p.pg_guard in
          let verified =
            let check (s2 : Summary.t) rest =
              match rest with
              | [ m ] -> List.mem m s2.top_mutexes
              | [ v; f ] -> List.mem v s2.top_values && List.mem f s2.mutex_fields
              | _ -> false
            in
            let rec scan = function
              | seg :: (_ :: _ as rest) when is_module_seg seg -> (
                  match SMap.find_opt (String.uncapitalize_ascii seg) t.units with
                  | Some sums when List.exists (fun s2 -> check s2 rest) sums -> true
                  | _ -> scan rest)
              | _ -> false
            in
            scan p.pg_guard
          in
          if verified then
            push ~inline:true ~rule:Rule.D4 ~file:s.file ~line:p.pg_line ~col:p.pg_col
              (Printf.sprintf "%s %S guarded by %s" p.pg_what p.pg_name guard)
          else
            push ~rule:Rule.D4 ~file:s.file ~line:p.pg_line ~col:p.pg_col
              (Printf.sprintf
                 "[@@es_lint.guarded %S] on %S resolves to no Mutex.t in the linted units" guard
                 p.pg_name))
        s.pending_guards)
    t.sums;
  (* D9: every witnessed edge inside a lock-order cycle. *)
  List.iter
    (fun e ->
      if cyclic_edge t e then
        let msg =
          if e.le_held = e.le_acq then
            Printf.sprintf "acquires %s while it is already held (self-deadlock)" e.le_acq
          else
            Printf.sprintf
              "acquires %s while holding %s, completing a lock-order cycle; acquire mutexes in \
               one global order"
              e.le_acq e.le_held
        in
        push ~rule:Rule.D9 ~file:e.le_file ~line:e.le_line ~col:e.le_col msg)
    t.lock_edges;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* --why: reconstruct the call chain behind an interprocedural finding  *)

let bfs_path adj_of start pred =
  let rec go visited = function
    | [] -> None
    | (v, rpath) :: rest ->
        if pred v then Some (List.rev (v :: rpath))
        else
          let succs = adj_of v |> List.filter (fun w -> not (SSet.mem w visited)) in
          let visited = List.fold_left (fun s w -> SSet.add w s) visited succs in
          go visited (rest @ List.map (fun w -> (w, v :: rpath)) succs)
  in
  go (SSet.singleton start) [ (start, []) ]

let all_adj_of t id = match SMap.find_opt id t.nodes with Some n -> n.nd_sync @ n.nd_async | None -> []

let render_chain t ~header ~footer path =
  header :: List.map (fun id -> "  -> " ^ callee_display t id ^ " (" ^ (SMap.find id t.nodes).nd_file ^ ")") path
  @ [ footer ]

let witness_line pick verb t path =
  match List.rev path with
  | last :: _ -> (
      match pick (SMap.find last t.nodes).nd_direct with
      | w :: _ -> Printf.sprintf "  %s %s at %s:%d" verb w.w_what w.w_file w.w_line
      | [] -> "  (no direct witness)")
  | [] -> "  (empty chain)"

let explain t ~rule ~file ~line =
  match rule with
  | Rule.D8 | Rule.D10 ->
      let pick (e : eff) = if rule = Rule.D8 then e.clock else e.alloc in
      let verb = if rule = Rule.D8 then "reads" else "allocates via" in
      List.concat_map
        (fun (s : Summary.t) ->
          if s.file <> file then []
          else
            List.concat_map
              (fun (f : Summary.fn) ->
                List.concat_map
                  (fun (c : Summary.site) ->
                    if c.s_line <> line then []
                    else
                      match resolve_call t.units s c.s_path with
                      | None -> []
                      | Some callee ->
                          if pick (eff_of t callee) = [] then []
                          else
                            (match bfs_path (all_adj_of t) callee (fun id ->
                                 pick (SMap.find id t.nodes).nd_direct <> [])
                             with
                            | Some path ->
                                render_chain t
                                  ~header:
                                    (Printf.sprintf "%s at %s:%d — call from %s" (Rule.id rule)
                                       file line f.f_name)
                                  ~footer:(witness_line pick verb t path)
                                  path
                            | None -> []))
                  f.f_calls)
              s.fns)
        t.sums
  | Rule.D7 ->
      List.concat_map
        (fun (s : Summary.t) ->
          if s.file <> file then []
          else
            List.concat_map
              (fun (p : Summary.par_site) ->
                if p.ps_line <> line then []
                else
                  let start = node_id s.file p.ps_node in
                  if (eff_of t start).races = [] then []
                  else
                    match bfs_path (all_adj_of t) start (fun id ->
                        (SMap.find id t.nodes).nd_direct.races <> [])
                    with
                    | Some path ->
                        render_chain t
                          ~header:
                            (Printf.sprintf "D7 at %s:%d — work shipped to %s from %s" file line
                               p.ps_sink p.ps_parent)
                          ~footer:(witness_line (fun e -> e.races) "mutates" t path)
                          path
                    | None -> [])
              s.par_sites)
        t.sums
  | Rule.D9 ->
      List.concat_map
        (fun e ->
          if e.le_file <> file || e.le_line <> line || not (cyclic_edge t e) then []
          else
            let cycle =
              if e.le_held = e.le_acq then [ e.le_held; e.le_held ]
              else
                match
                  bfs_path
                    (fun v -> match SMap.find_opt v t.lock_adj with Some l -> l | None -> [])
                    e.le_acq
                    (fun v -> v = e.le_held)
                with
                | Some path -> e.le_held :: path
                | None -> [ e.le_held; e.le_acq ]
            in
            [
              Printf.sprintf "D9 at %s:%d — acquiring %s while holding %s" file line e.le_acq
                e.le_held;
              "  cycle: " ^ String.concat " -> " cycle;
            ])
        t.lock_edges
  | _ -> []
