open Es_edge
open Es_surgery
open Es_alloc

type config = {
  widths : float list;
  precisions : Precision.t list;
  max_iters : int;
  allocator : Policy.allocator;
  local_search_passes : int;
  max_candidates : int option;
  jobs : int;
  multi_start : bool;
}

let default_config =
  {
    widths = Candidate.default_widths;
    precisions = Candidate.default_precisions;
    max_iters = 12;
    allocator = Policy.Minmax_alloc;
    local_search_passes = 2;
    max_candidates = None;
    jobs = 0;
    multi_start = true;
  }

type trace_point = {
  iteration : int;
  objective : float;
  misses : int;
  mean_latency_s : float;
}

type output = {
  decisions : Decision.t array;
  objective : float;
  iterations : int;
  trace : trace_point list;
  solve_time_s : float;
}

type solver = warm:Decision.t array option -> Cluster.t -> output

let stability_margin = 0.95

(* Per-plan invariants, so the surgery step scores a (plan, grants) pair
   with a handful of float operations and zero allocation — no Decision
   record, no Latency.breakdown, no list filtering.  [work] is indexed by
   server.  Everything here depends only on the device's archetype (model,
   processor) and the server perf vector — not on its rate, deadline,
   accuracy floor or link, which are inputs to [best_scored] — so pools are
   shared process-wide across devices, trajectories and solves. *)
type scored = {
  plan : Plan.t;
  local : bool;
  mem_ok : bool;
  dev_s : float;
  up_bytes : float;
  down_bytes : float;
  bits : float;
  work : float array;
}

let score_candidates cluster ~device candidates =
  let dev = cluster.Cluster.devices.(device) in
  let dperf = dev.Cluster.proc.Processor.perf in
  let servers = cluster.Cluster.servers in
  Array.map
    (fun (p : Plan.t) ->
      {
        plan = p;
        local = Plan.is_device_only p;
        mem_ok = Plan.device_mem_bytes p <= dev.Cluster.proc.Processor.mem_bytes;
        dev_s = Plan.device_time dperf p;
        up_bytes = Plan.transfer_bytes p;
        down_bytes = Plan.result_bytes p;
        bits = 8.0 *. (Plan.transfer_bytes p +. Plan.result_bytes p);
        work =
          Array.map (fun (s : Cluster.server) -> Plan.server_time s.Cluster.sproc.Processor.perf p) servers;
      })
    (Array.of_list candidates)

(* Process-wide cache of scored pools.  Building a pool is the solver's
   dominant per-device cost at scale (per-plan timing over every layer of
   every Pareto candidate), yet the result is archetype-keyed: devices
   sharing (model, processor, candidate knobs) against the same server perf
   vector — and the same device across shard re-solves, trajectories and
   epochs — share one build. *)
let pool_cache : (int64, scored array) Es_util.Once.t = Es_util.Once.create ()

let pool_key ?exits ?max_candidates ?precisions ~widths cluster ~device =
  let dev = cluster.Cluster.devices.(device) in
  let h = Es_util.Fnv.create () in
  let add_perf (p : Es_dnn.Profile.perf) =
    Es_util.Fnv.add_float h p.Es_dnn.Profile.flops_per_s;
    Es_util.Fnv.add_float h p.Es_dnn.Profile.mem_bytes_per_s;
    Es_util.Fnv.add_float h p.Es_dnn.Profile.layer_overhead_s
  in
  (* Model identity, as in Candidate's cache key: name + structure. *)
  Es_util.Fnv.add_string h dev.Cluster.model.Es_dnn.Graph.name;
  Es_util.Fnv.add_int h (Es_dnn.Graph.n_nodes dev.Cluster.model);
  Es_util.Fnv.add_float h (Es_dnn.Graph.total_flops dev.Cluster.model);
  add_perf dev.Cluster.proc.Processor.perf;
  Es_util.Fnv.add_float h dev.Cluster.proc.Processor.mem_bytes;
  Array.iter (fun (s : Cluster.server) -> add_perf s.Cluster.sproc.Processor.perf) cluster.Cluster.servers;
  Es_util.Fnv.add_int h (Cluster.n_servers cluster);
  List.iter (Es_util.Fnv.add_float h) widths;
  Es_util.Fnv.add_int h (List.length widths);
  (match precisions with
  | None -> Es_util.Fnv.add_int h (-1)
  | Some ps ->
      Es_util.Fnv.add_int h (List.length ps);
      List.iter (fun p -> Es_util.Fnv.add_string h (Precision.name p)) ps);
  (match exits with
  | None -> Es_util.Fnv.add_int h (-1)
  | Some es ->
      Es_util.Fnv.add_int h (List.length es);
      List.iter (fun e -> Es_util.Fnv.add_int h (Option.value e ~default:(-2))) es);
  Es_util.Fnv.add_int h (Option.value max_candidates ~default:(-1));
  Es_util.Fnv.value h

let clear_pool_cache () = Es_util.Once.clear pool_cache

(* The surgery step over a scored pool.  Float arithmetic mirrors the
   reference surgery step in test/oracle/optimizer.ml (Decision clamps +
   Link.transfer_time + Latency.total, in the same operation order, and its
   stability test) exactly, so decisions are bit-identical to that
   record-allocating path; selection replicates
   argmin_by's first-wins tie-break over (eligible | all) × (stable | any).
   Returns the pick's index in [pool]. *)
let best_scored_index cluster ~device ~server (pool : scored array) ~bandwidth_bps
    ~compute_share =
  let dev = cluster.Cluster.devices.(device) in
  let rate = dev.Cluster.rate in
  let floor = dev.Cluster.accuracy_floor -. 1e-9 in
  let peak = dev.Cluster.link.Link.peak_bps in
  let half_rtt = dev.Cluster.link.Link.rtt_s /. 2.0 in
  (* Latency path: Decision.make clamps grants; transfer_time caps at peak. *)
  let bw_lat = Float.min (Float.max bandwidth_bps 1.0) peak in
  let share_lat = Float.max compute_share 1e-6 in
  (* Stability path: unclamped grants, capped at peak. *)
  let bw_st = Float.min bandwidth_bps peak in
  let el_st = ref (-1) and el_st_l = ref infinity in
  let el_any = ref (-1) and el_any_l = ref infinity in
  let all_st = ref (-1) and all_st_l = ref infinity in
  let all_any = ref (-1) and all_any_l = ref infinity in
  (* Latency and stability are written inline in the scan (not as local
     closures) so the steady-state loop is allocation-free: record-field
     reads, array loads and register float arithmetic only — the property
     the Alloc_probe test asserts as exactly zero minor words. *)
  for i = 0 to Array.length pool - 1 do
    let c = pool.(i) in
    let l =
      if c.local then c.dev_s
      else begin
        let up = if c.up_bytes <= 0.0 then 0.0 else (c.up_bytes *. 8.0 /. bw_lat) +. half_rtt in
        let srv = c.work.(server) /. share_lat in
        let down =
          if c.down_bytes <= 0.0 then 0.0 else (c.down_bytes *. 8.0 /. bw_lat) +. half_rtt
        in
        c.dev_s +. up +. srv +. down
      end
    in
    let st =
      c.mem_ok
      && rate *. c.dev_s < stability_margin
      && (c.local
         || bw_st > 0.0
            && rate *. c.bits /. bw_st < stability_margin
            && (let w = c.work.(server) in
                w = 0.0 || (compute_share > 0.0 && rate *. w /. compute_share < stability_margin)))
    in
    if c.plan.Plan.accuracy >= floor then begin
      if !el_any < 0 || l < !el_any_l then begin
        el_any := i;
        el_any_l := l
      end;
      if st && (!el_st < 0 || l < !el_st_l) then begin
        el_st := i;
        el_st_l := l
      end
    end;
    if !all_any < 0 || l < !all_any_l then begin
      all_any := i;
      all_any_l := l
    end;
    if st && (!all_st < 0 || l < !all_st_l) then begin
      all_st := i;
      all_st_l := l
    end
  done;
  let pick =
    if !el_any >= 0 then if !el_st >= 0 then !el_st else !el_any
    else if !all_st >= 0 then !all_st
    else !all_any
  in
  (* candidate sets are never empty: full model always present *)
  assert (pick >= 0);
  pick

let best_scored cluster ~device ~server pool ~bandwidth_bps ~compute_share =
  pool.(best_scored_index cluster ~device ~server pool ~bandwidth_bps ~compute_share).plan

let build_pool ?exits ?max_candidates ?precisions ~widths cluster ~device =
  let dev = cluster.Cluster.devices.(device) in
  let candidates = Candidate.pareto_candidates ?exits ?precisions ~widths dev.Cluster.model in
  let candidates =
    match max_candidates with Some k -> Candidate.subsample k candidates | None -> candidates
  in
  score_candidates cluster ~device candidates

let device_pool ?exits ?max_candidates ?precisions ~widths cluster ~device =
  Es_util.Once.find_or_build pool_cache
    (pool_key ?exits ?max_candidates ?precisions ~widths cluster ~device)
    (fun () -> build_pool ?exits ?max_candidates ?precisions ~widths cluster ~device)

let config_pool config cluster ~device =
  device_pool ?max_candidates:config.max_candidates ~precisions:config.precisions
    ~widths:config.widths cluster ~device

let best_plan_for_grants ?exits ?max_candidates ?precisions ~widths cluster ~device ~server
    ~bandwidth_bps ~compute_share =
  let pool = device_pool ?exits ?max_candidates ?precisions ~widths cluster ~device in
  best_scored cluster ~device ~server pool ~bandwidth_bps ~compute_share

let best_allocation ?(allocator = Policy.Minmax_alloc) cluster ~assignment ~plans =
  (* The configured allocator is accepted as-is (the min-max solver is
     stable by construction; ablation arms keep their naive rule, warts and
     all).  When running the full joint configuration, the cheap share
     rules are also evaluated — min-max optimizes the worst device, not the
     mean — and the best objective wins; share-rule extras must pass the
     queueing-stability check to be considered. *)
  let all_stable ds = Array.for_all (Latency.device_stable cluster) ds in
  let primary =
    match Policy.decisions allocator cluster ~assignment ~plans with
    | Some ds -> [ ds ]
    | None -> []
  in
  let extras =
    if allocator <> Policy.Minmax_alloc then []
    else
      List.filter_map
        (fun alloc ->
          match Policy.decisions alloc cluster ~assignment ~plans with
          | Some ds when all_stable ds -> Some ds
          | Some _ | None -> None)
        [ Policy.Sum_sqrt; Policy.Equal ]
  in
  Es_util.Numeric.argmin_by (Objective.of_decisions cluster) (primary @ extras)

(* Cheap per-assignment load proxy used by the local search: the worst
   server's max of bandwidth and compute load.  The local search calls the
   evaluator once per candidate move/swap, so the per-(device, server)
   loads are tabulated once per step ([nd * ns] cells, row-major by
   device; device-only rows stay empty) and an evaluation only sums the
   assigned cells, in device order, into two reset accumulators. *)
let load_proxy cluster ~plans =
  let nd = Array.length plans and ns = Cluster.n_servers cluster in
  let offloads = Array.map (fun plan -> not (Plan.is_device_only plan)) plans in
  let bw_cell = Array.make (nd * ns) 0.0 and cpu_cell = Array.make (nd * ns) 0.0 in
  for dev_id = 0 to nd - 1 do
    if offloads.(dev_id) then begin
      let plan = plans.(dev_id) in
      let rate = cluster.Cluster.devices.(dev_id).Cluster.rate in
      let bytes = Plan.transfer_bytes plan +. Plan.result_bytes plan in
      for s = 0 to ns - 1 do
        let srv = cluster.Cluster.servers.(s) in
        bw_cell.((dev_id * ns) + s) <- rate *. 8.0 *. bytes /. srv.Cluster.ap_bandwidth_bps;
        cpu_cell.((dev_id * ns) + s) <-
          rate *. Plan.server_time srv.Cluster.sproc.Processor.perf plan
      done
    end
  done;
  let bw = Array.make ns 0.0 and cpu = Array.make ns 0.0 in
  fun assignment ->
    Array.fill bw 0 ns 0.0;
    Array.fill cpu 0 ns 0.0;
    for dev_id = 0 to Array.length assignment - 1 do
      if offloads.(dev_id) then begin
        let s = assignment.(dev_id) in
        let cell = (dev_id * ns) + s in
        bw.(s) <- bw.(s) +. bw_cell.(cell);
        cpu.(s) <- cpu.(s) +. cpu_cell.(cell)
      end
    done;
    let worst = ref 0.0 in
    for s = 0 to ns - 1 do
      worst := Float.max !worst (Float.max bw.(s) cpu.(s))
    done;
    !worst

let force_feasible config cluster plans assignment =
  (* Last-resort degradation: flip the heaviest offloaders to device-only
     until the allocator accepts (guaranteed once everyone is local).
     Ordering runs on scratch (heapsort under the same strict total order
     the reference's stable sort induces: weight descending, index
     ascending on ties); the device-only fallback scans the cached scored
     pool instead of regenerating and filtering the candidate list. *)
  let n = Array.length plans in
  let order = Es_util.Scratch.borrow_ints n in
  let weight = Es_util.Scratch.borrow_floats n in
  for i = 0 to n - 1 do
    order.(i) <- i;
    weight.(i) <- cluster.Cluster.devices.(i).Cluster.rate *. Plan.srv_flops plans.(i)
  done;
  let cmp i j =
    let c = Float.compare weight.(j) weight.(i) in
    if c <> 0 then c else Int.compare i j
  in
  let sift root len =
    let j = ref root in
    let walking = ref true in
    while !walking do
      let l = (2 * !j) + 1 in
      if l >= len then walking := false
      else begin
        let c = if l + 1 < len && cmp order.(l) order.(l + 1) < 0 then l + 1 else l in
        if cmp order.(!j) order.(c) < 0 then begin
          let t = order.(!j) in
          order.(!j) <- order.(c);
          order.(c) <- t;
          j := c
        end
        else walking := false
      end
    done
  in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for last = n - 1 downto 1 do
    let t = order.(0) in
    order.(0) <- order.(last);
    order.(last) <- t;
    sift 0 last
  done;
  let rec go k =
    if k >= n then Policy.decisions config.allocator cluster ~assignment ~plans
    else
      match Policy.decisions config.allocator cluster ~assignment ~plans with
      | Some ds -> Some ds
      | None ->
          let i = order.(k) in
          let dev = cluster.Cluster.devices.(i) in
          let pool = config_pool config cluster ~device:i in
          (* Fastest device-only candidate, first-wins like argmin_by. *)
          let best = ref (-1) and best_t = ref infinity in
          for j = 0 to Array.length pool - 1 do
            let c = pool.(j) in
            if c.local && (!best < 0 || c.dev_s < !best_t) then begin
              best := j;
              best_t := c.dev_s
            end
          done;
          if !best >= 0 then plans.(i) <- pool.(!best).plan
          else plans.(i) <- Plan.device_only dev.Cluster.model;
          go (k + 1)
  in
  let out = go 0 in
  Es_util.Scratch.release_floats weight;
  Es_util.Scratch.release_ints order;
  out

(* Fastest server by sustained throughput: the deterministic anchor for
   cold initial surgery and for warm-start repairs. *)
let fastest_server (servers : Cluster.server array) =
  let best = ref 0 in
  Array.iteri
    (fun s (srv : Cluster.server) ->
      if
        srv.Cluster.sproc.Processor.perf.Es_dnn.Profile.flops_per_s
        > servers.(!best).Cluster.sproc.Processor.perf.Es_dnn.Profile.flops_per_s
      then best := s)
    servers;
  !best

let cold_start ?pools config cluster =
  let servers = cluster.Cluster.servers in
  let nd = Cluster.n_devices cluster in
  let fastest = fastest_server servers in
  let per_server = float_of_int (max 1 (nd / Array.length servers)) in
  let bandwidth_bps = servers.(fastest).Cluster.ap_bandwidth_bps /. per_server in
  let compute_share = 1.0 /. per_server in
  let plans =
    Array.init nd (fun device ->
        let pool =
          match pools with Some p -> p.(device) | None -> config_pool config cluster ~device
        in
        best_scored cluster ~device ~server:fastest pool ~bandwidth_bps ~compute_share)
  in
  (plans, Assign.balanced_greedy cluster ~plans)

(* The surgery step's memory within one descent.  A device's pick is a pure
   function of its server, its grants and its pool, and the pools are fixed
   for the solve, so the step re-scans a device only when its (server,
   bandwidth, share) differs from its last scan's and otherwise re-uses
   that scan's pool index.  [offloaders] counts, per server, the devices
   whose current plan offloads, kept exact as plans flip, so the fair share
   of a device without grants costs O(1) instead of a pass over the
   assignment.  All of it is borrowed scratch, filled afresh by each solve:
   no state crosses solves. *)
type memo = {
  last_server : int array;  (* -1: not scanned yet in this solve *)
  last_pick : int array;
  last_bw : float array;
  last_share : float array;
  offloaders : int array;
}

let borrow_memo ~devices ~servers =
  let last_server = Es_util.Scratch.borrow_ints devices in
  let last_pick = Es_util.Scratch.borrow_ints devices in
  let offloaders = Es_util.Scratch.borrow_ints servers in
  let last_bw = Es_util.Scratch.borrow_floats devices in
  let last_share = Es_util.Scratch.borrow_floats devices in
  Array.fill last_server 0 devices (-1);
  { last_server; last_pick; last_bw; last_share; offloaders }

let release_memo m =
  Es_util.Scratch.release_floats m.last_share;
  Es_util.Scratch.release_floats m.last_bw;
  Es_util.Scratch.release_ints m.offloaders;
  Es_util.Scratch.release_ints m.last_pick;
  Es_util.Scratch.release_ints m.last_server

(* One surgery step: each device re-picks its plan under the grants the
   allocation step gave it or, holding none, under a fair share of its
   server's bandwidth and compute among that server's offloaders (itself
   included) plus one.  Devices go in index order and the counts follow
   every flip, so a device sees the new plans of the devices before it. *)
let surgery_step m cluster pools ~plans ~assignment (working : Decision.t array) =
  let nd = Array.length working in
  let offloaders = m.offloaders in
  Array.fill offloaders 0 (Cluster.n_servers cluster) 0;
  for i = 0 to nd - 1 do
    if not (Plan.is_device_only plans.(i)) then
      offloaders.(assignment.(i)) <- offloaders.(assignment.(i)) + 1
  done;
  for device = 0 to nd - 1 do
    let d = working.(device) in
    let server = assignment.(device) in
    let granted = Decision.offloads d && d.Decision.bandwidth_bps > 0.0 in
    let k = float_of_int (offloaders.(server) + 1) in
    let bandwidth_bps =
      if granted then d.Decision.bandwidth_bps
      else cluster.Cluster.servers.(server).Cluster.ap_bandwidth_bps /. k
    in
    let compute_share = if granted then d.Decision.compute_share else 1.0 /. k in
    let pool = pools.(device) in
    let pick =
      if
        m.last_server.(device) = server
        && m.last_bw.(device) = bandwidth_bps
        && m.last_share.(device) = compute_share
      then m.last_pick.(device)
      else begin
        let pick = best_scored_index cluster ~device ~server pool ~bandwidth_bps ~compute_share in
        m.last_server.(device) <- server;
        m.last_bw.(device) <- bandwidth_bps;
        m.last_share.(device) <- compute_share;
        m.last_pick.(device) <- pick;
        pick
      end
    in
    let c = pool.(pick) in
    if Plan.is_device_only plans.(device) <> c.local then
      offloaders.(server) <- (offloaders.(server) + if c.local then -1 else 1);
    plans.(device) <- c.plan
  done

let solve_one ~config ?metrics ?spans ?init cluster =
  let t0 = Es_obs.Obs.wall_clock () in
  let nd = Cluster.n_devices cluster in
  if nd = 0 then invalid_arg "Optimizer.solve: empty cluster";
  let tracer =
    match spans with
    | None -> Es_obs.Span.null
    | Some sink -> Es_obs.Span.tracer ~sink ~clock:Es_obs.Obs.wall_clock ()
  in
  let root = Es_obs.Span.start tracer "optimizer/solve" in
  let note_iteration =
    match metrics with
    | None -> fun _ -> ()
    | Some reg ->
        let iters = Es_obs.Metric.counter reg "optimizer/iterations" in
        let obj_h = Es_obs.Metric.histogram reg "optimizer/iteration_objective" in
        fun obj ->
          Es_obs.Metric.inc iters;
          Es_obs.Histogram.observe obj_h obj
  in
  let pools = Array.init nd (fun device -> config_pool config cluster ~device) in
  (* Starting point: a warm seed when given, else the cold start. *)
  let servers = cluster.Cluster.servers in
  let plans, assignment =
    match init with
    | Some (seed_plans, seed_assignment) -> (Array.copy seed_plans, Array.copy seed_assignment)
    | None -> cold_start ~pools config cluster
  in
  let assignment = ref assignment in
  let memo = borrow_memo ~devices:nd ~servers:(Array.length servers) in
  let best : (float * Decision.t array) option ref = ref None in
  let trace = ref [] in
  let iterations = ref 0 in
  let no_improve = ref 0 in
  (Fun.protect ~finally:(fun () -> release_memo memo) @@ fun () ->
   try
     for iter = 1 to config.max_iters do
       iterations := iter;
       let iter_span = Es_obs.Span.start tracer ~parent:root "optimizer/iteration" in
       (* The finally-finish keeps the iteration span well-formed on the
          early-exit path too (Exit propagates through Fun.protect). *)
       Fun.protect
         ~finally:(fun () -> Es_obs.Span.finish tracer iter_span)
         (fun () ->
           (* --- Allocation step --- *)
           let working, feasible =
             match
               best_allocation ~allocator:config.allocator cluster ~assignment:!assignment ~plans
             with
             | Some ds -> (ds, true)
             | None -> (
                 match
                   Policy.decisions Policy.Proportional cluster ~assignment:!assignment ~plans
                 with
                 | Some ds -> (ds, false)
                 | None -> assert false (* share rules always allocate *))
           in
           let obj =
             Objective.of_decisions cluster working +. if feasible then 0.0 else 100.0
           in
           let misses = Objective.misses cluster working in
           let mean_latency_s = Latency.mean_latency cluster working in
           trace := { iteration = iter; objective = obj; misses; mean_latency_s } :: !trace;
           note_iteration obj;
           Es_obs.Span.set_attr iter_span "iteration" (Es_obs.Json.Int iter);
           Es_obs.Span.set_attr iter_span "objective" (Es_obs.Json.Float obj);
           Es_obs.Span.set_attr iter_span "misses" (Es_obs.Json.Int misses);
           Es_obs.Span.set_attr iter_span "mean_latency_s" (Es_obs.Json.Float mean_latency_s);
           Es_obs.Span.set_attr iter_span "feasible" (Es_obs.Json.Bool feasible);
           let improved =
             match !best with
             | Some (b, _) -> obj < b -. 1e-9
             | None -> feasible
           in
           if improved && feasible then begin
             best := Some (obj, working);
             no_improve := 0
           end
           else incr no_improve;
           if !no_improve >= 3 then raise Exit;
           (* --- Surgery step --- *)
           surgery_step memo cluster pools ~plans ~assignment:!assignment working;
           (* --- Assignment step --- *)
           if Array.length servers > 1 then begin
             let greedy = Assign.balanced_greedy cluster ~plans in
             assignment :=
               Assign.local_search ~max_passes:config.local_search_passes
                 ~n_servers:(Array.length servers)
                 ~eval:(load_proxy cluster ~plans)
                 greedy
           end)
     done
   with Exit -> ());
  let decisions =
    match !best with
    | Some (_, ds) -> ds
    | None -> (
        match force_feasible config cluster plans !assignment with
        | Some ds -> ds
        | None -> assert false)
  in
  let objective = Objective.of_decisions cluster decisions in
  Es_obs.Span.finish tracer
    ~attrs:
      [
        ("objective", Es_obs.Json.Float objective);
        ("iterations", Es_obs.Json.Int !iterations);
      ]
    root;
  {
    decisions;
    objective;
    iterations = !iterations;
    trace = List.rev !trace;
    solve_time_s = Es_obs.Obs.wall_clock () -. t0;
  }

(* Final gauges are set exactly once per [solve], from the chosen landing
   point — the multi-start trajectories themselves no longer write them, so
   the exported values cannot disagree with the returned result. *)
let set_final_gauges metrics ~objective ~solve_time_s =
  match metrics with
  | None -> ()
  | Some reg ->
      Es_obs.Metric.set (Es_obs.Metric.gauge reg "optimizer/objective") objective;
      Es_obs.Metric.set (Es_obs.Metric.gauge reg "optimizer/solve_time_s") solve_time_s

(* Validate-and-repair an incumbent decision set into the (plans,
   assignment) seed of one descent trajectory.  [None] when the incumbent
   is unusable wholesale (wrong arity for this cluster).  Per-device
   repairs, for incumbents that went stale between solves:
   - a plan built for a different model (the device changed) is replaced by
     the cold-start plan;
   - a decision referencing an out-of-range server (downed, or renumbered
     away in a residual cluster) is re-pointed at the fastest surviving
     server, keeping its plan — the descent's assignment step re-places it
     from there. *)
let warm_seed config cluster (incumbent : Decision.t array) =
  let nd = Cluster.n_devices cluster in
  if Array.length incumbent <> nd then None
  else begin
    let ns = Cluster.n_servers cluster in
    let cold_plans = lazy (fst (cold_start config cluster)) in
    let plans =
      Array.init nd (fun device ->
          let plan = incumbent.(device).Decision.plan in
          let model = cluster.Cluster.devices.(device).Cluster.model in
          if plan.Es_surgery.Plan.base_name = model.Es_dnn.Graph.name then plan
          else (Lazy.force cold_plans).(device))
    in
    let fastest = fastest_server cluster.Cluster.servers in
    let assignment =
      Array.init nd (fun device ->
          let s = incumbent.(device).Decision.server in
          if s >= 0 && s < ns then s else fastest)
    in
    Some (plans, assignment)
  end

(* Candidate decision sets contributed by a finished secondary trajectory:
   its own landing point (when queueing-stable on the target cluster) plus
   that landing point with the allocation re-polished by the optimal inner
   step.  Evaluation order is fixed, so the merge is deterministic. *)
let trajectory_candidates ~allocator cluster (out : output) =
  let plans = Array.map (fun (d : Decision.t) -> d.Decision.plan) out.decisions in
  let assignment = Array.map (fun (d : Decision.t) -> d.Decision.server) out.decisions in
  (if Array.for_all (Latency.device_stable cluster) out.decisions then [ out.decisions ]
   else [])
  @
  match best_allocation ~allocator cluster ~assignment ~plans with
  | Some ds -> [ ds ]
  | None -> []

(* Below this many devices a descent trajectory is too fine-grained for the
   domain pool: dispatch and stop-the-world GC synchronization cost more
   than the overlap buys (BENCH_solver.json's solver_scaling rows measured
   speedup ≈ 0.4 on small solves).  The multi-start fan-out then runs
   sequentially — and likewise whenever jobs auto-sizing says the machine
   has one usable core, where domains cannot add throughput at any size.
   Decisions are bit-identical either way (determinism contract), so this
   only moves time. *)
let par_fanout_min_devices = 32

let fanout_jobs config cluster =
  if Es_util.Par.default_jobs () = 1 || Cluster.n_devices cluster < par_fanout_min_devices then 1
  else config.jobs

(* A portfolio of descent trajectories.  Without multi-start: the warm one
   when an incumbent is given, else the cold one.  With it: cold first; the
   equal-share one under min-max, since descent is sensitive to the
   allocator driving its surgery steps (so the joint result never loses to
   the surgery-only ablation); the warm one last.  Trajectories are
   independent and deterministic, so they fan out over the domain pool and
   merge in input order, first wins on a tie: bit-identical for every
   [jobs], and a warm start never worse than the cold solve. *)
let solve ?(config = default_config) ?metrics ?spans ?warm_start cluster =
  let t0 = Es_obs.Obs.wall_clock () in
  let init = Option.bind warm_start (warm_seed config cluster) in
  let trajectories =
    if not config.multi_start then [ (config, init) ]
    else
      let equal_share = ({ config with allocator = Policy.Equal }, None) in
      ((config, None) :: (if config.allocator = Policy.Minmax_alloc then [ equal_share ] else []))
      @ if Option.is_some init then [ (config, init) ] else []
  in
  let spans = Option.map Es_obs.Span.locked_sink spans in
  let outs =
    Es_util.Par.parallel_map ~jobs:(fanout_jobs config cluster)
      (fun (config, init) -> solve_one ~config ?metrics ?spans ?init cluster)
      trajectories
  in
  let out =
    match outs with
    | [] -> assert false
    | [ out ] -> out
    | first :: rest ->
        let candidates =
          first.decisions
          :: List.concat_map (trajectory_candidates ~allocator:config.allocator cluster) rest
        in
        let best =
          match Es_util.Numeric.argmin_by (Objective.of_decisions cluster) candidates with
          | Some ds -> ds
          | None -> first.decisions
        in
        {
          first with
          decisions = best;
          objective = Objective.of_decisions cluster best;
          solve_time_s = Es_obs.Obs.wall_clock () -. t0;
        }
  in
  set_final_gauges metrics ~objective:out.objective ~solve_time_s:out.solve_time_s;
  out
