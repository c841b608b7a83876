open Es_edge
module Optimizer = Es_joint.Optimizer
module Solve_cache = Es_joint.Solve_cache
module Shard = Shard

(* Sharded hierarchical solver: dual-price coordination over per-server
   subproblems.

   The monolithic JMSRA descent couples every device through the assignment
   step, which is what makes it superlinear in cluster size.  Here the
   coupling is priced instead: the outer loop owns the device→server
   assignment and a pair of dual prices per server (bandwidth and compute
   utilization), each inner subproblem is one server's independent
   Optimizer.solve over only its assigned devices, and devices migrate
   between servers by best-response moves against price-augmented latency
   estimates.  Prices ascend on utilization above target (never below
   zero), the move sweep visits devices in fixed ascending order, and a
   stitched result is accepted only when it strictly improves the global
   objective — so the loop is monotone after the first stitch and always
   terminates, within max_sweeps, on a feasible full decision set.

   Determinism: shard lists are built in ascending server order, fanned out
   through Es_util.Par (index-addressed results, input-order merge), each
   inner solve runs with jobs = 1, and every tie in the move sweep breaks
   toward the lowest server index — decisions are bit-identical for every
   [jobs] value. *)

type config = {
  shard : Optimizer.config;
  max_sweeps : int;
  delta_sweeps : int;
  jobs : int;
}

let default_config =
  {
    shard = { Optimizer.default_config with Optimizer.jobs = 1; multi_start = false };
    max_sweeps = 3;
    delta_sweeps = 1;
    jobs = 0;
  }

(* Coordination constants.  Prices ascend by [price_step] per unit of
   utilization above [price_target]; a device moves only when the target
   beats staying put by the relative margin [move_tolerance] (hysteresis
   against price noise); at most [max_moves_per_sweep] moves land per sweep,
   since each dirties two shards and unbounded churn would re-solve nearly
   everything next round. *)
let price_step = 0.5
let price_target = 0.75
let move_tolerance = 0.05
let max_moves_per_sweep = 32

let shard_config cfg = { cfg.shard with Optimizer.jobs = 1 }

type output = {
  decisions : Decision.t array;
  objective : float;
  assignment : int array;
  sweeps : int;
  shard_solves : int;
  moves : int;
  solve_time_s : float;
}

(* Cumulative process-wide counters (observability; never read back by the
   solver).  All fields are Atomic.t — lock-free domain-safe state that
   needs no mutex guard (es_lint D4 recognizes Atomic.t record fields). *)
type counters = { sweeps : int; shard_solves : int; moves : int; delta_events : int }

type live = {
  sweeps : int Atomic.t;
  shard_solves : int Atomic.t;
  moves : int Atomic.t;
  delta_events : int Atomic.t;
}

let live : live =
  {
    sweeps = Atomic.make 0;
    shard_solves = Atomic.make 0;
    moves = Atomic.make 0;
    delta_events = Atomic.make 0;
  }

let counters () : counters =
  {
    sweeps = Atomic.get live.sweeps;
    shard_solves = Atomic.get live.shard_solves;
    moves = Atomic.get live.moves;
    delta_events = Atomic.get live.delta_events;
  }

let reset_counters () =
  Atomic.set live.sweeps 0;
  Atomic.set live.shard_solves 0;
  Atomic.set live.moves 0;
  Atomic.set live.delta_events 0

(* Mutable bookkeeping local to one solve/apply call. *)
type sweep_state = { mutable sweeps : int; mutable shard_solves : int; mutable moves : int }

(* Per-server running totals during one coordination sweep. *)
type tally = { mutable offloaders : int; mutable bw_frac : float; mutable cpu_frac : float }

let validate_config cfg =
  if cfg.max_sweeps < 1 then invalid_arg "Es_scale: max_sweeps must be >= 1";
  if cfg.delta_sweeps < 0 then invalid_arg "Es_scale: negative delta_sweeps"

(* Add ([sign = 1]) or withdraw ([sign = -1]) one offloader's load on
   [server]: the bandwidth fraction of its AP and the compute
   seconds-per-second it offers. *)
let charge cluster (tallies : tally array) ~server ~sign (d : Decision.t) =
  let rate = cluster.Cluster.devices.(d.Decision.device).Cluster.rate in
  let srv = cluster.Cluster.servers.(server) in
  let plan = d.Decision.plan in
  let bits = 8.0 *. (Es_surgery.Plan.transfer_bytes plan +. Es_surgery.Plan.result_bytes plan) in
  let work = Es_surgery.Plan.server_time srv.Cluster.sproc.Processor.perf plan in
  let t = tallies.(server) and f = float_of_int sign in
  t.offloaders <- t.offloaders + sign;
  t.bw_frac <- t.bw_frac +. (f *. (rate *. bits /. srv.Cluster.ap_bandwidth_bps));
  t.cpu_frac <- t.cpu_frac +. (f *. (rate *. work))

(* Applied utilization per server under a decision set. *)
let util_tallies cluster (decisions : Decision.t array) =
  let tallies =
    Array.init (Cluster.n_servers cluster) (fun _ ->
        { offloaders = 0; bw_frac = 0.0; cpu_frac = 0.0 })
  in
  Array.iter
    (fun (d : Decision.t) ->
      if Decision.offloads d then charge cluster tallies ~server:d.Decision.server ~sign:1 d)
    decisions;
  tallies

(* Price ascent on utilization above target, clamped at zero: an overloaded
   server's resources get more expensive, pushing best responses elsewhere;
   an idle server's prices decay back toward free. *)
let price_update ~prices_bw ~prices_cpu (tallies : tally array) =
  Array.iteri
    (fun s (t : tally) ->
      prices_bw.(s) <-
        Float.max 0.0 (prices_bw.(s) +. (price_step *. (t.bw_frac -. price_target)));
      prices_cpu.(s) <-
        Float.max 0.0 (prices_cpu.(s) +. (price_step *. (t.cpu_frac -. price_target))))
    tallies

(* Price-augmented cost of running offloader [d]'s current plan on each
   server, into [cost]: a fair-share latency estimate (the grants a re-solve
   would plausibly hand out) plus what the device's demand costs at that
   server's dual prices.  The latency is [Latency.of_decision] of the
   decision those grants make, written out: the stage terms summed in its
   order, with [Decision.make]'s grants and [Link.transfer_time]'s rate cap.
   Only the server's work differs between servers, so the device time and
   the bytes are read once per device and no decision is built per pair. *)
let price_moves cluster ~prices_bw ~prices_cpu ~(tallies : tally array) (d : Decision.t) cost =
  let dev = cluster.Cluster.devices.(d.Decision.device) in
  let link = dev.Cluster.link in
  let rate = dev.Cluster.rate in
  let plan = d.Decision.plan in
  let device_s = Es_surgery.Plan.device_time dev.Cluster.proc.Processor.perf plan in
  let up_bytes = Es_surgery.Plan.transfer_bytes plan in
  let down_bytes = Es_surgery.Plan.result_bytes plan in
  let bits = 8.0 *. (up_bytes +. down_bytes) in
  let half_rtt = link.Link.rtt_s /. 2.0 in
  for server = 0 to Cluster.n_servers cluster - 1 do
    let srv = cluster.Cluster.servers.(server) in
    let ap = srv.Cluster.ap_bandwidth_bps in
    let joining = if d.Decision.server = server then 0 else 1 in
    let k = float_of_int (max 1 (tallies.(server).offloaders + joining)) in
    let bw = ap /. k in
    let bw = if bw >= 1.0 then bw else 1.0 in
    let share = 1.0 /. k in
    let link_bps = if bw <= link.Link.peak_bps then bw else link.Link.peak_bps in
    let uplink_s = if up_bytes <= 0.0 then 0.0 else (up_bytes *. 8.0 /. link_bps) +. half_rtt in
    let work = Es_surgery.Plan.server_time srv.Cluster.sproc.Processor.perf plan in
    let server_s = if work <= 0.0 then 0.0 else work /. share in
    let downlink_s =
      if down_bytes <= 0.0 then 0.0 else (down_bytes *. 8.0 /. link_bps) +. half_rtt
    in
    let lat = device_s +. uplink_s +. server_s +. downlink_s in
    cost.(server) <-
      lat +. (prices_bw.(server) *. rate *. bits /. ap) +. (prices_cpu.(server) *. rate *. work)
  done

(* One best-response sweep in fixed ascending device order.  Ties break
   toward the lowest server index (strict < during the scan); a move must
   beat staying put by a relative margin so price noise cannot oscillate
   devices.  Tallies update as moves land, so later devices respond to
   earlier moves within the same sweep — still deterministic, the order is
   fixed.  Returns the number of devices moved; marks source and target
   shards dirty. *)
let move_pass cluster ~prices_bw ~prices_cpu ~tallies ~(decisions : Decision.t array)
    ~assignment ~dirty ~(st : sweep_state) =
  let ns = Cluster.n_servers cluster in
  let cost = Es_util.Scratch.borrow_floats ns in
  let moved = ref 0 in
  Array.iter
    (fun (d : Decision.t) ->
      if !moved < max_moves_per_sweep && Decision.offloads d then begin
        let i = d.Decision.device in
        let cur = d.Decision.server in
        price_moves cluster ~prices_bw ~prices_cpu ~tallies d cost;
        let cost_cur = cost.(cur) in
        let best_s = ref cur and best_c = ref cost_cur in
        for s = 0 to ns - 1 do
          if s <> cur && cost.(s) < !best_c then begin
            best_s := s;
            best_c := cost.(s)
          end
        done;
        if !best_s <> cur && !best_c < cost_cur *. (1.0 -. move_tolerance) then begin
          charge cluster tallies ~server:cur ~sign:(-1) d;
          charge cluster tallies ~server:!best_s ~sign:1 d;
          assignment.(i) <- !best_s;
          dirty.(cur) <- true;
          dirty.(!best_s) <- true;
          incr moved;
          st.moves <- st.moves + 1
        end
      end)
    decisions;
  Es_util.Scratch.release_floats cost;
  !moved

(* Re-solve every dirty shard (ascending server order) and stitch the
   results over a copy of [current].  Shard solves are whole-subproblem
   tasks over the domain pool — input-order merge keeps the stitch
   deterministic at any [jobs]. *)
let solve_dirty cfg ~cache ~cluster ~assignment ~dirty ~warm ~current ~(st : sweep_state) =
  let ns = Cluster.n_servers cluster in
  let shards =
    List.filter_map
      (fun s -> if dirty.(s) then Shard.make cluster ~assignment ~server:s else None)
      (List.init ns Fun.id)
  in
  let config = shard_config cfg in
  let outs =
    Es_util.Par.parallel_map ~jobs:cfg.jobs
      (fun sh -> Shard.solve ~config ?cache ?warm sh)
      shards
  in
  st.shard_solves <- st.shard_solves + List.length shards;
  let next = Array.copy current in
  List.iter2 (fun sh out -> Shard.lift_into sh out next) shards outs;
  Array.fill dirty 0 ns false;
  next

(* The coordination loop.  [current] must be a full-arity decision set
   consistent with [assignment]; [warm_first] seeds the first round of
   shard solves (None = cold descent).  The first stitched result is
   accepted unconditionally (there is nothing comparable before it: arity
   or rates may have just changed); afterwards a round is accepted only on
   strict objective improvement, else the loop reverts to the best snapshot
   and stops.  Bounded by [max_sweeps] rounds and one move pass per round,
   so it always terminates. *)
let coordinate cfg ~cache ~cluster ~assignment ~current ~warm_first ~dirty ~max_sweeps
    ~(st : sweep_state) =
  let ns = Cluster.n_servers cluster in
  let prices_bw = Array.make ns 0.0 and prices_cpu = Array.make ns 0.0 in
  let best = ref None in
  let current = ref current in
  let warm = ref warm_first in
  let stop = ref false in
  let sweep = ref 0 in
  while (not !stop) && !sweep < max_sweeps do
    incr sweep;
    st.sweeps <- st.sweeps + 1;
    let stitched =
      solve_dirty cfg ~cache ~cluster ~assignment ~dirty ~warm:!warm ~current:!current ~st
    in
    let objective = Es_joint.Objective.of_decisions cluster stitched in
    match !best with
    | Some (b, _, _) when not (objective < b -. 1e-9) ->
        (* Monotone acceptance guard: no strict improvement — revert to the
           best snapshot (decisions and assignment both) and stop. *)
        stop := true
    | _ ->
        best := Some (objective, stitched, Array.copy assignment);
        current := stitched;
        warm := Some stitched;
        if !sweep < max_sweeps then begin
          let tallies = util_tallies cluster stitched in
          price_update ~prices_bw ~prices_cpu tallies;
          let moved =
            move_pass cluster ~prices_bw ~prices_cpu ~tallies ~decisions:stitched
              ~assignment ~dirty ~st
          in
          if moved = 0 then stop := true
        end
  done;
  match !best with
  | Some (objective, decisions, assignment) -> (decisions, objective, assignment)
  | None -> assert false (* max_sweeps >= 1: at least one round ran *)

(* Full-arity placeholder so the first stitch has an array to write over;
   every slot is replaced in the first sweep (all shards dirty). *)
let placeholder_decisions cluster =
  Array.map
    (fun (dev : Cluster.device) ->
      Decision.make ~device:dev.Cluster.dev_id ~server:0
        ~plan:(Es_surgery.Plan.device_only dev.Cluster.model) ())
    cluster.Cluster.devices

let bump_live (st : sweep_state) =
  ignore (Atomic.fetch_and_add live.sweeps st.sweeps);
  ignore (Atomic.fetch_and_add live.shard_solves st.shard_solves);
  ignore (Atomic.fetch_and_add live.moves st.moves)

let solve ?(config = default_config) ?cache ?warm_start ?assignment cluster =
  let t0 = Es_obs.Obs.wall_clock () in
  validate_config config;
  let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
  if nd = 0 then invalid_arg "Es_scale.solve: empty cluster";
  let st : sweep_state = { sweeps = 0; shard_solves = 0; moves = 0 } in
  (* Repair-or-ignore inputs, like the optimizer's warm-start contract:
     wrong arity is dropped, an out-of-range server re-points at the
     fastest server. *)
  let warm =
    match warm_start with Some w when Array.length w = nd -> Some w | Some _ | None -> None
  in
  let assignment =
    match assignment with
    | Some a when Array.length a = nd && Array.for_all (fun s -> s >= 0 && s < ns) a ->
        Array.copy a
    | Some _ | None -> (
        match warm with
        | Some w ->
            let fastest = Optimizer.fastest_server cluster.Cluster.servers in
            Array.map
              (fun (d : Decision.t) ->
                let s = d.Decision.server in
                if s >= 0 && s < ns then s else fastest)
              w
        | None -> snd (Optimizer.cold_start config.shard cluster))
  in
  let current, warm_first =
    match warm with
    | Some w -> (Array.copy w, Some w)
    | None -> (placeholder_decisions cluster, None)
  in
  let dirty = Array.make ns true in
  let decisions, objective, assignment =
    coordinate config ~cache ~cluster ~assignment ~current ~warm_first ~dirty
      ~max_sweeps:config.max_sweeps ~st
  in
  bump_live st;
  ({
     decisions;
     objective;
     assignment;
     sweeps = st.sweeps;
     shard_solves = st.shard_solves;
     moves = st.moves;
     solve_time_s = Es_obs.Obs.wall_clock () -. t0;
   }
    : output)

let solver ?config ?cache () : Optimizer.solver =
  let prev_assignment = ref None in
  fun ~warm cluster ->
    let out = solve ?config ?cache ?warm_start:warm ?assignment:!prev_assignment cluster in
    prev_assignment := Some out.assignment;
    {
      Optimizer.decisions = out.decisions;
      objective = out.objective;
      iterations = out.sweeps;
      trace = [];
      solve_time_s = out.solve_time_s;
    }

module Delta = struct
  type event =
    | Join of Cluster.device
    | Leave of int
    | Rate_change of int * float

  type state = {
    config : config;
    cache : Solve_cache.t option;
    cluster : Cluster.t;
    output : output;
  }

  let init ?(config = default_config) ?cache cluster =
    { config; cache; cluster; output = solve ~config ?cache cluster }

  let cluster st = st.cluster
  let output st = st.output

  (* Pick the join server by applied utilization (worst of the two
     resources), ties toward the lowest index. *)
  let least_loaded_server cluster decisions =
    let tallies = util_tallies cluster decisions in
    let best = ref 0 and best_load = ref infinity in
    Array.iteri
      (fun s (t : tally) ->
        let load = Float.max t.bw_frac t.cpu_frac in
        if load < !best_load then begin
          best := s;
          best_load := load
        end)
      tallies;
    !best

  let apply st event =
    let t0 = Es_obs.Obs.wall_clock () in
    Atomic.incr live.delta_events;
    let cfg = st.config in
    let cluster = st.cluster in
    let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
    let asg = st.output.assignment in
    let servers = Array.to_list cluster.Cluster.servers in
    let check_device i name =
      if i < 0 || i >= nd then
        invalid_arg (Printf.sprintf "Es_scale.Delta.%s: device %d out of range" name i)
    in
    let cluster', decisions', assignment', touched =
      match event with
      | Join dev ->
          let cluster' =
            Cluster.make ~devices:(Array.to_list cluster.Cluster.devices @ [ dev ]) ~servers
          in
          let s = least_loaded_server cluster st.output.decisions in
          let seed =
            Decision.make ~device:nd ~server:s
              ~plan:(Es_surgery.Plan.device_only dev.Cluster.model) ()
          in
          ( cluster',
            Array.append st.output.decisions [| seed |],
            Array.append asg [| s |],
            [ s ] )
      | Leave i ->
          check_device i "Leave";
          if nd = 1 then invalid_arg "Es_scale.Delta.Leave: cannot remove the last device";
          let keep j = if j < i then j else j + 1 in
          let devices' =
            List.init (nd - 1) (fun j -> cluster.Cluster.devices.(keep j))
          in
          let decisions' =
            Array.init (nd - 1) (fun j ->
                { (st.output.decisions.(keep j)) with Decision.device = j })
          in
          ( Cluster.make ~devices:devices' ~servers,
            decisions',
            Array.init (nd - 1) (fun j -> asg.(keep j)),
            [ asg.(i) ] )
      | Rate_change (i, rate) ->
          check_device i "Rate_change";
          if rate <= 0.0 || not (Float.is_finite rate) then
            invalid_arg "Es_scale.Delta.Rate_change: rate must be positive and finite";
          let devices' =
            List.init nd (fun j ->
                let d = cluster.Cluster.devices.(j) in
                if j = i then { d with Cluster.rate } else d)
          in
          ( Cluster.make ~devices:devices' ~servers,
            Array.copy st.output.decisions,
            Array.copy asg,
            [ asg.(i) ] )
    in
    let st_run : sweep_state = { sweeps = 0; shard_solves = 0; moves = 0 } in
    let dirty = Array.make ns false in
    List.iter (fun s -> dirty.(s) <- true) touched;
    let decisions, objective, assignment =
      coordinate cfg ~cache:st.cache ~cluster:cluster' ~assignment:assignment'
        ~current:decisions' ~warm_first:(Some decisions') ~dirty
        ~max_sweeps:(1 + cfg.delta_sweeps) ~st:st_run
    in
    bump_live st_run;
    let out : output =
      {
        decisions;
        objective;
        assignment;
        sweeps = st_run.sweeps;
        shard_solves = st_run.shard_solves;
        moves = st_run.moves;
        solve_time_s = Es_obs.Obs.wall_clock () -. t0;
      }
    in
    { st with cluster = cluster'; output = out }
end
