(* The workloads and their end-to-end measurement.

   Every workload is a closed loop with one caller that walks the system's
   whole path, as `edgesim run` does: build the inputs, plan them (solve
   phase), re-plan one deployment incrementally as its load changes (delta
   phase, always Es_scale.Delta), and serve plans in the simulator (serve
   phase).  The workloads differ in which phase dominates and in the
   planner the solve phase uses.  Each phase runs its operations once as an
   untimed warm-up, which is also the reference every timed repetition must
   reproduce; then the phases' timed passes alternate until the measured
   seconds are spent. *)

open Es_edge
module J = Es_obs.Json

let wall = Es_obs.Obs.wall_clock

type size = Full | Smoke

type planner =
  | Jmsra  (** Es_joint.Optimizer.solve, the monolithic joint solver *)
  | Sharded  (** Es_scale.solve from a cold assignment *)
  | Neurosurgeon
      (** the partition-only baseline, so that solver changes cannot alter
          the traffic the serve phase simulates *)

type dims = {
  inputs : int;  (** clusters the solve phase plans *)
  devices : int;
  servers : int;  (** scenario workloads only; populations get one server per 40 devices *)
  sims : int;  (** how many of the first inputs the serve phase simulates *)
  sim_s : float;  (** simulated horizon of each served plan *)
  events : int;  (** load-change events per delta pass *)
}

type t = {
  name : string;
  planner : planner;
  dims : size -> dims;
  build : dims -> seed:int -> Cluster.t;
  profile : string;  (** Es_workload.Heavy load profile of the arrival traces *)
  guarded : bool;
      (** overload protection at its defaults, and a scripted crash of server 0
          at mid-run with the default resilience policy *)
  shares : float * float * float * float;
      (** shares of the measured seconds: set-up, solve, delta, serve *)
}

let scenario spec d ~seed =
  spec |> Scenario.with_n_devices d.devices |> Scenario.with_n_servers d.servers
  |> Scenario.with_seed seed |> Scenario.build

(* The serve workloads keep smart_city's own population: a population drawn
   from another seed changes the archetype mix, and with it the flash
   crowd's DSR from 0.38 to 0. *)
let population d ~seed:_ =
  Es_workload.Heavy.population ~devices:d.devices Es_workload.Scenarios.smart_city

(* Most time goes to the monolithic kernels: surgery scan, min-max
   allocation, assignment local search; smart_city allocates about ten times
   more words per device than default.  The simulator is nearly idle. *)
let solve_city =
  {
    name = "solve_city";
    planner = Jmsra;
    dims =
      (function
      | Full ->
          { inputs = 40; devices = 24; servers = 2; sims = 20;
            sim_s = 40.0; events = 20 }
      | Smoke ->
          { inputs = 2; devices = 8; servers = 2; sims = 1;
            sim_s = 5.0; events = 10 });
    build = scenario Es_workload.Scenarios.smart_city;
    profile = "constant";
    guarded = false;
    shares = (0.1, 0.55, 0.15, 0.2);
  }

(* Sharded coordination, migration and per-shard solves, beside incremental
   Delta re-solves of the same fleet, so a gain on one that costs the other
   shows. *)
let fleet_1000 =
  {
    name = "fleet_1000";
    planner = Sharded;
    dims =
      (function
      | Full ->
          { inputs = 6; devices = 1000; servers = 25; sims = 1;
            sim_s = 20.0; events = 20 }
      | Smoke ->
          { inputs = 1; devices = 60; servers = 3; sims = 1;
            sim_s = 5.0; events = 10 });
    build = scenario Es_edge.Scenario.default;
    profile = "constant";
    guarded = false;
    shares = (0.25, 0.35, 0.25, 0.15);
  }

(* Engine and runner cost per event with a working set far larger than the
   cache: a flash crowd of about 175k requests and 1M events.  Plans are
   pinned to Neurosurgeon, so solver changes cannot alter the traffic. *)
let serve_flash =
  {
    name = "serve_flash";
    planner = Neurosurgeon;
    dims =
      (function
      | Full ->
          (* One Delta.apply on 2000 devices takes about 0.12 s: ten events a
             pass give each event more timed passes. *)
          { inputs = 1; devices = 2000; servers = 0; sims = 1;
            sim_s = 40.0; events = 10 }
      | Smoke ->
          { inputs = 1; devices = 60; servers = 0; sims = 1;
            sim_s = 5.0; events = 10 });
    build = population;
    profile = "flash";
    guarded = false;
    shares = (0.1, 0.1, 0.25, 0.55);
  }

(* The same runner with its per-event overload, fault and retry branches
   taken: 3x load, every protection at its defaults, and a 5 s crash of
   server 0 at mid-run.  A gain on serve_flash must not cost here. *)
let serve_guarded =
  {
    name = "serve_guarded";
    planner = Neurosurgeon;
    dims =
      (function
      | Full ->
          { inputs = 1; devices = 1000; servers = 0; sims = 1;
            sim_s = 40.0; events = 20 }
      | Smoke ->
          { inputs = 1; devices = 60; servers = 0; sims = 1;
            sim_s = 10.0; events = 10 });
    build = population;
    profile = "overload";
    guarded = true;
    shares = (0.1, 0.1, 0.25, 0.55);
  }

let all = [ solve_city; fleet_1000; serve_flash; serve_guarded ]

let find name = List.find_opt (fun w -> w.name = name) all

let jmsra_config = { Es_joint.Optimizer.default_config with Es_joint.Optimizer.jobs = 1 }
let scale_config = { Es_scale.default_config with Es_scale.jobs = 1 }

let guarded_policy =
  {
    Es_sim.Overload.admission = Some Es_sim.Overload.default_admission;
    breaker = Some Es_sim.Overload.default_breaker;
    brownout = Some Es_sim.Overload.default_brownout;
    rate_limit = Some Es_sim.Overload.default_rate_limit;
  }

let sim_options w d =
  let base =
    {
      Es_sim.Runner.default_options with
      duration_s = d.sim_s;
      warmup_s = 0.0;
      streaming = true;
    }
  in
  if not w.guarded then base
  else
    {
      base with
      faults = Es_sim.Faults.scripted (Es_sim.Faults.crash ~at:(d.sim_s /. 2.0) ~for_s:5.0 0);
      resilience = Some Es_sim.Runner.default_resilience;
      overload = guarded_policy;
    }

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* Every input comes from one fixed seed: the clusters, the load-change
   events and the arrival traces.  The benchmark bounds the quality metrics
   exactly (objective, dsr and mean latency to 1e-9) across runs made with
   different --seed values, and any draw from the run seed moves them: with
   traces drawn from it, dsr moved up to 0.5% and mean latency up to 1.4%
   between ten seeds; with clusters drawn from it, solve_city's median solve
   time and minor words moved 12% and 7%; with events drawn from it,
   fleet_1000's median Delta.apply flipped between 0.05 s and 0.1 s.  Those
   spreads measured the draw, not the code. *)
type seeds = { scenario : int array; delta : int; traces : int array }

let input_seed = 2022

let seeds d =
  let rng = Es_util.Prng.create input_seed in
  let draw _ = Es_util.Prng.int rng 1_000_000_000 in
  let scenario = Array.init d.inputs draw in
  let delta = draw () in
  { scenario; delta; traces = Array.init (min d.sims d.inputs) draw }

type inputs = {
  clusters : Cluster.t array;
  traces : (float * int) array array;  (** arrival traces of the first [sims] clusters *)
}

(* ------------------------------------------------------------------ *)
(* Operations: counting, checking, timing                              *)
(* ------------------------------------------------------------------ *)

exception Check of string

type scale_tally = {
  mutable calls : int;  (** Es_scale.solve, Delta.init and Delta.apply calls *)
  mutable sweeps : int;
  mutable shard_solves : int;
  mutable moves : int;
}

type ctx = {
  tr : Spans.t option;
  mutable attempted : int;
  mutable failed : int;
  mutable timed_ops : int;
  mutable minor_collections : int;  (** over the timed passes *)
  mutable major_collections : int;
  mutable promoted_words : float;
  scale : scale_tally;
  mutable optimizer_solves : int;  (** Optimizer.solve calls made through [traced_solve] *)
}

let context tr =
  {
    tr;
    attempted = 0;
    failed = 0;
    timed_ops = 0;
    minor_collections = 0;
    major_collections = 0;
    promoted_words = 0.0;
    scale = { calls = 0; sweeps = 0; shard_solves = 0; moves = 0 };
    optimizer_solves = 0;
  }

(* One operation: a solve, a delta event, a run or a probe.  It fails on an
   exception or a failed check; either way the run goes on and the failure
   is counted. *)
let op ctx ?attrs name f =
  ctx.attempted <- ctx.attempted + 1;
  let fail msg =
    ctx.failed <- ctx.failed + 1;
    Printf.eprintf "edgebench: %s failed: %s\n%!" name msg
  in
  match Spans.span ctx.tr ?attrs name f with
  | () -> ()
  | exception Check msg -> fail msg
  | exception e -> fail (Printexc.to_string e)

let measure f =
  let w0 = Gc.minor_words () in
  let t0 = wall () in
  let r = f () in
  let t1 = wall () in
  let w1 = Gc.minor_words () in
  (r, t1 -. t0, w1 -. w0)

let check_decisions cluster decisions =
  match Decision.validate cluster decisions with
  | Ok () -> ()
  | Error e -> raise (Check ("invalid decisions: " ^ e))

(* The first value seen for slot [i] (the warm-up's) is the reference. *)
let check_reference refs i v what =
  match refs.(i) with
  | None -> refs.(i) <- Some v
  | Some v0 -> if v <> v0 then raise (Check (what ^ " differs from the warm-up"))

type phase = {
  share : float;  (** of the measured seconds *)
  pass : timed:bool -> unit;
  mutable spent : float;
  mutable passes : int;  (** timed ones *)
}

let phase ?(spent = 0.0) ?(passes = 0) share pass = { share; pass; spent; passes }

(* After every phase's untimed warm-up pass, the phases' timed passes
   alternate until [seconds] are spent, each phase getting about its share
   of the time and at least one pass.  Spread over the whole run, each
   operation's best time (and the set-ups' median) can come from the
   machine's quieter moments, whenever they fall.  GC work is counted over
   the timed passes only. *)
let interleave ctx ~seconds phases =
  let behind () =
    List.fold_left
      (fun a p -> if p.spent /. p.share < a.spent /. a.share then p else a)
      (List.hd phases) phases
  in
  let g0 = Gc.quick_stat () in
  let t0 = wall () in
  while List.exists (fun p -> p.passes = 0) phases || wall () -. t0 < seconds do
    let p = behind () in
    let t = wall () in
    p.pass ~timed:true;
    p.spent <- p.spent +. (wall () -. t);
    p.passes <- p.passes + 1
  done;
  let g1 = Gc.quick_stat () in
  ctx.minor_collections <- g1.Gc.minor_collections - g0.Gc.minor_collections;
  ctx.major_collections <- g1.Gc.major_collections - g0.Gc.major_collections;
  ctx.promoted_words <- g1.Gc.promoted_words -. g0.Gc.promoted_words

let note_scale ctx (o : Es_scale.output) =
  let s = ctx.scale in
  s.calls <- s.calls + 1;
  s.sweeps <- s.sweeps + o.Es_scale.sweeps;
  s.shard_solves <- s.shard_solves + o.Es_scale.shard_solves;
  s.moves <- s.moves + o.Es_scale.moves

(* Optimizer spans land in a memory sink and are adopted under the
   operation's span once the call returns. *)
let traced_solve ctx ?config cluster =
  ctx.optimizer_solves <- ctx.optimizer_solves + 1;
  match ctx.tr with
  | None -> Es_joint.Optimizer.solve ?config cluster
  | Some t ->
      let sink, emitted = Es_obs.Span.memory_sink () in
      let o = Es_joint.Optimizer.solve ?config ~spans:sink cluster in
      Spans.adopt t (emitted ());
      o

type plan = { decisions : Decision.t array; objective : float Lazy.t }

let plan ctx w cluster =
  match w.planner with
  | Jmsra ->
      let o = traced_solve ctx ~config:jmsra_config cluster in
      { decisions = o.Es_joint.Optimizer.decisions; objective = Lazy.from_val o.objective }
  | Sharded ->
      let o = Es_scale.solve ~config:scale_config cluster in
      note_scale ctx o;
      { decisions = o.Es_scale.decisions; objective = Lazy.from_val o.Es_scale.objective }
  | Neurosurgeon ->
      let decisions =
        Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve cluster
      in
      { decisions; objective = lazy (Es_joint.Objective.of_decisions cluster decisions) }

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Inputs ready from cold caches: clusters, arrival traces, and the first
   plan, which fills the candidate and scored-pool caches. *)
let setup ctx w d sd =
  Es_surgery.Candidate.clear_cache ();
  Es_joint.Optimizer.clear_pool_cache ();
  let clusters =
    Array.map
      (fun seed -> Spans.span ctx.tr "setup/scenario" (fun () -> w.build d ~seed))
      sd.scenario
  in
  let profile = Es_workload.Heavy.profile_by_name ~duration_s:d.sim_s w.profile in
  let traces =
    Array.mapi
      (fun i seed ->
        Spans.span ctx.tr "setup/trace" (fun () ->
            Es_workload.Heavy.trace ~seed ~duration_s:d.sim_s ~profile clusters.(i)))
      sd.traces
  in
  ignore (Spans.span ctx.tr "setup/plan" (fun () -> plan ctx w clusters.(0)));
  { clusters; traces }

(* One cold set-up returns the inputs every phase uses; more of them are
   timed as a phase of their own, their inputs dropped, so that setup_s is a
   median over the whole run.  Each set-up ends by refilling the caches it
   cleared, with the first plan. *)
let setup_phase ctx w d sd =
  let times = ref [] in
  let timed_setup () =
    let inp, dt, _ = measure (fun () -> setup ctx w d sd) in
    times := dt :: !times;
    ctx.timed_ops <- ctx.timed_ops + 1;
    inp
  in
  let inputs = ref None in
  op ctx "op/setup" (fun () -> inputs := Some (timed_setup ()));
  let pass ~timed:_ = op ctx "op/setup" (fun () -> ignore (timed_setup ())) in
  match !inputs with
  | Some inp -> (pass, times, inp)
  | None -> failwith "the first set-up failed"

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

type solve_result = {
  plans : plan option array;  (** the warm-up's *)
  best_s : float array;  (** per input, the best timed solve *)
  solve_words : float array;
      (** per input, the fewest minor words of a timed solve: a solve right
          after a set-up refills caches the set-up cleared *)
}

let solve_phase ctx w inp =
  let n = Array.length inp.clusters in
  let plans = Array.make n None and refs = Array.make n None in
  let best_s = Array.make n infinity and solve_words = Array.make n infinity in
  let pass ~timed =
    Array.iteri
      (fun i cluster ->
        op ctx "op/solve" (fun () ->
            let p, dt, words = measure (fun () -> plan ctx w cluster) in
            check_decisions cluster p.decisions;
            check_reference refs i (Decision.fingerprint p.decisions) "decision fingerprint";
            if Option.is_none plans.(i) then plans.(i) <- Some p;
            if timed then begin
              ctx.timed_ops <- ctx.timed_ops + 1;
              best_s.(i) <- Float.min best_s.(i) dt;
              solve_words.(i) <- Float.min solve_words.(i) words
            end))
      inp.clusters
  in
  (pass, { plans; best_s; solve_words })

let event_kind = function
  | Es_scale.Delta.Join _ -> "join"
  | Es_scale.Delta.Leave _ -> "leave"
  | Es_scale.Delta.Rate_change _ -> "rate_change"

(* Mostly rate changes, with one join and one leave in every ten events; the
   device and the new rate are drawn from [rng]. *)
let delta_event rng k cluster =
  let nd = Cluster.n_devices cluster in
  let i = Es_util.Prng.int rng nd in
  let dev = cluster.Cluster.devices.(i) in
  match k mod 10 with
  | 4 -> Es_scale.Delta.Join { dev with Cluster.dev_id = nd }
  | 9 -> Es_scale.Delta.Leave i
  | _ ->
      Es_scale.Delta.Rate_change (i, dev.Cluster.rate *. Es_util.Prng.float_in rng 0.5 2.0)

type delta_result = {
  kinds : string array;
  delta_s : float array;  (** per event, the best timed apply *)
}

(* Delta states are values, so every pass replays the same events from the
   one initial state the warm-up pass solves; a pass costs only its
   [Delta.apply] calls. *)
let delta_phase ctx d sd inp =
  let kinds = Array.make d.events "" and delta_s = Array.make d.events infinity in
  let refs = Array.make d.events None in
  let start = ref None in
  let pass ~timed =
    let rng = Es_util.Prng.create sd.delta in
    if Option.is_none !start then
      op ctx "op/delta_init" (fun () ->
          let st = Es_scale.Delta.init ~config:scale_config inp.clusters.(0) in
          note_scale ctx (Es_scale.Delta.output st);
          start := Some st);
    Option.iter
      (fun st0 ->
        let st = ref st0 in
        for k = 0 to d.events - 1 do
          let ev = delta_event rng k (Es_scale.Delta.cluster !st) in
          kinds.(k) <- event_kind ev;
          op ctx ~attrs:[ ("event", J.String kinds.(k)) ] "op/delta" (fun () ->
              let st', dt, _ = measure (fun () -> Es_scale.Delta.apply !st ev) in
              st := st';
              let out = Es_scale.Delta.output st' in
              note_scale ctx out;
              check_decisions (Es_scale.Delta.cluster st') out.Es_scale.decisions;
              check_reference refs k (Decision.fingerprint out.Es_scale.decisions)
                "decision fingerprint";
              if timed then begin
                ctx.timed_ops <- ctx.timed_ops + 1;
                delta_s.(k) <- Float.min delta_s.(k) dt
              end)
        done)
      !start
  in
  (pass, { kinds; delta_s })

type served = {
  cluster : Cluster.t;
  decisions : Decision.t array;
  arrivals : (float * int) array;
}

type sim_result = {
  served : served array;
  reports : Es_sim.Metrics.report option array;  (** the warm-up's *)
  run_s : float array;  (** per run, the best timed one *)
  run_words : float array;  (** per run, the fewest minor words of a timed one *)
  events : int array;  (** engine events of one run *)
  max_pending : int array;
}

let check_conservation (r : Es_sim.Metrics.report) =
  let open Es_sim.Metrics in
  let accounted = r.total_completed + r.total_dropped + r.total_timed_out + r.total_shed in
  if r.total_generated <> accounted then
    raise
      (Check
         (Printf.sprintf
            "conservation: generated %d <> completed + dropped + timed out + shed %d"
            r.total_generated accounted))

let serve_phase ctx w d inp (solved : solve_result) =
  let options = sim_options w d in
  let served =
    Array.to_list inp.traces
    |> List.mapi (fun i arrivals ->
           Option.map
             (fun (p : plan) ->
               { cluster = inp.clusters.(i); decisions = p.decisions; arrivals })
             solved.plans.(i))
    |> List.filter_map Fun.id |> Array.of_list
  in
  let n = Array.length served in
  let reports = Array.make n None and refs = Array.make n None in
  let run_s = Array.make n infinity and run_words = Array.make n infinity in
  let events = Array.make n 0 and max_pending = Array.make n 0 in
  let pass ~timed =
    Array.iteri
      (fun i s ->
        op ctx "op/serve" (fun () ->
            let stats = ref None in
            let report, dt, words =
              measure (fun () ->
                  Es_sim.Runner.run ~options ~arrivals:s.arrivals
                    ~on_stats:(fun st -> stats := Some st)
                    s.cluster s.decisions)
            in
            check_conservation report;
            let fingerprint = J.to_string (Es_sim.Metrics.report_to_json report) in
            check_reference refs i fingerprint "report";
            if Option.is_none reports.(i) then reports.(i) <- Some report;
            Option.iter
              (fun (st : Es_sim.Engine.stats) ->
                events.(i) <- st.Es_sim.Engine.events_processed;
                max_pending.(i) <- st.Es_sim.Engine.max_pending)
              !stats;
            if timed then begin
              ctx.timed_ops <- ctx.timed_ops + 1;
              run_s.(i) <- Float.min run_s.(i) dt;
              run_words.(i) <- Float.min run_words.(i) words
            end))
      served
  in
  (pass, { served; reports; run_s; run_words; events; max_pending })

(* ------------------------------------------------------------------ *)
(* One measured run                                                    *)
(* ------------------------------------------------------------------ *)

type run = {
  workload : t;
  dims : dims;
  seconds : float;  (** the measured seconds the phases shared *)
  ctx : ctx;
  setup_s : float;
  inputs : inputs;
  solved : solve_result;
  delta : delta_result;
  sim : sim_result;
  passes : int array;  (** timed passes of the set-up, solve, delta and serve phases *)
  rss_mb : float;
      (** peak RSS once the set-ups and warm-ups are done: one pass through
          everything, as one `edgesim run` would go.  Later it drifts with
          the number of timed passes, which depends on the machine's speed. *)
}

(* The process's peak resident set (VmHWM), in MB; nan, which fails the run,
   where /proc/self/status has no VmHWM line. *)
let peak_rss_mb () =
  let scan ic =
    let rec go () =
      match In_channel.input_line ic with
      | None -> None
      | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf_opt l "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
      | Some _ -> go ()
    in
    go ()
  in
  match In_channel.with_open_text "/proc/self/status" scan with
  | Some mb -> mb
  | None | (exception Sys_error _) -> nan

let run ?tr ~size ~seconds (w : t) =
  let d = w.dims size in
  let sd = seeds d in
  let ctx = context tr in
  let t0 = wall () in
  let setup_pass, setup_times, inputs = setup_phase ctx w d sd in
  let setup_spent = wall () -. t0 in
  (* The serve phase simulates the solve phase's warm-up plans. *)
  let solve_pass, solved = solve_phase ctx w inputs in
  solve_pass ~timed:false;
  let delta_pass, delta = delta_phase ctx d sd inputs in
  delta_pass ~timed:false;
  let serve_pass, sim = serve_phase ctx w d inputs solved in
  serve_pass ~timed:false;
  let rss_mb = peak_rss_mb () in
  let setup_share, solve_share, delta_share, serve_share = w.shares in
  let phases =
    [
      phase ~spent:setup_spent ~passes:1 setup_share setup_pass;
      phase solve_share solve_pass;
      phase delta_share delta_pass;
      phase serve_share serve_pass;
    ]
  in
  interleave ctx ~seconds phases;
  let setup_s = Es_util.Stats.median (Array.of_list !setup_times) in
  let passes = Array.of_list (List.map (fun (p : phase) -> p.passes) phases) in
  { workload = w; dims = d; seconds; ctx; setup_s; inputs; solved; delta; sim; passes; rss_mb }

(* What each number is taken over, for the summary a run prints. *)
let samples r =
  Printf.sprintf
    "median of %d set-ups; best of %d timed passes over %d inputs (solve), %d over %d events \
     (delta), %d over %d runs (serve)"
    r.passes.(0) r.passes.(1) (Array.length r.inputs.clusters) r.passes.(2) r.dims.events
    r.passes.(3) (Array.length r.sim.served)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)
(* ------------------------------------------------------------------ *)

(* Names and units are BENCHMARK.json's; the values are computed here. *)

let finite xs = List.filter Float.is_finite xs
let median_of xs =
  match finite xs with [] -> nan | xs -> Es_util.Stats.median (Array.of_list xs)
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean_of xs = match finite xs with [] -> nan | xs -> sum xs /. float_of_int (List.length xs)

let reports r = Array.to_list r.sim.reports |> List.filter_map Fun.id

let requests r =
  List.fold_left
    (fun acc (rep : Es_sim.Metrics.report) -> acc + rep.Es_sim.Metrics.total_generated)
    0 (reports r)

let end_to_end r =
  let plans = Array.to_list r.solved.plans |> List.filter_map Fun.id in
  let reps = reports r in
  let generated = float_of_int (requests r) in
  let hits =
    List.fold_left
      (fun acc (rep : Es_sim.Metrics.report) ->
        Array.fold_left
          (fun acc (dv : Es_sim.Metrics.device_stats) -> acc + dv.Es_sim.Metrics.deadline_hits)
          acc rep.Es_sim.Metrics.per_device)
      0 reps
  in
  (* Pooled over every completed request.  The mean moves with any change
     in service; the streaming p95 is a sketch bucket bound, which a small
     shift stays inside. *)
  let completed =
    List.fold_left (fun acc rep -> acc + rep.Es_sim.Metrics.total_completed) 0 reps
  in
  let completed_latency_s =
    List.fold_left
      (fun acc (rep : Es_sim.Metrics.report) ->
        let n = rep.Es_sim.Metrics.total_completed in
        if n = 0 then acc else acc +. (rep.Es_sim.Metrics.mean_latency_s *. float_of_int n))
      0.0 reps
  in
  [
    ("setup_s", r.setup_s);
    ("solve_p50_s", median_of (Array.to_list r.solved.best_s));
    ("solve_minor_words", median_of (Array.to_list r.solved.solve_words));
    ("objective", mean_of (List.map (fun p -> Lazy.force p.objective) plans));
    ("delta_p50_s", median_of (Array.to_list r.delta.delta_s));
    ("sim_requests_per_s", generated /. sum (Array.to_list r.sim.run_s));
    ("sim_minor_words_per_request", sum (Array.to_list r.sim.run_words) /. generated);
    ("dsr", float_of_int hits /. generated);
    ("sim_mean_latency", completed_latency_s /. float_of_int completed);
    ("peak_rss_mb", r.rss_mb);
  ]
