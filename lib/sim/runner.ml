open Es_edge
open Es_surgery

type batching = { max_batch : int; window_s : float; alpha : float }

type resilience = {
  timeout_factor : float;
  max_retries : int;
  backoff_base_s : float;
  local_fallback : bool;
}

let default_resilience =
  { timeout_factor = 3.0; max_retries = 1; backoff_base_s = 0.05; local_fallback = true }

type options = {
  duration_s : float;
  warmup_s : float;
  seed : int;
  fading : bool;
  compute_jitter : float;
  queue_capacity : int option;
  batching : batching option;
  faults : Faults.t;
  resilience : resilience option;
  streaming : bool;
  overload : Overload.policy;
}

let default_options =
  {
    duration_s = 60.0;
    warmup_s = 5.0;
    seed = 7;
    fading = false;
    compute_jitter = 0.0;
    queue_capacity = None;
    batching = None;
    faults = Faults.empty;
    resilience = None;
    streaming = false;
    overload = Overload.off;
  }

type dev_stations = {
  cpu : Station.t;
  up : Station.t;
  srv : Station.t;
  down : Station.t;
}

let stage_names = [| "device"; "uplink"; "uplink_prop"; "server"; "downlink"; "downlink_prop" |]

(* Stage indices into [stage_names]. *)
let s_device, s_uplink, s_uplink_prop, s_server, s_downlink, s_downlink_prop = (0, 1, 2, 3, 4, 5)

(* Per-request state is packed into one int per request: outcome in bits
   0–2, the fallback-started flag in bit 3, in bit 4 whether the request's
   decision offloads, the retry attempt count in the bits above.  Outcome 0 is "in flight"; [outcome_names] gives the root
   span's [outcome] attribute. *)
let o_completed, o_degraded, o_dropped, o_timed_out, o_shed = (1, 2, 3, 4, 5)

let outcome_names = [| ""; "completed"; "completed_degraded"; "dropped"; "timed_out"; "shed" |]

(* Data events ({!Engine.post}): the kind in the low [kind_bits] bits, its
   argument above.  Station and batcher events carry more bits from 32 up
   (a station's epoch, a batcher's window flag), so their argument is read
   below bit 32. *)
let kind_bits = 4
let kind_mask = (1 lsl kind_bits) - 1
let low32 = (1 lsl 32) - 1
let event kind arg = (arg lsl kind_bits) lor kind

(* Arguments: a trace index, a device, a station id, a server. *)
let k_arrival, k_poisson, k_station, k_batch = (0, 1, 2, 3)

(* Argument: a request id. *)
let k_uplink_prop, k_downlink_prop, k_retry_device, k_retry_offload, k_timeout = (4, 5, 6, 7, 8)

(* Station ids are [4 dev + slot], the slots in this stage order. *)
let slot_stages = [| s_device; s_uplink; s_server; s_downlink |]

(* The station a queueing stage submits to (not the propagation stages). *)
let station_at st stage =
  if stage = s_device then st.cpu
  else if stage = s_uplink then st.up
  else if stage = s_server then st.srv
  else st.down

(* Every telemetry handle a run writes, resolved once from [?metrics]; an
   uninstrumented run carries [None] and skips each site with one match.
   Handles live in arrays indexed by stage, device or server, so the
   per-event path does no lookups.  Overload handles are registered only
   when their mechanism is on, so unprotected registries are unchanged. *)
type telemetry = {
  generated : Es_obs.Metric.counter;
  completed : Es_obs.Metric.counter;
  degraded : Es_obs.Metric.counter;
  timed_out : Es_obs.Metric.counter;
  shed : Es_obs.Metric.counter;
  dropped : Es_obs.Metric.counter array;  (** by stage *)
  latency : Es_obs.Histogram.t;
  segment : Es_obs.Histogram.t array;  (** by stage *)
  queue_depth : Es_obs.Metric.gauge array array;
      (** by stage, then device; empty for the propagation stages *)
  breaker_state : Es_obs.Metric.gauge array;  (** by server *)
  brownout_active : Es_obs.Metric.gauge array;  (** by server *)
  brownout_switches : Es_obs.Metric.counter option;
}

let telemetry reg ~ns (ov : Overload.policy) stations =
  let counter = Es_obs.Metric.counter reg and gauge = Es_obs.Metric.gauge reg in
  let by_stage f = Array.map (fun s -> f ~labels:[ ("stage", s) ]) stage_names in
  let by_server on name =
    if on then Array.init ns (fun s -> gauge ~labels:[ ("server", string_of_int s) ] name)
    else [||]
  in
  {
    generated = counter "requests_generated";
    completed = counter "requests_completed";
    degraded = counter "requests_completed_degraded";
    timed_out = counter "requests_timed_out";
    shed = counter "requests_shed";
    dropped = by_stage (fun ~labels -> counter ~labels "requests_dropped");
    latency = Es_obs.Metric.histogram reg "request_latency_s";
    segment = by_stage (fun ~labels -> Es_obs.Metric.histogram reg ~labels "segment_s");
    queue_depth =
      Array.mapi
        (fun stage _ ->
          if stage = s_uplink_prop || stage = s_downlink_prop then [||]
          else
            Array.map
              (fun st ->
                gauge ~labels:[ ("station", Station.name (station_at st stage)) ] "queue_depth")
              stations)
        stage_names;
    breaker_state = by_server (Option.is_some ov.Overload.breaker) "overload/breaker_state";
    brownout_active = by_server (Option.is_some ov.Overload.brownout) "overload/brownout_active";
    brownout_switches =
      Option.map (fun _ -> counter "overload/brownout_switches") ov.Overload.brownout;
  }

(* Bad plans used to be masked by clamping speeds to a tiny positive value;
   now they fail loudly at the boundary.  A decision that leaves a stage
   unused (zero grant on a device-only plan) is fine — that station simply
   never sees a job. *)
let decision_error ~ns i (d : Decision.t) =
  let bad fmt = Printf.ksprintf Option.some fmt in
  let finite_nonneg v = Float.is_finite v && v >= 0.0 in
  let bw = d.Decision.bandwidth_bps and share = d.Decision.compute_share in
  if not (finite_nonneg bw) then
    bad "decision %d has bandwidth_bps = %g (must be finite and >= 0)" i bw
  else if not (finite_nonneg share) then
    bad "decision %d has compute_share = %g (must be finite and >= 0)" i share
  else if not (Decision.offloads d) then None
  else if d.Decision.server < 0 || d.Decision.server >= ns then
    bad "decision %d targets server %d (cluster has %d)" i d.Decision.server ns
  else if bw <= 0.0 then bad "decision %d offloads but grants no bandwidth" i
  else if Plan.srv_flops d.Decision.plan > 0.0 && share <= 0.0 then
    bad "decision %d runs server work but grants no compute share" i
  else None

let check_decisions cluster decisions =
  let ns = Cluster.n_servers cluster in
  let n = Array.length decisions in
  let rec go i =
    if i = n then Ok ()
    else match decision_error ~ns i decisions.(i) with Some e -> Error e | None -> go (i + 1)
  in
  if n <> Cluster.n_devices cluster then Error "decisions size mismatch" else go 0

let check_or_raise cluster decisions =
  match check_decisions cluster decisions with
  | Ok () -> ()
  | Error e -> invalid_arg ("Runner.run: " ^ e)

let check_resilience (r : resilience) =
  if not (Float.is_finite r.timeout_factor) || r.timeout_factor < 0.0 then
    invalid_arg "Runner.run: resilience timeout_factor must be finite and >= 0";
  if r.max_retries < 0 then invalid_arg "Runner.run: resilience max_retries must be >= 0";
  if not (Float.is_finite r.backoff_base_s) || r.backoff_base_s < 0.0 then
    invalid_arg "Runner.run: resilience backoff_base_s must be finite and >= 0"

(* A window that ends before the warm-up does would measure nothing and
   report garbage (NaN means, 0-request DSR). *)
let check_window (o : options) =
  if not (Float.is_finite o.duration_s && Float.is_finite o.warmup_s) then
    invalid_arg "Runner.run: duration_s and warmup_s must be finite";
  if o.warmup_s < 0.0 then invalid_arg "Runner.run: warmup_s must be >= 0";
  if o.duration_s <= o.warmup_s then
    invalid_arg
      (Printf.sprintf "Runner.run: duration_s (%g) must exceed warmup_s (%g)" o.duration_s
         o.warmup_s)

let run ?(options = default_options) ?metrics ?spans ?arrivals ?reconfigure
    ?(work_scale = fun ~device:_ _ -> 1.0) ?on_stats cluster decisions =
  let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
  if Array.length decisions <> nd then invalid_arg "Runner.run: decisions size mismatch";
  check_window options;
  check_or_raise cluster decisions;
  Option.iter check_resilience options.resilience;
  Overload.validate options.overload;
  (match Faults.validate ~n_devices:nd ~n_servers:ns options.faults with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner.run: bad fault schedule: " ^ msg));
  let engine = Engine.create () in
  let tracer =
    match spans with
    | None -> Es_obs.Span.null
    | Some sink -> Es_obs.Span.tracer ~sink ~clock:(fun () -> Engine.now engine) ()
  in
  let tracing = Es_obs.Span.enabled tracer in
  (* Hop submission times are kept for the segment histograms and spans. *)
  let timed = tracing || Option.is_some metrics in
  let arrival_rng = Es_util.Prng.create options.seed in
  let jitter_rng = Es_util.Prng.split arrival_rng in
  let fade_rng = Es_util.Prng.split arrival_rng in
  let scale_rng = Es_util.Prng.split arrival_rng in
  let current = Array.copy decisions in
  let jitter () =
    if options.compute_jitter <= 0.0 then 1.0
    else begin
      let sigma = options.compute_jitter in
      Es_util.Prng.lognormal jitter_rng ~mu:(-.sigma *. sigma /. 2.0) ~sigma
    end
  in
  let fade_factor link =
    if not options.fading then 1.0
    else begin
      let nominal = 1.0 in
      let eff = Link.effective_rate fade_rng link nominal in
      if eff <= 0.0 then 10.0 else nominal /. eff
    end
  in
  (* Flat per-request state, indexed by request id: parallel growable
     arrays hold everything a request's next event needs, so
     steady-state simulation allocates O(1) per request.  The optional
     arrays are only grown (and only read) when their feature is on. *)
  let n_req = ref 0 in
  let req_state = ref [||] in
  let req_arrival = ref [||] in
  let req_scale = ref [||] in
  let req_dev = ref [||] in
  let req_dec : Decision.t array ref = ref [||] in
  (* server-busy credit of the request's server job: work over the share
     at submission *)
  let req_busy = ref [||] in
  (* when timed: submission time of the request's current hop *)
  let req_sub = ref [||] in
  (* when tracing: the root span, the current hop's segment span, and the
     local fallback's span and submission time *)
  let req_span = ref [||] in
  let req_seg = ref [||] in
  let req_fb_span = ref [||] in
  let req_fb_sub = ref [||] in
  let no_span = Es_obs.Span.start Es_obs.Span.null "unused" in
  let initial_cap =
    let expected =
      match arrivals with
      | Some trace -> Array.length trace
      | None ->
          let rate_sum =
            Array.fold_left
              (fun acc (d : Cluster.device) -> acc +. d.Cluster.rate)
              0.0 cluster.Cluster.devices
          in
          int_of_float (1.5 *. rate_sum *. options.duration_s)
    in
    min (1 lsl 22) (max 64 expected)
  in
  (* [fill_dec] seeds the decision array on first growth (there is no
     synthesizable dummy [Decision.t]); afterwards existing slot 0 works. *)
  let ensure_cap fill_dec =
    let cap = Array.length !req_state in
    if !n_req >= cap then begin
      let ncap = if cap = 0 then initial_cap else 2 * cap in
      let grow a fill =
        let b = Array.make ncap fill in
        Array.blit !a 0 b 0 cap;
        a := b
      in
      grow req_state 0;
      grow req_arrival 0.0;
      grow req_scale 1.0;
      grow req_dev 0;
      grow req_dec fill_dec;
      grow req_busy 0.0;
      if timed then grow req_sub 0.0;
      if tracing then begin
        grow req_span no_span;
        grow req_seg no_span;
        grow req_fb_span no_span;
        grow req_fb_sub 0.0
      end
    end
  in
  (* A station job's tag is its request id, doubled, plus 1 for the local
     fallback: a request can wait on the CPU in both roles at once. *)
  let on_start =
    if not tracing then None
    else
      Some
        (fun tag ->
          let rid = tag lsr 1 in
          let span, since =
            if tag land 1 = 0 then ((!req_seg).(rid), (!req_sub).(rid))
            else ((!req_fb_span).(rid), (!req_fb_sub).(rid))
          in
          Es_obs.Span.set_attr span "queue_s" (Es_obs.Json.Float (Engine.now engine -. since)))
  in
  let capacity = options.queue_capacity in
  let stations =
    Array.init nd (fun i ->
        let d = current.(i) in
        let station slot name speed =
          (* unused stages (zero grants on device-only plans) get a
             placeholder speed; validation above guarantees every stage a
             request can actually reach has a real positive grant *)
          let speed = if speed > 0.0 then speed else 1.0 in
          Station.create engine ?capacity ?on_start ~name
            ~event:(event k_station ((4 * i) + slot))
            ~speed ()
        in
        {
          cpu = station 0 (Printf.sprintf "cpu%d" i) 1.0;
          up = station 1 (Printf.sprintf "up%d" i) d.Decision.bandwidth_bps;
          srv = station 2 (Printf.sprintf "srv%d" i) d.Decision.compute_share;
          down = station 3 (Printf.sprintf "down%d" i) d.Decision.bandwidth_bps;
        })
  in
  let server_busy = Array.make ns 0.0 in
  let batching = Option.is_some options.batching in
  let batchers =
    match options.batching with
    | None -> [||]
    | Some cfg ->
        Array.init ns (fun s ->
            Batcher.create engine ~max_batch:cfg.max_batch ~window_s:cfg.window_s
              ~alpha:cfg.alpha ~event:(event k_batch s) ~speed:1.0 ())
  in
  (* Live fault state.  All 1.0 / all-up when the schedule is empty, in
     which case every use below reduces to the fault-free arithmetic
     exactly ([x *. 1.0] and [x /. 1.0] are bit-identities). *)
  let server_up = Array.make ns true in
  let server_factor = Array.make ns 1.0 in
  let link_up = Array.make nd true in
  let link_factor = Array.make nd 1.0 in
  (* Overload-protection state.  With [options.overload = Overload.off]
     (the default) every array below is empty or untouched, every gate in
     [process] short-circuits on [overload_on], and the run is
     bit-identical to a build without overload protection — no extra
     events, no extra RNG draws. *)
  let ov = options.overload in
  let overload_on = not (Overload.is_off ov) in
  (* Device-only reroute targets for open breakers and brownout swaps,
     worked out when the first one is needed: a policy that never fires
     never pays for them. *)
  let protect_local = lazy (Overload.local_decisions cluster) in
  let local_decision dev_id = (Lazy.force protect_local).(dev_id) in
  let brownout_plan =
    match ov.Overload.brownout with
    | Some { Overload.mode = Overload.Min_server; _ } ->
        Array.map Overload.min_server_plan cluster.Cluster.devices
    | _ -> [||]
  in
  let brownout_active = Array.make ns false in
  let collector =
    Metrics.create_collector ~streaming:options.streaming ~n_devices:nd
      ~window_start:options.warmup_s ~window_end:options.duration_s ()
  in
  let tel = Option.map (fun reg -> telemetry reg ~ns ov stations) metrics in
  (* Live counters count in the collector's window, so they, the end-of-run
     report and the JSONL export all agree. *)
  let in_window t = t >= options.warmup_s && t <= options.duration_s in
  let note_queue stage dev station =
    match tel with
    | None -> ()
    | Some t ->
        Es_obs.Metric.set t.queue_depth.(stage).(dev) (float_of_int (Station.queue_length station))
  in
  (* Request [rid]'s hop at [stage], submitted at [req_sub], ends now. *)
  let note_segment stage rid =
    match tel with
    | None -> ()
    | Some t ->
        Es_obs.Histogram.observe t.segment.(stage) (Engine.now engine -. (!req_sub).(rid))
  in
  (* Per-server circuit breakers; a transition sets the server's
     breaker_state gauge (Closed 0 / Half_open 1 / Open 2). *)
  let breakers =
    match ov.Overload.breaker with
    | None -> [||]
    | Some cfg ->
        Array.init ns (fun s ->
            let gauge t st =
              Es_obs.Metric.set t.breaker_state.(s) (float_of_int (Overload.Breaker.state_code st))
            in
            Overload.Breaker.create ?on_transition:(Option.map gauge tel) cfg)
  in
  (* Per-server token buckets.  A configured rate of 0 derives the refill
     rate from the server's aggregate granted service capacity
     (Σ share / service-time over its offloaders), re-derived on every
     reconfiguration and straggler fault — the utilization-aware mode. *)
  let buckets =
    match ov.Overload.rate_limit with
    | None -> [||]
    | Some rl ->
        Array.init ns (fun _ ->
            Es_alloc.Admission.Token_bucket.create ~rate:rl.Overload.rate_per_server
              ~burst:rl.Overload.burst ())
  in
  let refresh_bucket_rates () =
    match ov.Overload.rate_limit with
    | Some rl when rl.Overload.rate_per_server <= 0.0 ->
        let now = Engine.now engine in
        let cap = Array.make ns 0.0 in
        Array.iter
          (fun (d : Decision.t) ->
            if Decision.offloads d && d.Decision.compute_share > 0.0 then begin
              let srv = cluster.Cluster.servers.(d.Decision.server) in
              let w = Plan.server_time srv.Cluster.sproc.Processor.perf d.Decision.plan in
              if w > 0.0 then
                cap.(d.Decision.server) <-
                  cap.(d.Decision.server)
                  +. d.Decision.compute_share /. (w *. server_factor.(d.Decision.server))
            end)
          current;
        Array.iteri (fun s b -> Es_alloc.Admission.Token_bucket.set_rate b ~now cap.(s)) buckets
    | _ -> ()
  in
  refresh_bucket_rates ();
  let note_brownout s active =
    brownout_active.(s) <- active;
    match tel with
    | None -> ()
    | Some t ->
        Option.iter Es_obs.Metric.inc t.brownout_switches;
        Es_obs.Metric.set t.brownout_active.(s) (if active then 1.0 else 0.0)
  in
  (* The one station-speed rule: transfers run at the granted bandwidth
     times the link's degradation factor, server work at the granted share
     over the server's straggler factor.  A zero grant means the plan no
     longer uses the stage; its old speed stays so in-flight jobs drain
     instead of stalling. *)
  let set_speeds i =
    let d = current.(i) and st = stations.(i) in
    if d.Decision.bandwidth_bps > 0.0 then begin
      let bw = d.Decision.bandwidth_bps *. link_factor.(i) in
      Station.set_speed st.up bw;
      Station.set_speed st.down bw
    end;
    if d.Decision.compute_share > 0.0 then
      Station.set_speed st.srv (d.Decision.compute_share /. server_factor.(d.Decision.server))
  in
  (* The server each device's current decision offloads to, -1 for a
     device-only one: the fault and brownout sweeps read this array
     instead of every decision's plan. *)
  let offload_server d = if Decision.offloads d then d.Decision.server else -1 in
  let current_server = Array.map offload_server current in
  let apply_decisions ds =
    Array.iteri
      (fun i d ->
        current.(i) <- d;
        current_server.(i) <- offload_server d;
        set_speeds i)
      ds;
    refresh_bucket_rates ()
  in
  (* Plan costs per device, for the decision they were computed from
     (physical identity): a device's requests mostly share one decision,
     so each cost is worked out once per decision, not once per hop.
     [cost.(4 dev + slot)] is the cost of the hop at that station slot:
     device time, uplink bytes, server time, downlink bytes (the last
     three for offloading decisions only). *)
  let cost_dec = Array.copy current in
  let cost = Array.make (4 * nd) 0.0 in
  let fill_costs dev (d : Decision.t) =
    cost_dec.(dev) <- d;
    let plan = d.Decision.plan in
    cost.(4 * dev) <- Plan.device_time cluster.Cluster.devices.(dev).Cluster.proc.Processor.perf plan;
    if Decision.offloads d then begin
      let srv = cluster.Cluster.servers.(d.Decision.server) in
      cost.((4 * dev) + 1) <- Plan.transfer_bytes plan;
      cost.((4 * dev) + 2) <- Plan.server_time srv.Cluster.sproc.Processor.perf plan;
      cost.((4 * dev) + 3) <- Plan.result_bytes plan
    end
  in
  Array.iteri fill_costs current;
  let costs dev d = if cost_dec.(dev) != d then fill_costs dev d in
  let resolved rid = (!req_state).(rid) land 7 <> 0 in
  let fallback_started rid = (!req_state).(rid) land 8 <> 0 in
  let set_fallback rid = (!req_state).(rid) <- (!req_state).(rid) lor 8 in
  let offloads rid = (!req_state).(rid) land 16 <> 0 in
  let attempts rid = (!req_state).(rid) lsr 5 in
  let incr_attempts rid = (!req_state).(rid) <- (!req_state).(rid) + 32 in
  (* Feed the server's breaker from this request's offload-path outcomes:
     a server-stage completion closes in success, a server-stage failure or
     a timeout in failure.  No-op without breakers or for device-only
     requests. *)
  let breaker_note rid ok =
    if Array.length breakers > 0 && offloads rid then
      Overload.Breaker.record
        breakers.((!req_dec).(rid).Decision.server)
        ~now:(Engine.now engine) ~ok
  in
  (* The one request exit, and the only writer of the outcome bits.  Under
     resilience a request can have several racing continuations (a retry,
     the fallback, a late original completion); the first to get here
     decides the outcome [o], and only it feeds the breaker, counts, and
     finishes the root span.  [stage] is where a drop happened; the other
     outcomes ignore it.  A shed is overload protection refusing the
     request at arrival, before it entered any queue. *)
  let resolve rid o stage =
    if not (resolved rid) then begin
      if o = o_completed || o = o_timed_out then breaker_note rid (o = o_completed);
      (!req_state).(rid) <- (!req_state).(rid) lor o;
      let now = Engine.now engine in
      let arrival = (!req_arrival).(rid) and device = (!req_dev).(rid) in
      let completed = o = o_completed || o = o_degraded in
      (match tel with
      | None -> ()
      | Some t ->
          (* drops and sheds count at resolution, the rest at arrival *)
          if in_window (if o = o_dropped || o = o_shed then now else arrival) then
            if completed then begin
              Es_obs.Metric.inc t.completed;
              if o = o_degraded then Es_obs.Metric.inc t.degraded;
              Es_obs.Histogram.observe t.latency (now -. arrival)
            end
            else if o = o_dropped then Es_obs.Metric.inc t.dropped.(stage)
            else Es_obs.Metric.inc (if o = o_timed_out then t.timed_out else t.shed));
      if tracing then begin
        let detail =
          if completed then [ ("latency_s", Es_obs.Json.Float (now -. arrival)) ]
          else if o = o_dropped then [ ("stage", Es_obs.Json.String stage_names.(stage)) ]
          else []
        in
        Es_obs.Span.finish tracer
          ~attrs:(("outcome", Es_obs.Json.String outcome_names.(o)) :: detail)
          (!req_span).(rid)
      end;
      if completed then
        Metrics.on_completion collector
          ?degraded:(if o = o_degraded then Some true else None)
          ~device ~arrival ~now ~deadline:cluster.Cluster.devices.(device).Cluster.deadline ()
      else if o = o_dropped then Metrics.on_drop collector ~device ~now
      else if o = o_timed_out then Metrics.on_timeout collector ~device ~arrival
      else Metrics.on_shed collector ~device ~now
    end
  in
  (* Local-fallback work per device; accuracy floors are waived, as a
     degraded answer beats a lost request. *)
  let fallback_work =
    match options.resilience with
    | Some r when r.local_fallback ->
        let work (dev : Cluster.device) =
          Plan.device_time dev.Cluster.proc.Processor.perf (Overload.fastest_local dev)
        in
        Some (Array.map work cluster.Cluster.devices)
    | _ -> None
  in
  let start_fallback rid =
    match fallback_work with
    | Some works when (not (resolved rid)) && not (fallback_started rid) ->
        set_fallback rid;
        let dev_id = (!req_dev).(rid) in
        let cpu = stations.(dev_id).cpu in
        let work = works.(dev_id) *. (!req_scale).(rid) in
        if tracing then begin
          (!req_fb_span).(rid) <- Es_obs.Span.start tracer ~parent:(!req_span).(rid) "fallback";
          (!req_fb_sub).(rid) <- Engine.now engine
        end;
        let ok = Station.submit cpu ~tag:((2 * rid) + 1) ~work in
        note_queue s_device dev_id cpu;
        if not ok then begin
          if tracing then
            Es_obs.Span.finish tracer
              ~attrs:[ ("outcome", Es_obs.Json.String "dropped") ]
              (!req_fb_span).(rid);
          resolve rid o_dropped s_device
        end
    | _ -> ()
  in
  (* Failure of an attempt at [stage]: retry with exponential backoff from
     the failed phase (the device stage, else the uplink), then fall back
     locally, then drop.  Without a resilience policy the request is
     simply dropped (pre-fault behavior). *)
  let fail rid stage =
    if not (resolved rid) then begin
      if stage = s_server then breaker_note rid false;
      match options.resilience with
      | None -> resolve rid o_dropped stage
      | Some r ->
          incr_attempts rid;
          if attempts rid <= r.max_retries then begin
            let backoff = r.backoff_base_s *. (2.0 ** float_of_int (attempts rid - 1)) in
            Engine.post engine backoff
              (event (if stage = s_device then k_retry_device else k_retry_offload) rid)
          end
          else if r.local_fallback then start_fallback rid
          else resolve rid o_dropped stage
    end
  in
  (* A hop opens: traced, its segment span starts; timed, its submission
     time is kept. *)
  let open_hop rid stage =
    if tracing then
      (!req_seg).(rid) <- Es_obs.Span.start tracer ~parent:(!req_span).(rid) stage_names.(stage);
    if timed then (!req_sub).(rid) <- Engine.now engine
  in
  (* A station hop.  Queueing time (submission → service start, see
     [on_start]) is recorded as a span attribute so the span decomposes
     further without breaking the tiling. *)
  let submit rid stage station ~work =
    open_hop rid stage;
    let ok = Station.submit station ~tag:(2 * rid) ~work in
    note_queue stage (!req_dev).(rid) station;
    if not ok then begin
      if tracing then
        Es_obs.Span.finish tracer ~attrs:[ ("outcome", Es_obs.Json.String "dropped") ] (!req_seg).(rid);
      fail rid stage
    end
  in
  (* Jobs a fault threw out of a [stage] station fail, in eviction order.
     The local fallback's CPU jobs are never evicted (no fault flushes a
     CPU). *)
  let evict stage tags =
    Array.iter
      (fun tag ->
        if tag land 1 = 0 then begin
          let rid = tag lsr 1 in
          if tracing then
            Es_obs.Span.finish tracer
              ~attrs:[ ("outcome", Es_obs.Json.String "evicted") ]
              (!req_seg).(rid);
          fail rid stage
        end)
      tags
  in
  let half_rtt rid = cluster.Cluster.devices.((!req_dev).(rid)).Cluster.link.Link.rtt_s /. 2.0 in
  (* Propagation legs get their own child spans so the segments still tile
     the request's full lifetime. *)
  let propagate rid stage =
    open_hop rid stage;
    Engine.post engine (half_rtt rid)
      (event (if stage = s_uplink_prop then k_uplink_prop else k_downlink_prop) rid)
  in
  let attempt_device rid =
    let dev_id = (!req_dev).(rid) in
    costs dev_id (!req_dec).(rid);
    submit rid s_device stations.(dev_id).cpu ~work:(cost.(4 * dev_id) *. (!req_scale).(rid))
  in
  (* The uplink or downlink hop; it fails at once while the link is out. *)
  let transfer rid stage =
    let dev_id = (!req_dev).(rid) in
    if not link_up.(dev_id) then fail rid stage
    else begin
      costs dev_id (!req_dec).(rid);
      let st = stations.(dev_id) and up = stage = s_uplink in
      let link = cluster.Cluster.devices.(dev_id).Cluster.link in
      let bits = 8.0 *. cost.((4 * dev_id) + if up then 1 else 3) *. fade_factor link in
      submit rid stage (if up then st.up else st.down) ~work:bits
    end
  in
  let server_phase rid =
    let dev_id = (!req_dev).(rid) and d = (!req_dec).(rid) in
    if not server_up.(d.Decision.server) then fail rid s_server
    else begin
      costs dev_id d;
      let work_s = cost.((4 * dev_id) + 2) *. (!req_scale).(rid) in
      match options.batching with
      | Some _ ->
          (* One batched accelerator per server; shares ignored.  The
             "server" segment span covers queue + batch wait + service,
             measured around the batcher.  Batchers have no eviction path:
             faults only gate admission here. *)
          open_hop rid s_server;
          Batcher.submit batchers.(d.Decision.server) ~tag:rid ~work:work_s
      | None ->
          (* Busy time is credited at the share the job was submitted
             under. *)
          let st = stations.(dev_id) in
          (!req_busy).(rid) <- work_s /. Float.max (Station.speed st.srv) 1e-9;
          submit rid s_server st.srv ~work:work_s
    end
  in
  (* A hop's job at [stage] finished: the segment ends, the request moves
     on. *)
  let hop_done rid stage =
    note_segment stage rid;
    if tracing then Es_obs.Span.finish tracer (!req_seg).(rid);
    if stage = s_device then begin
      if offloads rid then transfer rid s_uplink
      else resolve rid o_completed s_device
    end
    else if stage = s_uplink then propagate rid s_uplink_prop
    else if stage = s_server then begin
      if not batching then begin
        let s = (!req_dec).(rid).Decision.server in
        server_busy.(s) <- server_busy.(s) +. (!req_busy).(rid)
      end;
      transfer rid s_downlink
    end
    else propagate rid s_downlink_prop
  in
  let propagated rid stage =
    (match tel with
    | None -> ()
    | Some t -> Es_obs.Histogram.observe t.segment.(stage) (half_rtt rid));
    if tracing then Es_obs.Span.finish tracer (!req_seg).(rid);
    if stage = s_uplink_prop then server_phase rid else resolve rid o_completed s_downlink_prop
  in
  let apply_fault = function
    | Faults.Server_down s ->
        if server_up.(s) then begin
          server_up.(s) <- false;
          Array.iteri
            (fun i st -> if current_server.(i) = s then evict s_server (Station.flush st.srv))
            stations
        end
    | Faults.Server_up s -> server_up.(s) <- true
    | Faults.Link_outage d ->
        if link_up.(d) then begin
          link_up.(d) <- false;
          evict s_uplink (Station.flush stations.(d).up);
          evict s_downlink (Station.flush stations.(d).down)
        end
    | Faults.Link_restored d -> link_up.(d) <- true
    | Faults.Link_degraded (d, f) ->
        link_factor.(d) <- f;
        set_speeds d
    | Faults.Straggler (s, f) ->
        server_factor.(s) <- f;
        Array.iteri
          (fun i (dec : Decision.t) ->
            if current_server.(i) = s && dec.Decision.compute_share > 0.0 then set_speeds i)
          current;
        refresh_bucket_rates ()
  in
  (* Fault events are scheduled before reconfigurations and arrivals, so at
     an equal timestamp the fault applies first — a recovery schedule firing
     at crash time sees the crashed state. *)
  List.iter
    (fun (t, ev) ->
      if t <= options.duration_s then Engine.schedule_at engine t (fun () -> apply_fault ev))
    (Faults.events options.faults);
  (match reconfigure with
  | None -> ()
  | Some changes ->
      List.iter
        (fun (t, ds) ->
          if Array.length ds <> nd then invalid_arg "Runner.run: reconfigure size mismatch";
          check_or_raise cluster ds;
          Engine.schedule_at engine t (fun () -> apply_decisions ds))
        changes);
  (* Brownout watermark controller: a periodic sweep (simulated time) of
     per-server backlog with hysteresis — engage at the high watermark,
     release at the low one.  Scheduled only when brownout is configured,
     so the default event stream is untouched. *)
  (match ov.Overload.brownout with
  | None -> ()
  | Some b ->
      let backlog = Array.make ns 0 in
      let rec tick t =
        if t <= options.duration_s then
          Engine.schedule_at engine t (fun () ->
              Array.fill backlog 0 ns 0;
              Array.iteri
                (fun i st ->
                  let s = current_server.(i) in
                  if s >= 0 then backlog.(s) <- backlog.(s) + Station.queue_length st.srv)
                stations;
              for s = 0 to ns - 1 do
                if (not brownout_active.(s)) && backlog.(s) >= b.Overload.high_watermark
                then note_brownout s true
                else if brownout_active.(s) && backlog.(s) <= b.Overload.low_watermark
                then note_brownout s false
              done;
              tick (t +. b.Overload.check_every_s))
      in
      tick b.Overload.check_every_s);
  (* A lower bound on this request's completion delay given the current
     per-station backlog: stage k's finish is max(own pipeline, stage k's
     backlog clearing) plus its service time.  Stations are dedicated per
     device and FIFO, so the bound is tight when one stage dominates; it
     ignores wireless fading (no RNG draws) and, under batching, the
     shared batcher's queue (only the service time is charged).  A request
     shed on this estimate provably cannot meet its budget. *)
  let estimate_completion dev_id (d : Decision.t) scale =
    let dev = cluster.Cluster.devices.(dev_id) in
    let st = stations.(dev_id) in
    costs dev_id d;
    let f0 = Station.eta_after st.cpu ~after:0.0 ~work:(cost.(4 * dev_id) *. scale) in
    if not (Decision.offloads d) then f0
    else begin
      let prop = dev.Cluster.link.Link.rtt_s /. 2.0 in
      let f1 = Station.eta_after st.up ~after:f0 ~work:(8.0 *. cost.((4 * dev_id) + 1)) in
      let work_s = cost.((4 * dev_id) + 2) *. scale in
      let f3 =
        if batching then f1 +. prop +. work_s
        else Station.eta_after st.srv ~after:(f1 +. prop) ~work:work_s
      in
      Station.eta_after st.down ~after:f3 ~work:(8.0 *. cost.((4 * dev_id) + 3)) +. prop
    end
  in
  (* The latency budget admission sheds against: the request's effective
     give-up point — timeout_factor × deadline when a timeout is armed, the
     bare deadline otherwise. *)
  let budget_factor =
    match options.resilience with
    | Some r when r.timeout_factor > 0.0 -> r.timeout_factor
    | _ -> 1.0
  in
  let process dev_id arrival =
    let d = current.(dev_id) in
    let dev = cluster.Cluster.devices.(dev_id) in
    let scale = work_scale ~device:dev_id scale_rng *. jitter () in
    (* Overload gates, in order: brownout plan swap, breaker, deadline-aware
       admission, rate limit.  All skipped (one branch) when the policy is
       off. *)
    let d, shed_now =
      if not overload_on then (d, false)
      else begin
        let d =
          if Decision.offloads d && brownout_active.(d.Decision.server) then begin
            match ov.Overload.brownout with
            | Some { Overload.mode = Overload.Local_only; _ } -> local_decision dev_id
            | Some { Overload.mode = Overload.Min_server; _ } -> (
                match brownout_plan.(dev_id) with
                | Some p
                  when d.Decision.compute_share > 0.0 || Plan.srv_flops p <= 0.0 ->
                    { d with Decision.plan = p }
                | _ -> local_decision dev_id)
            | None -> d
          end
          else d
        in
        let d, shed_now =
          if
            Decision.offloads d
            && Array.length breakers > 0
            && not (Overload.Breaker.allow breakers.(d.Decision.server) ~now:arrival)
          then begin
            match ov.Overload.breaker with
            | Some { Overload.shed_on_open = true; _ } -> (d, true)
            | _ -> (local_decision dev_id, false)
          end
          else (d, false)
        in
        let shed_now =
          shed_now
          ||
          match ov.Overload.admission with
          | Some a ->
              estimate_completion dev_id d scale
              > a.Overload.slack *. budget_factor *. dev.Cluster.deadline
          | None -> false
        in
        let shed_now =
          shed_now
          || Decision.offloads d
             && Array.length buckets > 0
             && not
                  (Es_alloc.Admission.Token_bucket.try_take
                     buckets.(d.Decision.server)
                     ~now:arrival)
        in
        (d, shed_now)
      end
    in
    let rid = !n_req in
    ensure_cap d;
    incr n_req;
    (!req_state).(rid) <- (if Decision.offloads d then 16 else 0);
    (!req_arrival).(rid) <- arrival;
    (!req_scale).(rid) <- scale;
    (!req_dev).(rid) <- dev_id;
    (!req_dec).(rid) <- d;
    (* One trace per request: a root "request" span whose child segments
       tile [arrival, completion] exactly — each stage is submitted
       synchronously at the previous stage's completion, so segment
       durations sum to the end-to-end latency. *)
    if tracing then
      (!req_span).(rid) <-
        Es_obs.Span.start tracer
          ~attrs:
            [
              ("device", Es_obs.Json.Int dev_id);
              ("server", Es_obs.Json.Int d.Decision.server);
            ]
          "request";
    (match tel with
    | Some t when in_window arrival -> Es_obs.Metric.inc t.generated
    | _ -> ());
    Metrics.on_arrival collector ~device:dev_id ~now:arrival;
    if shed_now then resolve rid o_shed s_device
    else begin
      (match options.resilience with
      | Some r when r.timeout_factor > 0.0 ->
          Engine.post engine (r.timeout_factor *. dev.Cluster.deadline) (event k_timeout rid)
      | _ -> ());
      attempt_device rid
    end
  in
  let timeout rid =
    match options.resilience with
    | Some r when not (resolved rid || fallback_started rid) ->
        if r.local_fallback then start_fallback rid else resolve rid o_timed_out s_device
    | _ -> ()
  in
  let trace = Option.value arrivals ~default:[||] in
  (* Per-device Poisson arrivals when no trace is given, each arrival
     posting the device's next. *)
  let rngs =
    match arrivals with
    | Some _ -> [||]
    | None -> Array.init nd (fun _ -> Es_util.Prng.split arrival_rng)
  in
  let arrive dev_id t =
    if t <= options.duration_s then Engine.post_at engine t (event k_poisson dev_id)
  in
  let gap dev_id =
    Es_util.Prng.exponential rngs.(dev_id) cluster.Cluster.devices.(dev_id).Cluster.rate
  in
  let station_done e =
    let sid = (e land low32) lsr kind_bits in
    let dev_st = stations.(sid lsr 2) in
    let st =
      match sid land 3 with 0 -> dev_st.cpu | 1 -> dev_st.up | 2 -> dev_st.srv | _ -> dev_st.down
    in
    let tag = Station.finish st e in
    if tag >= 0 then begin
      let rid = tag lsr 1 in
      if tag land 1 = 0 then hop_done rid slot_stages.(sid land 3)
      else begin
        if tracing then Es_obs.Span.finish tracer (!req_fb_span).(rid);
        resolve rid o_degraded s_device
      end;
      Station.start_next st
    end
  in
  let batch_event s e =
    let b = batchers.(s) in
    let k = Batcher.fire b e in
    if k > 0 then begin
      for i = 0 to k - 1 do
        hop_done (Batcher.finished b i) s_server
      done;
      Batcher.resume b
    end
  in
  (* The one dispatch: every per-request event of the run comes through
     here (fault, reconfiguration and brownout entries stay closures). *)
  let handle e =
    let arg = e lsr kind_bits in
    match e land kind_mask with
    | 0 (* k_arrival *) ->
        let t, dev_id = trace.(arg) in
        process dev_id t
    | 1 (* k_poisson *) ->
        let t = Engine.now engine in
        process arg t;
        arrive arg (t +. gap arg)
    | 2 (* k_station *) -> station_done e
    | 3 (* k_batch *) -> batch_event ((e land low32) lsr kind_bits) e
    | 4 (* k_uplink_prop *) -> propagated arg s_uplink_prop
    | 5 (* k_downlink_prop *) -> propagated arg s_downlink_prop
    | 6 (* k_retry_device *) -> if not (resolved arg) then attempt_device arg
    | 7 (* k_retry_offload *) -> if not (resolved arg) then transfer arg s_uplink
    | _ (* k_timeout *) -> timeout arg
  in
  (match arrivals with
  | Some _ ->
      Array.iteri
        (fun i (t, dev_id) ->
          if dev_id < 0 || dev_id >= nd || not (t >= 0.0) then
            invalid_arg
              (Printf.sprintf "Runner.run: bad trace entry (%g, device %d)" t dev_id);
          if t <= options.duration_s then Engine.post_at engine t (event k_arrival i))
        trace
  | None ->
      for dev_id = 0 to nd - 1 do
        arrive dev_id (gap dev_id)
      done);
  (* Arrivals stop at the horizon; the system then drains so every admitted
     request completes and horizon-edge requests are not unfairly counted as
     deadline misses. *)
  Engine.run ~handle engine;
  (match options.batching with
  | None -> ()
  | Some _ ->
      Array.iteri (fun s b -> server_busy.(s) <- Batcher.busy_time b) batchers);
  let report = Metrics.finalize collector ~server_busy ~duration:options.duration_s in
  let estats = Engine.stats engine in
  Option.iter
    (fun reg ->
      Metrics.record_to reg report;
      let set name v = Es_obs.Metric.set (Es_obs.Metric.gauge reg name) v in
      set "engine/events_processed" (float_of_int estats.Engine.events_processed);
      set "engine/max_pending" (float_of_int estats.Engine.max_pending))
    metrics;
  Option.iter (fun f -> f estats) on_stats;
  report
