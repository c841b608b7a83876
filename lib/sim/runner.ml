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
   0–2, the fallback-started flag in bit 3, the retry attempt count in the
   bits above.  Outcome 0 is "in flight"; [outcome_names] gives the root
   span's [outcome] attribute. *)
let o_completed, o_degraded, o_dropped, o_timed_out, o_shed = (1, 2, 3, 4, 5)

let outcome_names = [| ""; "completed"; "completed_degraded"; "dropped"; "timed_out"; "shed" |]

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
let check_decision ~ns i (d : Decision.t) =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let finite_nonneg what v =
    if not (Float.is_finite v) || v < 0.0 then
      bad "Runner.run: decision %d has %s = %g (must be finite and >= 0)" i what v
  in
  finite_nonneg "bandwidth_bps" d.Decision.bandwidth_bps;
  finite_nonneg "compute_share" d.Decision.compute_share;
  if Decision.offloads d then begin
    if d.Decision.server < 0 || d.Decision.server >= ns then
      bad "Runner.run: decision %d targets server %d (cluster has %d)" i d.Decision.server ns;
    if d.Decision.bandwidth_bps <= 0.0 then
      bad "Runner.run: decision %d offloads but grants no bandwidth" i;
    if Plan.srv_flops d.Decision.plan > 0.0 && d.Decision.compute_share <= 0.0 then
      bad "Runner.run: decision %d runs server work but grants no compute share" i
  end

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
  Array.iteri (check_decision ~ns) decisions;
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
  let arrival_rng = Es_util.Prng.create options.seed in
  let jitter_rng = Es_util.Prng.split arrival_rng in
  let fade_rng = Es_util.Prng.split arrival_rng in
  let scale_rng = Es_util.Prng.split arrival_rng in
  let current = Array.copy decisions in
  let capacity = options.queue_capacity in
  let stations =
    Array.init nd (fun i ->
        let d = current.(i) in
        let station name speed =
          (* unused stages (zero grants on device-only plans) get a
             placeholder speed; validation above guarantees every stage a
             request can actually reach has a real positive grant *)
          let speed = if speed > 0.0 then speed else 1.0 in
          Station.create engine ?capacity ~name ~speed ()
        in
        {
          cpu = station (Printf.sprintf "cpu%d" i) 1.0;
          up = station (Printf.sprintf "up%d" i) d.Decision.bandwidth_bps;
          srv = station (Printf.sprintf "srv%d" i) d.Decision.compute_share;
          down = station (Printf.sprintf "down%d" i) d.Decision.bandwidth_bps;
        })
  in
  let server_busy = Array.make ns 0.0 in
  let batchers =
    match options.batching with
    | None -> [||]
    | Some cfg ->
        Array.init ns (fun _ ->
            Batcher.create engine ~max_batch:cfg.max_batch ~window_s:cfg.window_s
              ~alpha:cfg.alpha ~speed:1.0 ())
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
  let protect_local =
    (* device-only reroute targets for open breakers and brownout swaps *)
    match (ov.Overload.breaker, ov.Overload.brownout) with
    | None, None -> [||]
    | _ -> Overload.local_decisions cluster
  in
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
  (* A station hop submitted at [since] ends now. *)
  let note_segment stage since =
    match tel with
    | None -> ()
    | Some t -> Es_obs.Histogram.observe t.segment.(stage) (Engine.now engine -. since)
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
  let apply_decisions ds =
    Array.iteri
      (fun i d ->
        current.(i) <- d;
        set_speeds i)
      ds;
    refresh_bucket_rates ()
  in
  let apply_fault = function
    | Faults.Server_down s ->
        if server_up.(s) then begin
          server_up.(s) <- false;
          Array.iteri
            (fun i st ->
              let d = current.(i) in
              if Decision.offloads d && d.Decision.server = s then ignore (Station.flush st.srv))
            stations
        end
    | Faults.Server_up s -> server_up.(s) <- true
    | Faults.Link_outage d ->
        if link_up.(d) then begin
          link_up.(d) <- false;
          ignore (Station.flush stations.(d).up);
          ignore (Station.flush stations.(d).down)
        end
    | Faults.Link_restored d -> link_up.(d) <- true
    | Faults.Link_degraded (d, f) ->
        link_factor.(d) <- f;
        set_speeds d
    | Faults.Straggler (s, f) ->
        server_factor.(s) <- f;
        Array.iteri
          (fun i (dec : Decision.t) ->
            if Decision.offloads dec && dec.Decision.server = s
               && dec.Decision.compute_share > 0.0
            then set_speeds i)
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
          Array.iteri (check_decision ~ns) ds;
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
                  let d = current.(i) in
                  if Decision.offloads d then
                    backlog.(d.Decision.server) <-
                      backlog.(d.Decision.server) + Station.queue_length st.srv)
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
  let tracing = Es_obs.Span.enabled tracer in
  (* Flat per-request state, indexed by request id: parallel growable
     arrays instead of a closure full of refs per request, so steady-state
     simulation allocates O(1) per request.  [req_span] is only grown (and
     only read) when tracing — the untraced hot path never touches it. *)
  let n_req = ref 0 in
  let req_state = ref [||] in
  let req_arrival = ref [||] in
  let req_scale = ref [||] in
  let req_dev = ref [||] in
  let req_dec : Decision.t array ref = ref [||] in
  let req_span = ref [||] in
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
      if tracing then grow req_span no_span
    end
  in
  let resolved rid = (!req_state).(rid) land 7 <> 0 in
  let fallback_started rid = (!req_state).(rid) land 8 <> 0 in
  let set_fallback rid = (!req_state).(rid) <- (!req_state).(rid) lor 8 in
  let attempts rid = (!req_state).(rid) lsr 4 in
  let incr_attempts rid = (!req_state).(rid) <- (!req_state).(rid) + 16 in
  (* Feed the server's breaker from this request's offload-path outcomes:
     a server-stage completion closes in success, a server-stage failure or
     a timeout in failure.  No-op without breakers or for device-only
     requests. *)
  let breaker_note rid ok =
    if Array.length breakers > 0 then begin
      let d = (!req_dec).(rid) in
      if Decision.offloads d then
        Overload.Breaker.record breakers.(d.Decision.server) ~now:(Engine.now engine) ~ok
    end
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
  let start_fallback rid =
    match fallback_work with
    | Some works when (not (resolved rid)) && not (fallback_started rid) ->
        set_fallback rid;
        let dev_id = (!req_dev).(rid) in
        let st = stations.(dev_id) in
        let work = works.(dev_id) *. (!req_scale).(rid) in
        if tracing then begin
          let sp = Es_obs.Span.start tracer ~parent:(!req_span).(rid) "fallback" in
          let submitted = Engine.now engine in
          let on_start =
            Some
              (fun () ->
                Es_obs.Span.set_attr sp "queue_s"
                  (Es_obs.Json.Float (Engine.now engine -. submitted)))
          in
          let ok =
            Station.submit st.cpu ?on_start ~work (fun () ->
                Es_obs.Span.finish tracer sp;
                resolve rid o_degraded s_device)
          in
          note_queue s_device dev_id st.cpu;
          if not ok then begin
            Es_obs.Span.finish tracer ~attrs:[ ("outcome", Es_obs.Json.String "dropped") ] sp;
            resolve rid o_dropped s_device
          end
        end
        else begin
          let ok = Station.submit st.cpu ~work (fun () -> resolve rid o_degraded s_device) in
          note_queue s_device dev_id st.cpu;
          if not ok then resolve rid o_dropped s_device
        end
    | _ -> ()
  in
  (* Failure of an attempt at [stage]: retry with exponential backoff from
     the failed phase, then fall back locally, then drop.  Without a
     resilience policy the request is simply dropped (pre-fault
     behavior).  [restart] is the phase to re-enter, keyed by request id. *)
  let fail rid stage (restart : int -> unit) =
    if not (resolved rid) then begin
      if stage = s_server then breaker_note rid false;
      match options.resilience with
      | None -> resolve rid o_dropped stage
      | Some r ->
          incr_attempts rid;
          if attempts rid <= r.max_retries then begin
            let backoff = r.backoff_base_s *. (2.0 ** float_of_int (attempts rid - 1)) in
            Engine.schedule engine backoff (fun () -> if not (resolved rid) then restart rid)
          end
          else if r.local_fallback then start_fallback rid
          else resolve rid o_dropped stage
    end
  in
  (* A traced station hop: the segment span opens at submission; queueing
     time (submission → service start) is recorded as an attribute so the
     span decomposes further without breaking the tiling. *)
  let submit rid stage station ~work ~restart k =
    if tracing then begin
      let sp = Es_obs.Span.start tracer ~parent:(!req_span).(rid) stage_names.(stage) in
      let submitted = Engine.now engine in
      let on_start =
        Some
          (fun () ->
            Es_obs.Span.set_attr sp "queue_s"
              (Es_obs.Json.Float (Engine.now engine -. submitted)))
      in
      let on_evict () =
        Es_obs.Span.finish tracer ~attrs:[ ("outcome", Es_obs.Json.String "evicted") ] sp;
        fail rid stage restart
      in
      let ok =
        Station.submit station ?on_start ~on_evict ~work (fun () ->
            note_segment stage submitted;
            Es_obs.Span.finish tracer sp;
            k ())
      in
      note_queue stage (!req_dev).(rid) station;
      if not ok then begin
        Es_obs.Span.finish tracer ~attrs:[ ("outcome", Es_obs.Json.String "dropped") ] sp;
        fail rid stage restart
      end
    end
    else begin
      let submitted = Engine.now engine in
      let on_evict () = fail rid stage restart in
      let ok =
        Station.submit station ~on_evict ~work (fun () ->
            note_segment stage submitted;
            k ())
      in
      note_queue stage (!req_dev).(rid) station;
      if not ok then fail rid stage restart
    end
  in
  (* Propagation legs get their own child spans so the segments still tile
     the request's full lifetime. *)
  let propagate rid stage delay k =
    if tracing then begin
      let sp = Es_obs.Span.start tracer ~parent:(!req_span).(rid) stage_names.(stage) in
      Engine.schedule engine delay (fun () ->
          (match tel with None -> () | Some t -> Es_obs.Histogram.observe t.segment.(stage) delay);
          Es_obs.Span.finish tracer sp;
          k ())
    end
    else
      Engine.schedule engine delay (fun () ->
          (match tel with None -> () | Some t -> Es_obs.Histogram.observe t.segment.(stage) delay);
          k ())
  in
  let rec attempt_device rid =
    let dev_id = (!req_dev).(rid) in
    let d = (!req_dec).(rid) in
    let dev = cluster.Cluster.devices.(dev_id) in
    let dev_work =
      Plan.device_time dev.Cluster.proc.Processor.perf d.Decision.plan *. (!req_scale).(rid)
    in
    submit rid s_device stations.(dev_id).cpu ~work:dev_work ~restart:attempt_device (fun () ->
        if not (Decision.offloads d) then resolve rid o_completed s_device else attempt_offload rid)
  and attempt_offload rid =
    let dev_id = (!req_dev).(rid) in
    let d = (!req_dec).(rid) in
    let dev = cluster.Cluster.devices.(dev_id) in
    let st = stations.(dev_id) in
    let plan = d.Decision.plan in
    if not link_up.(dev_id) then fail rid s_uplink attempt_offload
    else begin
      let link = dev.Cluster.link in
      let half_rtt = link.Link.rtt_s /. 2.0 in
      let up_bits = 8.0 *. Plan.transfer_bytes plan *. fade_factor link in
      submit rid s_uplink st.up ~work:up_bits ~restart:attempt_offload (fun () ->
          propagate rid s_uplink_prop half_rtt (fun () ->
              if not server_up.(d.Decision.server) then fail rid s_server attempt_offload
              else begin
                let srv = cluster.Cluster.servers.(d.Decision.server) in
                let work_s =
                  Plan.server_time srv.Cluster.sproc.Processor.perf plan *. (!req_scale).(rid)
                in
                let after_server () =
                  if not link_up.(dev_id) then fail rid s_downlink attempt_offload
                  else begin
                    let down_bits = 8.0 *. Plan.result_bytes plan *. fade_factor link in
                    submit rid s_downlink st.down ~work:down_bits ~restart:attempt_offload
                      (fun () ->
                        propagate rid s_downlink_prop half_rtt (fun () ->
                            resolve rid o_completed s_downlink_prop))
                  end
                in
                match options.batching with
                | Some _ ->
                    (* One batched accelerator per server; shares ignored.
                       The "server" segment span covers queue + batch wait +
                       service, measured around the batcher.  Batchers have
                       no eviction path: faults only gate admission here. *)
                    if tracing then begin
                      let sp = Es_obs.Span.start tracer ~parent:(!req_span).(rid) "server" in
                      let submitted = Engine.now engine in
                      Batcher.submit batchers.(d.Decision.server) ~work:work_s (fun () ->
                          note_segment s_server submitted;
                          Es_obs.Span.finish tracer sp;
                          after_server ())
                    end
                    else begin
                      let submitted = Engine.now engine in
                      Batcher.submit batchers.(d.Decision.server) ~work:work_s (fun () ->
                          note_segment s_server submitted;
                          after_server ())
                    end
                | None ->
                    let record_busy =
                      let share = Station.speed st.srv in
                      fun () ->
                        server_busy.(d.Decision.server) <-
                          server_busy.(d.Decision.server) +. (work_s /. Float.max share 1e-9)
                    in
                    submit rid s_server st.srv ~work:work_s ~restart:attempt_offload (fun () ->
                        record_busy ();
                        after_server ())
              end))
    end
  in
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
    let dev_work =
      Plan.device_time dev.Cluster.proc.Processor.perf d.Decision.plan *. scale
    in
    let f0 = Station.eta st.cpu ~work:dev_work in
    if not (Decision.offloads d) then f0
    else begin
      let link = dev.Cluster.link in
      let half_rtt = link.Link.rtt_s /. 2.0 in
      let plan = d.Decision.plan in
      let up_bits = 8.0 *. Plan.transfer_bytes plan in
      let down_bits = 8.0 *. Plan.result_bytes plan in
      let srv = cluster.Cluster.servers.(d.Decision.server) in
      let work_s = Plan.server_time srv.Cluster.sproc.Processor.perf plan *. scale in
      let f1 = Float.max f0 (Station.backlog_eta st.up) +. (up_bits /. Station.speed st.up) in
      let f2 = f1 +. half_rtt in
      let f3 =
        match options.batching with
        | Some _ -> f2 +. work_s
        | None -> Float.max f2 (Station.backlog_eta st.srv) +. (work_s /. Station.speed st.srv)
      in
      let f4 =
        Float.max f3 (Station.backlog_eta st.down) +. (down_bits /. Station.speed st.down)
      in
      f4 +. half_rtt
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
            | Some { Overload.mode = Overload.Local_only; _ } -> protect_local.(dev_id)
            | Some { Overload.mode = Overload.Min_server; _ } -> (
                match brownout_plan.(dev_id) with
                | Some p
                  when d.Decision.compute_share > 0.0 || Plan.srv_flops p <= 0.0 ->
                    { d with Decision.plan = p }
                | _ -> protect_local.(dev_id))
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
            | _ -> (protect_local.(dev_id), false)
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
    (!req_state).(rid) <- 0;
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
          Engine.schedule engine (r.timeout_factor *. dev.Cluster.deadline) (fun () ->
              if not (resolved rid || fallback_started rid) then
                if r.local_fallback then start_fallback rid else resolve rid o_timed_out s_device)
      | _ -> ());
      attempt_device rid
    end
  in
  (match arrivals with
  | Some trace ->
      Array.iter
        (fun (t, dev_id) ->
          if dev_id < 0 || dev_id >= nd || not (t >= 0.0) then
            invalid_arg
              (Printf.sprintf "Runner.run: bad trace entry (%g, device %d)" t dev_id);
          if t <= options.duration_s then
            Engine.schedule_at engine t (fun () -> process dev_id t))
        trace
  | None ->
      (* Per-device Poisson processes, generated event-recursively. *)
      let rngs = Array.init nd (fun _ -> Es_util.Prng.split arrival_rng) in
      let gap dev_id =
        Es_util.Prng.exponential rngs.(dev_id) cluster.Cluster.devices.(dev_id).Cluster.rate
      in
      let rec arrive dev_id t =
        if t <= options.duration_s then
          Engine.schedule_at engine t (fun () ->
              process dev_id t;
              arrive dev_id (t +. gap dev_id))
      in
      for dev_id = 0 to nd - 1 do
        arrive dev_id (gap dev_id)
      done);
  (* Arrivals stop at the horizon; the system then drains so every admitted
     request completes and horizon-edge requests are not unfairly counted as
     deadline misses. *)
  Engine.run engine;
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
