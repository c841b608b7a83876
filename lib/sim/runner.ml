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

type dev_stations = { cpu : Station.t; up : Station.t; srv : Station.t; down : Station.t }

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

(* Station ids are [4 dev + slot], the slots in this stage order; device
   [i]'s station at slot [k] is named [slot_names.(k) ^ string_of_int i]. *)
let slot_stages = [| s_device; s_uplink; s_server; s_downlink |]
let slot_names = [| "cpu"; "up"; "srv"; "down" |]
let station_name slot i = Printf.sprintf "%s%d" slot_names.(slot) i

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

let telemetry reg ~nd ~ns (ov : Overload.policy) =
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
          match Array.find_index (Int.equal stage) slot_stages with
          | None -> [||]
          | Some slot ->
              Array.init nd (fun i ->
                  gauge ~labels:[ ("station", station_name slot i) ] "queue_depth"))
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

(* The run's state, read by the toplevel handlers below.  Request state lives
   in arrays indexed by request slot, replaced as they grow (the optional ones
   only when their feature is on).  A slot is taken at arrival and freed once
   its request is resolved and [req_pins] (the queued events and station or
   batcher jobs carrying it) is 0, so the arrays follow the requests in
   flight, not the trace.  Floats cross module boundaries in cells, since a
   float argument or result would be boxed there: the engine's [clock] and
   [at], and the run's own [work], [eta] and [outcome]. *)
type state = {
  o : options;
  cluster : Cluster.t;
  engine : Engine.t;
  clock : float array;
  at : float array;
  tracer : Es_obs.Span.tracer;
  tracing : bool;
  timed : bool;  (* hop submission times are kept for histograms and spans *)
  tel : telemetry option;
  collector : Metrics.collector;
  work_scale : device:int -> Es_util.Prng.t -> float;
  jitter_rng : Es_util.Prng.t;
  fade_rng : Es_util.Prng.t;
  scale_rng : Es_util.Prng.t;
  mutable n_slots : int;
  mutable free_slots : int array;
  mutable n_free : int;
  mutable req_pins : int array;
  mutable req_state : int array;
  mutable req_arrival : float array;
  mutable req_scale : float array;
  mutable req_dev : int array;
  mutable req_dec : Decision.t array;
  mutable req_busy : float array;  (* server-busy credit: work over the share at submission *)
  mutable req_sub : float array;  (* timed: submission time of the current hop *)
  (* tracing: the root span, the current hop's segment span, and the local
     fallback's span and submission time *)
  mutable req_span : Es_obs.Span.t array;
  mutable req_seg : Es_obs.Span.t array;
  mutable req_fb_span : Es_obs.Span.t array;
  mutable req_fb_sub : float array;
  work : float array;  (* one cell: the work of the job being submitted *)
  eta : float array;  (* two cells: the admission estimate, see [Station.eta_cell] *)
  outcome : float array;  (* arrival, now, deadline of a completion *)
  mutable stations : dev_stations array;
  srv_speed : float array;  (* each device's server station speed *)
  half_rtt : float array;  (* each device's one-way propagation delay *)
  current : Decision.t array;
  (* The server each device's current decision offloads to, -1 for a
     device-only one, so fault and brownout sweeps read no plans. *)
  current_server : int array;
  cost_dec : Decision.t array;
  cost : float array;
  server_busy : float array;
  batchers : Batcher.t array;
  (* Live fault state.  All 1.0 / all-up when the schedule is empty, in
     which case every use reduces to the fault-free arithmetic exactly
     ([x *. 1.0] and [x /. 1.0] are bit-identities). *)
  server_up : bool array;
  server_factor : float array;
  link_up : bool array;
  link_factor : float array;
  (* Overload protection.  Off (the default), every array is empty and every
     gate short-circuits on [overload_on]: no extra events or RNG draws. *)
  overload_on : bool;
  (* Device-only reroute targets for open breakers and brownout swaps,
     worked out when the first one is needed. *)
  protect_local : Decision.t array Lazy.t;
  brownout_plan : Plan.t option array;
  brownout_active : bool array;
  breakers : Overload.Breaker.t array;
  buckets : Es_alloc.Admission.Token_bucket.t array;
  fallback_work : float array option;  (* local-fallback work per device *)
  (* admission's latency budget over the deadline: the timeout factor
     when a timeout is armed, else 1 *)
  budget_factor : float;
  trace : (float * int) array;
  rngs : Es_util.Prng.t array;  (* per-device Poisson streams, without a trace *)
  mutable arrival_seq : int;
}

let batching s = Option.is_some s.o.batching

let jitter s =
  let sigma = s.o.compute_jitter in
  if sigma <= 0.0 then 1.0
  else Es_util.Prng.lognormal s.jitter_rng ~mu:(-.sigma *. sigma /. 2.0) ~sigma

let fade_factor s link =
  if not s.o.fading then 1.0
  else
    let eff = Link.effective_rate s.fade_rng link 1.0 in
    if eff <= 0.0 then 10.0 else 1.0 /. eff

let no_span = Es_obs.Span.start Es_obs.Span.null "unused"

(* [fill_dec] seeds the decision array on first growth (there is no
   synthesizable dummy [Decision.t]); afterwards existing slot 0 works. *)
let ensure_cap s fill_dec =
  let cap = Array.length s.req_state in
  if s.n_slots >= cap then begin
    let ncap = if cap = 0 then 64 else 2 * cap in
    let grow a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    s.free_slots <- grow s.free_slots 0;
    s.req_pins <- grow s.req_pins 0;
    s.req_state <- grow s.req_state 0;
    s.req_arrival <- grow s.req_arrival 0.0;
    s.req_scale <- grow s.req_scale 1.0;
    s.req_dev <- grow s.req_dev 0;
    s.req_dec <- grow s.req_dec fill_dec;
    s.req_busy <- grow s.req_busy 0.0;
    if s.timed then s.req_sub <- grow s.req_sub 0.0;
    if s.tracing then begin
      s.req_span <- grow s.req_span no_span;
      s.req_seg <- grow s.req_seg no_span;
      s.req_fb_span <- grow s.req_fb_span no_span;
      s.req_fb_sub <- grow s.req_fb_sub 0.0
    end
  end

let take_slot s fill_dec =
  if s.n_free > 0 then begin
    s.n_free <- s.n_free - 1;
    s.free_slots.(s.n_free)
  end
  else begin
    ensure_cap s fill_dec;
    s.n_slots <- s.n_slots + 1;
    s.n_slots - 1
  end

(* A freed slot holds no span. *)
let release s rid =
  if s.tracing then begin
    s.req_span.(rid) <- no_span;
    s.req_seg.(rid) <- no_span;
    s.req_fb_span.(rid) <- no_span
  end;
  s.free_slots.(s.n_free) <- rid;
  s.n_free <- s.n_free + 1

let pin s rid = s.req_pins.(rid) <- s.req_pins.(rid) + 1

(* A data event carrying request [rid], after the delay the caller wrote
   into the engine's cell, pins its slot until handled. *)
let post_for s rid kind =
  Engine.post_cell s.engine (event kind rid);
  pin s rid

(* A station job's tag is its request id, doubled, plus 1 for the local
   fallback: a request can wait on the CPU in both roles at once. *)
let on_start s tag =
  let rid = tag lsr 1 in
  let span, since =
    if tag land 1 = 0 then (s.req_seg.(rid), s.req_sub.(rid))
    else (s.req_fb_span.(rid), s.req_fb_sub.(rid))
  in
  Es_obs.Span.set_attr span "queue_s" (Es_obs.Json.Float (s.clock.(0) -. since))

(* Live counters count in the collector's window, so they, the end-of-run
   report and the JSONL export all agree. *)
let[@inline] in_window s t = t >= s.o.warmup_s && t <= s.o.duration_s

let note_queue s stage dev station =
  match s.tel with
  | None -> ()
  | Some t ->
      Es_obs.Metric.set t.queue_depth.(stage).(dev) (float_of_int (Station.queue_length station))

(* Request [rid]'s hop at [stage], submitted at [req_sub], ends now. *)
let note_segment s stage rid =
  match s.tel with
  | None -> ()
  | Some t -> Es_obs.Histogram.observe t.segment.(stage) (s.clock.(0) -. s.req_sub.(rid))

(* Per-server token buckets.  A configured rate of 0 derives the refill rate
   from the server's aggregate granted service capacity (Σ share / service
   time over its offloaders), re-derived on every reconfiguration and
   straggler fault — the utilization-aware mode. *)
let refresh_bucket_rates s =
  match s.o.overload.Overload.rate_limit with
  | Some rl when rl.Overload.rate_per_server <= 0.0 ->
      let now = Engine.now s.engine in
      let cap = Array.make (Array.length s.buckets) 0.0 in
      Array.iter
        (fun (d : Decision.t) ->
          if Decision.offloads d && d.Decision.compute_share > 0.0 then begin
            let srv = s.cluster.Cluster.servers.(d.Decision.server) in
            let w = Plan.server_time srv.Cluster.sproc.Processor.perf d.Decision.plan in
            if w > 0.0 then
              cap.(d.Decision.server) <-
                cap.(d.Decision.server)
                +. d.Decision.compute_share /. (w *. s.server_factor.(d.Decision.server))
          end)
        s.current;
      Array.iteri (fun i b -> Es_alloc.Admission.Token_bucket.set_rate b ~now cap.(i)) s.buckets
  | _ -> ()

let note_brownout s srv active =
  s.brownout_active.(srv) <- active;
  match s.tel with
  | None -> ()
  | Some t ->
      Option.iter Es_obs.Metric.inc t.brownout_switches;
      Es_obs.Metric.set t.brownout_active.(srv) (if active then 1.0 else 0.0)

(* The one station-speed rule: transfers run at the granted bandwidth
   times the link's degradation factor, server work at the granted share
   over the server's straggler factor.  A zero grant means the plan no
   longer uses the stage; its old speed stays so in-flight jobs drain
   instead of stalling. *)
let set_speeds s i =
  let d = s.current.(i) and st = s.stations.(i) in
  if d.Decision.bandwidth_bps > 0.0 then begin
    let bw = d.Decision.bandwidth_bps *. s.link_factor.(i) in
    Station.set_speed st.up bw;
    Station.set_speed st.down bw
  end;
  if d.Decision.compute_share > 0.0 then begin
    s.srv_speed.(i) <- d.Decision.compute_share /. s.server_factor.(d.Decision.server);
    Station.set_speed st.srv s.srv_speed.(i)
  end

let offload_server d = if Decision.offloads d then d.Decision.server else -1

let apply_decisions s ds =
  Array.iteri
    (fun i d ->
      s.current.(i) <- d;
      s.current_server.(i) <- offload_server d;
      set_speeds s i)
    ds;
  refresh_bucket_rates s

(* Plan costs per device, for the decision they were computed from
   (physical identity): a device's requests mostly share one decision, so
   each cost is worked out once per decision, not once per hop.
   [cost.(4 dev + slot)] is the cost of the hop at that station slot: device
   time, uplink bytes, server time, downlink bytes (the last three for
   offloading decisions only). *)
let fill_costs s dev (d : Decision.t) =
  s.cost_dec.(dev) <- d;
  let plan = d.Decision.plan in
  s.cost.(4 * dev) <-
    Plan.device_time s.cluster.Cluster.devices.(dev).Cluster.proc.Processor.perf plan;
  if Decision.offloads d then begin
    let srv = s.cluster.Cluster.servers.(d.Decision.server) in
    s.cost.((4 * dev) + 1) <- Plan.transfer_bytes plan;
    s.cost.((4 * dev) + 2) <- Plan.server_time srv.Cluster.sproc.Processor.perf plan;
    s.cost.((4 * dev) + 3) <- Plan.result_bytes plan
  end

let costs s dev d = if s.cost_dec.(dev) != d then fill_costs s dev d
let resolved s rid = s.req_state.(rid) land 7 <> 0
let fallback_started s rid = s.req_state.(rid) land 8 <> 0
let offloads s rid = s.req_state.(rid) land 16 <> 0
let attempts s rid = s.req_state.(rid) lsr 5

(* Drop one reference to [rid]'s slot, freeing it when that was the last
   one and the request is resolved. *)
let unpin s rid =
  let p = s.req_pins.(rid) - 1 in
  s.req_pins.(rid) <- p;
  if p = 0 && resolved s rid then release s rid

(* Feed the server's breaker from this request's offload-path outcomes:
   a server-stage completion closes in success, a server-stage failure or
   a timeout in failure.  No-op without breakers or for device-only
   requests. *)
let breaker_note s rid ok =
  if Array.length s.breakers > 0 && offloads s rid then
    Overload.Breaker.record
      s.breakers.(s.req_dec.(rid).Decision.server)
      ~now:(Engine.now s.engine) ~ok

(* The one request exit, and the only writer of the outcome bits.  Under
   resilience a request can have several racing continuations (a retry,
   the fallback, a late original completion); the first to get here
   decides the outcome [o], and only it feeds the breaker, counts, and
   finishes the root span.  [stage] is where a drop happened; the other
   outcomes ignore it.  A shed is overload protection refusing the
   request at arrival, before it entered any queue. *)
let resolve s rid o stage =
  if not (resolved s rid) then begin
    if o = o_completed || o = o_timed_out then breaker_note s rid (o = o_completed);
    s.req_state.(rid) <- s.req_state.(rid) lor o;
    let now = s.clock.(0) and arrival = s.req_arrival.(rid) and device = s.req_dev.(rid) in
    let completed = o = o_completed || o = o_degraded in
    (match s.tel with
    | None -> ()
    | Some t ->
        (* drops and sheds count at resolution, the rest at arrival *)
        if in_window s (if o = o_dropped || o = o_shed then now else arrival) then
          if completed then begin
            Es_obs.Metric.inc t.completed;
            if o = o_degraded then Es_obs.Metric.inc t.degraded;
            Es_obs.Histogram.observe t.latency (now -. arrival)
          end
          else if o = o_dropped then Es_obs.Metric.inc t.dropped.(stage)
          else Es_obs.Metric.inc (if o = o_timed_out then t.timed_out else t.shed));
    if s.tracing then begin
      let detail =
        if completed then [ ("latency_s", Es_obs.Json.Float (now -. arrival)) ]
        else if o = o_dropped then [ ("stage", Es_obs.Json.String stage_names.(stage)) ]
        else []
      in
      Es_obs.Span.finish s.tracer
        ~attrs:(("outcome", Es_obs.Json.String outcome_names.(o)) :: detail)
        s.req_span.(rid)
    end;
    if completed then begin
      s.outcome.(0) <- arrival;
      s.outcome.(1) <- now;
      s.outcome.(2) <- s.cluster.Cluster.devices.(device).Cluster.deadline;
      Metrics.on_completion_cell s.collector ~degraded:(o = o_degraded) ~device s.outcome
    end
    else if o = o_dropped then Metrics.on_drop s.collector ~device ~now
    else if o = o_timed_out then Metrics.on_timeout s.collector ~device ~arrival
    else Metrics.on_shed s.collector ~device ~now;
    if s.req_pins.(rid) = 0 then release s rid
  end

let start_fallback s rid =
  match s.fallback_work with
  | Some works when (not (resolved s rid)) && not (fallback_started s rid) ->
      s.req_state.(rid) <- s.req_state.(rid) lor 8;
      let dev_id = s.req_dev.(rid) in
      let cpu = s.stations.(dev_id).cpu in
      s.work.(0) <- works.(dev_id) *. s.req_scale.(rid);
      if s.tracing then begin
        s.req_fb_span.(rid) <- Es_obs.Span.start s.tracer ~parent:s.req_span.(rid) "fallback";
        s.req_fb_sub.(rid) <- s.clock.(0)
      end;
      let ok = Station.submit_cell cpu ~tag:((2 * rid) + 1) s.work in
      note_queue s s_device dev_id cpu;
      if ok then pin s rid
      else begin
        if s.tracing then
          Es_obs.Span.finish s.tracer
            ~attrs:[ ("outcome", Es_obs.Json.String "dropped") ]
            s.req_fb_span.(rid);
        resolve s rid o_dropped s_device
      end
  | _ -> ()

(* Failure of an attempt at [stage]: retry with exponential backoff from
   the failed phase (the device stage, else the uplink), then fall back
   locally, then drop.  Without a resilience policy the request is
   simply dropped (pre-fault behavior). *)
let fail s rid stage =
  if not (resolved s rid) then begin
    if stage = s_server then breaker_note s rid false;
    match s.o.resilience with
    | None -> resolve s rid o_dropped stage
    | Some r ->
        s.req_state.(rid) <- s.req_state.(rid) + 32;
        if attempts s rid <= r.max_retries then begin
          s.at.(0) <- r.backoff_base_s *. (2.0 ** float_of_int (attempts s rid - 1));
          post_for s rid (if stage = s_device then k_retry_device else k_retry_offload)
        end
        else if r.local_fallback then start_fallback s rid
        else resolve s rid o_dropped stage
  end

(* A hop opens: traced, its segment span starts; timed, its submission
   time is kept. *)
let open_hop s rid stage =
  if s.tracing then
    s.req_seg.(rid) <- Es_obs.Span.start s.tracer ~parent:s.req_span.(rid) stage_names.(stage);
  if s.timed then s.req_sub.(rid) <- s.clock.(0)

(* A station hop of [s.work.(0)] units.  Queueing time (submission →
   service start, see [on_start]) is recorded as a span attribute so the
   span decomposes further without breaking the tiling. *)
let submit s rid stage station =
  open_hop s rid stage;
  let ok = Station.submit_cell station ~tag:(2 * rid) s.work in
  note_queue s stage s.req_dev.(rid) station;
  if ok then pin s rid
  else begin
    if s.tracing then
      Es_obs.Span.finish s.tracer ~attrs:[ ("outcome", Es_obs.Json.String "dropped") ] s.req_seg.(rid);
    fail s rid stage
  end

(* Jobs a fault threw out of a [stage] station fail, in eviction order.
   The local fallback's CPU jobs are never evicted (no fault flushes a
   CPU). *)
let evict s stage tags =
  Array.iter
    (fun tag ->
      let rid = tag lsr 1 in
      if tag land 1 = 0 then begin
        if s.tracing then
          Es_obs.Span.finish s.tracer ~attrs:[ ("outcome", Es_obs.Json.String "evicted") ] s.req_seg.(rid);
        fail s rid stage
      end;
      unpin s rid)
    tags

(* Propagation legs get their own child spans so the segments still tile
   the request's full lifetime. *)
let propagate s rid stage =
  open_hop s rid stage;
  s.at.(0) <- s.half_rtt.(s.req_dev.(rid));
  post_for s rid (if stage = s_uplink_prop then k_uplink_prop else k_downlink_prop)

let attempt_device s rid =
  let dev_id = s.req_dev.(rid) in
  costs s dev_id s.req_dec.(rid);
  s.work.(0) <- s.cost.(4 * dev_id) *. s.req_scale.(rid);
  submit s rid s_device s.stations.(dev_id).cpu

(* The uplink or downlink hop; it fails at once while the link is out. *)
let transfer s rid stage =
  let dev_id = s.req_dev.(rid) in
  if not s.link_up.(dev_id) then fail s rid stage
  else begin
    costs s dev_id s.req_dec.(rid);
    let st = s.stations.(dev_id) and up = stage = s_uplink in
    let link = s.cluster.Cluster.devices.(dev_id).Cluster.link in
    s.work.(0) <- 8.0 *. s.cost.((4 * dev_id) + if up then 1 else 3) *. fade_factor s link;
    submit s rid stage (if up then st.up else st.down)
  end

let server_phase s rid =
  let dev_id = s.req_dev.(rid) and d = s.req_dec.(rid) in
  if not s.server_up.(d.Decision.server) then fail s rid s_server
  else begin
    costs s dev_id d;
    s.work.(0) <- s.cost.((4 * dev_id) + 2) *. s.req_scale.(rid);
    if batching s then begin
      (* One batched accelerator per server; shares ignored.  The "server"
         segment span covers queue + batch wait + service, measured around
         the batcher.  Batchers have no eviction path: faults only gate
         admission here. *)
      open_hop s rid s_server;
      Batcher.submit s.batchers.(d.Decision.server) ~tag:rid ~work:s.work.(0);
      pin s rid
    end
    else begin
      (* Busy time is credited at the share the job was submitted under. *)
      s.req_busy.(rid) <- s.work.(0) /. Float.max s.srv_speed.(dev_id) 1e-9;
      submit s rid s_server s.stations.(dev_id).srv
    end
  end

(* A hop's job at [stage] finished: the segment ends, the request moves on. *)
let hop_done s rid stage =
  note_segment s stage rid;
  if s.tracing then Es_obs.Span.finish s.tracer s.req_seg.(rid);
  if stage = s_device then begin
    if offloads s rid then transfer s rid s_uplink else resolve s rid o_completed s_device
  end
  else if stage = s_uplink then propagate s rid s_uplink_prop
  else if stage = s_server then begin
    if not (batching s) then begin
      let srv = s.req_dec.(rid).Decision.server in
      s.server_busy.(srv) <- s.server_busy.(srv) +. s.req_busy.(rid)
    end;
    transfer s rid s_downlink
  end
  else propagate s rid s_downlink_prop

let propagated s rid stage =
  (match s.tel with
  | None -> ()
  | Some t -> Es_obs.Histogram.observe t.segment.(stage) s.half_rtt.(s.req_dev.(rid)));
  if s.tracing then Es_obs.Span.finish s.tracer s.req_seg.(rid);
  if stage = s_uplink_prop then server_phase s rid else resolve s rid o_completed s_downlink_prop

let apply_fault s = function
  | Faults.Server_down srv ->
      if s.server_up.(srv) then begin
        s.server_up.(srv) <- false;
        Array.iteri
          (fun i st -> if s.current_server.(i) = srv then evict s s_server (Station.flush st.srv))
          s.stations
      end
  | Faults.Server_up srv -> s.server_up.(srv) <- true
  | Faults.Link_outage d ->
      if s.link_up.(d) then begin
        s.link_up.(d) <- false;
        evict s s_uplink (Station.flush s.stations.(d).up);
        evict s s_downlink (Station.flush s.stations.(d).down)
      end
  | Faults.Link_restored d -> s.link_up.(d) <- true
  | Faults.Link_degraded (d, f) ->
      s.link_factor.(d) <- f;
      set_speeds s d
  | Faults.Straggler (srv, f) ->
      s.server_factor.(srv) <- f;
      Array.iteri
        (fun i (dec : Decision.t) ->
          if s.current_server.(i) = srv && dec.Decision.compute_share > 0.0 then set_speeds s i)
        s.current;
      refresh_bucket_rates s

(* Brownout watermark controller: a periodic sweep (simulated time) of
   per-server backlog with hysteresis — engage at the high watermark,
   release at the low one.  Scheduled only when brownout is configured,
   so the default event stream is untouched. *)
let rec brownout_tick s (b : Overload.brownout_cfg) backlog t =
  if t <= s.o.duration_s then
    Engine.schedule_at s.engine t (fun () ->
        Array.fill backlog 0 (Array.length backlog) 0;
        Array.iteri
          (fun i st ->
            let srv = s.current_server.(i) in
            if srv >= 0 then backlog.(srv) <- backlog.(srv) + Station.queue_length st.srv)
          s.stations;
        for srv = 0 to Array.length backlog - 1 do
          if (not s.brownout_active.(srv)) && backlog.(srv) >= b.Overload.high_watermark then
            note_brownout s srv true
          else if s.brownout_active.(srv) && backlog.(srv) <= b.Overload.low_watermark then
            note_brownout s srv false
        done;
        brownout_tick s b backlog (t +. b.Overload.check_every_s))

(* A lower bound on request [rid]'s completion delay given the current
   per-station backlog, left in [s.eta.(0)]: stage k's finish is max(own
   pipeline, stage k's backlog clearing) plus its service time.  Stations are
   dedicated per device and FIFO, so the bound is tight when one stage
   dominates; it ignores wireless fading (no RNG draws) and, under batching,
   the shared batcher's queue (only the service time is charged).  A request
   shed on this estimate provably cannot meet its budget. *)
let estimate_completion s rid dev_id (d : Decision.t) =
  let st = s.stations.(dev_id) and c = s.eta and k = 4 * dev_id in
  costs s dev_id d;
  c.(0) <- 0.0;
  c.(1) <- s.cost.(k) *. s.req_scale.(rid);
  Station.eta_cell st.cpu c;
  if Decision.offloads d then begin
    c.(1) <- 8.0 *. s.cost.(k + 1);
    Station.eta_cell st.up c;
    c.(0) <- c.(0) +. s.half_rtt.(dev_id);
    c.(1) <- s.cost.(k + 2) *. s.req_scale.(rid);
    if batching s then c.(0) <- c.(0) +. c.(1) else Station.eta_cell st.srv c;
    c.(1) <- 8.0 *. s.cost.(k + 3);
    Station.eta_cell st.down c;
    c.(0) <- c.(0) +. s.half_rtt.(dev_id)
  end

let local_decision s dev_id = (Lazy.force s.protect_local).(dev_id)

(* The brownout gate: an offloading decision to a server in brownout
   swaps to its minimum-server plan, or to the device-only one. *)
let brownout_swap s dev_id (d : Decision.t) =
  if Decision.offloads d && s.brownout_active.(d.Decision.server) then begin
    match s.o.overload.Overload.brownout with
    | Some { Overload.mode = Overload.Local_only; _ } -> local_decision s dev_id
    | Some { Overload.mode = Overload.Min_server; _ } -> (
        match s.brownout_plan.(dev_id) with
        | Some p when d.Decision.compute_share > 0.0 || Plan.srv_flops p <= 0.0 ->
            { d with Decision.plan = p }
        | _ -> local_decision s dev_id)
    | None -> d
  end
  else d

(* The overload gates after the brownout swap, in order: breaker,
   deadline-aware admission, rate limit.  They leave request [rid]'s
   decision in [req_dec] and say whether to shed it. *)
let shed s rid dev_id arrival =
  let ov = s.o.overload in
  let d = brownout_swap s dev_id s.req_dec.(rid) in
  let blocked =
    Decision.offloads d
    && Array.length s.breakers > 0
    && not (Overload.Breaker.allow s.breakers.(d.Decision.server) ~now:arrival)
  in
  let shed_on_open =
    match ov.Overload.breaker with Some b -> b.Overload.shed_on_open | None -> false
  in
  let d = if blocked && not shed_on_open then local_decision s dev_id else d in
  s.req_dec.(rid) <- d;
  (blocked && shed_on_open)
  || (match ov.Overload.admission with
     | Some a ->
         estimate_completion s rid dev_id d;
         s.eta.(0)
         > a.Overload.slack *. s.budget_factor *. s.cluster.Cluster.devices.(dev_id).Cluster.deadline
     | None -> false)
  || Decision.offloads d
     && Array.length s.buckets > 0
     && not (Es_alloc.Admission.Token_bucket.try_take s.buckets.(d.Decision.server) ~now:arrival)

(* A request arrives.  The overload gates are skipped (one branch) when
   the policy is off. *)
let process s dev_id arrival =
  let dev = s.cluster.Cluster.devices.(dev_id) in
  let rid = take_slot s s.current.(dev_id) in
  s.req_scale.(rid) <- s.work_scale ~device:dev_id s.scale_rng *. jitter s;
  s.req_dec.(rid) <- s.current.(dev_id);
  let shed_now = s.overload_on && shed s rid dev_id arrival in
  let d = s.req_dec.(rid) in
  s.req_state.(rid) <- (if Decision.offloads d then 16 else 0);
  s.req_arrival.(rid) <- arrival;
  s.req_dev.(rid) <- dev_id;
  (* One trace per request: a root "request" span whose child segments
     tile [arrival, completion] exactly — each stage is submitted
     synchronously at the previous stage's completion, so segment
     durations sum to the end-to-end latency. *)
  if s.tracing then
    s.req_span.(rid) <-
      Es_obs.Span.start s.tracer
        ~attrs:[ ("device", Es_obs.Json.Int dev_id); ("server", Es_obs.Json.Int d.Decision.server) ]
        "request";
  (match s.tel with
  | Some t when in_window s arrival -> Es_obs.Metric.inc t.generated
  | _ -> ());
  Metrics.on_arrival s.collector ~device:dev_id ~now:arrival;
  if shed_now then resolve s rid o_shed s_device
  else begin
    (match s.o.resilience with
    | Some r when r.timeout_factor > 0.0 ->
        s.at.(0) <- r.timeout_factor *. dev.Cluster.deadline;
        post_for s rid k_timeout
    | _ -> ());
    attempt_device s rid
  end

let timeout s rid =
  match s.o.resilience with
  | Some r when not (resolved s rid || fallback_started s rid) ->
      if r.local_fallback then start_fallback s rid else resolve s rid o_timed_out s_device
  | _ -> ()

(* Without a trace, device [dev_id]'s next Poisson arrival comes a
   random gap after [t]. *)
let next_arrival s dev_id t =
  let rate = s.cluster.Cluster.devices.(dev_id).Cluster.rate in
  let t = t +. Es_util.Prng.exponential s.rngs.(dev_id) rate in
  if t <= s.o.duration_s then Engine.post_at s.engine t (event k_poisson dev_id)

let station_done s e =
  let sid = (e land low32) lsr kind_bits in
  let dev_st = s.stations.(sid lsr 2) in
  let st =
    match sid land 3 with 0 -> dev_st.cpu | 1 -> dev_st.up | 2 -> dev_st.srv | _ -> dev_st.down
  in
  let tag = Station.finish st e in
  if tag >= 0 then begin
    let rid = tag lsr 1 in
    if tag land 1 = 0 then hop_done s rid slot_stages.(sid land 3)
    else begin
      if s.tracing then Es_obs.Span.finish s.tracer s.req_fb_span.(rid);
      resolve s rid o_degraded s_device
    end;
    unpin s rid;
    Station.start_next st
  end

let batch_event s srv e =
  let b = s.batchers.(srv) in
  let k = Batcher.fire b e in
  if k > 0 then begin
    for i = 0 to k - 1 do
      let rid = Batcher.finished b i in
      hop_done s rid s_server;
      unpin s rid
    done;
    Batcher.resume b
  end

(* The trace is read by a cursor: arrival [i] is posted when arrival [i - 1]
   fires, so the event list holds one trace arrival at a time.  Each goes in
   at a sequence number reserved after the fault, reconfiguration and first
   brownout entries, so at an equal time it fires after those and before every
   event the run posts: the order of the trace posted whole at that point. *)
let post_arrival s i =
  if i < Array.length s.trace && fst s.trace.(i) <= s.o.duration_s then
    Engine.post_at_seq s.engine (fst s.trace.(i)) ~seq:(s.arrival_seq + i) (event k_arrival i)

(* The one dispatch: every per-request event of the run comes through
   here (fault, reconfiguration and brownout entries stay closures).
   An event carrying a request id releases its pin once handled. *)
let handle s e =
  let arg = e lsr kind_bits in
  match e land kind_mask with
  | 0 (* k_arrival *) ->
      let t, dev_id = s.trace.(arg) in
      process s dev_id t;
      post_arrival s (arg + 1)
  | 1 (* k_poisson *) ->
      let t = Engine.now s.engine in
      process s arg t;
      next_arrival s arg t
  | 2 (* k_station *) -> station_done s e
  | 3 (* k_batch *) -> batch_event s ((e land low32) lsr kind_bits) e
  | kind ->
      (match kind with
      | 4 (* k_uplink_prop *) -> propagated s arg s_uplink_prop
      | 5 (* k_downlink_prop *) -> propagated s arg s_downlink_prop
      | 6 (* k_retry_device *) -> if not (resolved s arg) then attempt_device s arg
      | 7 (* k_retry_offload *) -> if not (resolved s arg) then transfer s arg s_uplink
      | _ (* k_timeout *) -> timeout s arg);
      unpin s arg

(* Arrivals up to the horizon: [(t, device)] entries checked and counted
   before any event fires. *)
let count_arrivals (o : options) ~nd trace =
  let n = ref 0 and prev = ref 0.0 in
  Array.iteri
    (fun i (t, dev_id) ->
      if dev_id < 0 || dev_id >= nd || not (t >= 0.0) then
        invalid_arg (Printf.sprintf "Runner.run: bad trace entry (%g, device %d)" t dev_id);
      if t < !prev then
        invalid_arg
          (Printf.sprintf "Runner.run: trace not sorted by time (entry %d at %g after %g)" i t
             !prev);
      prev := t;
      if t <= o.duration_s then n := i + 1)
    trace;
  !n

let make_stations s capacity on_start i =
  let d = s.current.(i) in
  let station slot speed =
    (* unused stages (zero grants on device-only plans) get a placeholder
       speed; validation guarantees every stage a request can actually
       reach has a real positive grant *)
    let speed = if speed > 0.0 then speed else 1.0 in
    Station.create s.engine ?capacity ?on_start ~event:(event k_station ((4 * i) + slot)) ~speed ()
  in
  let bw = d.Decision.bandwidth_bps and share = d.Decision.compute_share in
  s.srv_speed.(i) <- (if share > 0.0 then share else 1.0);
  { cpu = station 0 1.0; up = station 1 bw; srv = station 2 share; down = station 3 bw }

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
  let arrival_rng = Es_util.Prng.create options.seed in
  let jitter_rng = Es_util.Prng.split arrival_rng in
  let fade_rng = Es_util.Prng.split arrival_rng in
  let scale_rng = Es_util.Prng.split arrival_rng in
  let ov = options.overload in
  let tel = Option.map (fun reg -> telemetry reg ~nd ~ns ov) metrics in
  let current = Array.copy decisions in
  let s =
    {
      o = options;
      cluster;
      engine;
      clock = Engine.clock engine;
      at = Engine.cell engine;
      tracer;
      tracing = Es_obs.Span.enabled tracer;
      timed = Es_obs.Span.enabled tracer || Option.is_some metrics;
      tel;
      collector =
        Metrics.create_collector ~streaming:options.streaming ~n_devices:nd
          ~window_start:options.warmup_s ~window_end:options.duration_s ();
      work_scale; jitter_rng; fade_rng; scale_rng;
      n_slots = 0; free_slots = [||]; n_free = 0;
      req_pins = [||]; req_state = [||]; req_arrival = [||]; req_scale = [||]; req_dev = [||];
      req_dec = [||]; req_busy = [||]; req_sub = [||]; req_span = [||]; req_seg = [||];
      req_fb_span = [||]; req_fb_sub = [||];
      work = [| 0.0 |]; eta = [| 0.0; 0.0 |]; outcome = [| 0.0; 0.0; 0.0 |];
      stations = [||];
      srv_speed = Array.make nd 1.0;
      half_rtt =
        Array.map (fun (d : Cluster.device) -> d.Cluster.link.Link.rtt_s /. 2.0) cluster.Cluster.devices;
      current;
      current_server = Array.map offload_server current;
      cost_dec = Array.copy current;
      cost = Array.make (4 * nd) 0.0;
      server_busy = Array.make ns 0.0;
      batchers =
        (match options.batching with
        | None -> [||]
        | Some cfg ->
            Array.init ns (fun srv ->
                Batcher.create engine ~max_batch:cfg.max_batch ~window_s:cfg.window_s
                  ~alpha:cfg.alpha ~event:(event k_batch srv) ~speed:1.0 ()));
      server_up = Array.make ns true; server_factor = Array.make ns 1.0;
      link_up = Array.make nd true; link_factor = Array.make nd 1.0;
      overload_on = not (Overload.is_off ov);
      protect_local = lazy (Overload.local_decisions cluster);
      brownout_plan =
        (match ov.Overload.brownout with
        | Some { Overload.mode = Overload.Min_server; _ } ->
            Array.map Overload.min_server_plan cluster.Cluster.devices
        | _ -> [||]);
      brownout_active = Array.make ns false;
      (* a breaker transition sets its server's breaker_state gauge
         (Closed 0 / Half_open 1 / Open 2) *)
      breakers =
        (match ov.Overload.breaker with
        | None -> [||]
        | Some cfg ->
            Array.init ns (fun srv ->
                let gauge t st =
                  Es_obs.Metric.set t.breaker_state.(srv)
                    (float_of_int (Overload.Breaker.state_code st))
                in
                Overload.Breaker.create ?on_transition:(Option.map gauge tel) cfg));
      buckets =
        (match ov.Overload.rate_limit with
        | None -> [||]
        | Some rl ->
            Array.init ns (fun _ ->
                Es_alloc.Admission.Token_bucket.create ~rate:rl.Overload.rate_per_server
                  ~burst:rl.Overload.burst ()));
      (* accuracy floors are waived: a degraded answer beats a lost request *)
      fallback_work =
        (match options.resilience with
        | Some r when r.local_fallback ->
            let work (dev : Cluster.device) =
              Plan.device_time dev.Cluster.proc.Processor.perf (Overload.fastest_local dev)
            in
            Some (Array.map work cluster.Cluster.devices)
        | _ -> None);
      budget_factor =
        (match options.resilience with
        | Some r when r.timeout_factor > 0.0 -> r.timeout_factor
        | _ -> 1.0);
      trace = Option.value arrivals ~default:[||];
      rngs =
        (match arrivals with
        | Some _ -> [||]
        | None -> Array.init nd (fun _ -> Es_util.Prng.split arrival_rng));
      arrival_seq = 0;
    }
  in
  let on_start = if s.tracing then Some (on_start s) else None in
  s.stations <- Array.init nd (make_stations s options.queue_capacity on_start);
  refresh_bucket_rates s;
  Array.iteri (fun dev d -> fill_costs s dev d) current;
  (* Fault events are scheduled before reconfigurations and arrivals, so at
     an equal timestamp the fault applies first — a recovery schedule firing
     at crash time sees the crashed state. *)
  List.iter
    (fun (t, ev) ->
      if t <= options.duration_s then Engine.schedule_at engine t (fun () -> apply_fault s ev))
    (Faults.events options.faults);
  Option.iter
    (List.iter (fun (t, ds) ->
         if Array.length ds <> nd then invalid_arg "Runner.run: reconfigure size mismatch";
         check_or_raise cluster ds;
         Engine.schedule_at engine t (fun () -> apply_decisions s ds)))
    reconfigure;
  (match ov.Overload.brownout with
  | Some b -> brownout_tick s b (Array.make ns 0) b.Overload.check_every_s
  | None -> ());
  s.arrival_seq <- Engine.reserve engine (count_arrivals options ~nd s.trace);
  (match arrivals with
  | Some _ -> post_arrival s 0
  | None ->
      for dev_id = 0 to nd - 1 do
        next_arrival s dev_id 0.0
      done);
  (* Arrivals stop at the horizon; the system then drains so every admitted
     request completes and horizon-edge requests are not unfairly counted as
     deadline misses. *)
  Engine.run ~handle:(handle s) engine;
  if s.n_free <> s.n_slots then
    failwith
      (Printf.sprintf "Runner.run: %d request slots still held after the drain"
         (s.n_slots - s.n_free));
  Array.iteri (fun srv b -> s.server_busy.(srv) <- Batcher.busy_time b) s.batchers;
  let report = Metrics.finalize s.collector ~server_busy:s.server_busy ~duration:options.duration_s in
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
