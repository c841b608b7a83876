type device_stats = {
  generated : int;
  completed : int;
  degraded : int;
  dropped : int;
  timed_out : int;
  shed : int;
  deadline_hits : int;
  latency : Es_util.Stats.t;
  samples : float array;
}

type report = {
  per_device : device_stats array;
  latencies : float array;
  dsr : float;
  dsr_admitted : float;
  mean_latency_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  total_generated : int;
  total_completed : int;
  total_degraded : int;
  total_dropped : int;
  total_timed_out : int;
  total_shed : int;
  server_utilization : float array;
  measured_duration_s : float;
  events : (float * float) array;
  event_hits : (float * bool) array;
}

type dev_acc = {
  mutable generated : int;
  mutable completed : int;
  mutable degraded : int;
  mutable dropped : int;
  mutable timed_out : int;
  mutable shed : int;
  mutable hits : int;
  stats : Es_util.Stats.t;
  mutable rev_samples : float list;  (* exact mode only *)
}

(* One entry per resolved request, newest first (exact mode only).
   Completions carry their latency; drops and timeouts carry [nan] — the
   marker that keeps a single log where two parallel lists
   ([rev_events]/[rev_hits]) used to duplicate every completion. *)
type outcome_ev = { at : float; lat : float; hit : bool }

type collector = {
  devs : dev_acc array;
  window_start : float;
  window_end : float;
  streaming : bool;
  pooled : Es_util.Stats.t;  (* streaming: exact count/mean/sum of latencies *)
  sketch : Es_obs.Histogram.t;  (* streaming: fixed-size quantile sketch *)
  mutable rev_log : outcome_ev list;
  mutable n_logged : int;
  mutable n_completions : int;
}

let create_collector ?(streaming = false) ~n_devices ~window_start ~window_end () =
  {
    devs =
      Array.init n_devices (fun _ ->
          {
            generated = 0;
            completed = 0;
            degraded = 0;
            dropped = 0;
            timed_out = 0;
            shed = 0;
            hits = 0;
            stats = Es_util.Stats.create ();
            rev_samples = [];
          });
    window_start;
    window_end;
    streaming;
    pooled = Es_util.Stats.create ();
    sketch = Es_obs.Histogram.create ();
    rev_log = [];
    n_logged = 0;
    n_completions = 0;
  }

let in_window c t = t >= c.window_start && t <= c.window_end

let on_arrival c ~device ~now =
  if in_window c now then begin
    let d = c.devs.(device) in
    d.generated <- d.generated + 1
  end

let log_outcome c ~at ~lat ~hit =
  if not c.streaming then begin
    c.rev_log <- { at; lat; hit } :: c.rev_log;
    c.n_logged <- c.n_logged + 1;
    if not (Float.is_nan lat) then c.n_completions <- c.n_completions + 1
  end

let on_drop c ~device ~now =
  if in_window c now then begin
    let d = c.devs.(device) in
    d.dropped <- d.dropped + 1;
    log_outcome c ~at:now ~lat:nan ~hit:false
  end

let on_shed c ~device ~now =
  (* Sheds happen at arrival, so [now] doubles as the arrival time; the
     outcome joins the event_hits timeline as a miss at that instant. *)
  if in_window c now then begin
    let d = c.devs.(device) in
    d.shed <- d.shed + 1;
    log_outcome c ~at:now ~lat:nan ~hit:false
  end

let on_timeout c ~device ~arrival =
  (* Attribute to the arrival, like completions, so the window's
     conservation law ([conserved]) holds for requests that expire after
     the horizon's edge. *)
  if in_window c arrival then begin
    let d = c.devs.(device) in
    d.timed_out <- d.timed_out + 1;
    log_outcome c ~at:arrival ~lat:nan ~hit:false
  end

let on_completion c ?(degraded = false) ~device ~arrival ~now ~deadline () =
  (* Attribute the sample to the request's arrival, matching on_arrival. *)
  if in_window c arrival then begin
    let d = c.devs.(device) in
    let latency = now -. arrival in
    d.completed <- d.completed + 1;
    if degraded then d.degraded <- d.degraded + 1;
    let hit = latency <= deadline +. 1e-12 in
    if hit then d.hits <- d.hits + 1;
    Es_util.Stats.add d.stats latency;
    if c.streaming then begin
      (* O(1) per request: Welford accumulator + fixed-size histogram
         instead of sample lists. *)
      Es_util.Stats.add c.pooled latency;
      Es_obs.Histogram.observe c.sketch latency
    end
    else begin
      d.rev_samples <- latency :: d.rev_samples;
      log_outcome c ~at:now ~lat:latency ~hit
    end
  end

(* Reversed list -> array in a single backward-fill pass (the length is
   tracked by the counters, so no List.rev / List.length prewalk).
   Streaming collectors keep no sample lists, so their per-device and
   pooled raw-sample arrays are empty by construction. *)
let samples_of c d =
  let n = if c.streaming then 0 else d.completed in
  if n = 0 then [||]
  else begin
    let a = Array.make n 0.0 in
    let i = ref (n - 1) in
    List.iter
      (fun s ->
        a.(!i) <- s;
        decr i)
      d.rev_samples;
    a
  end

let finalize c ~server_busy ~duration =
  let per_device =
    Array.map
      (fun d ->
        {
          generated = d.generated;
          completed = d.completed;
          degraded = d.degraded;
          dropped = d.dropped;
          timed_out = d.timed_out;
          shed = d.shed;
          deadline_hits = d.hits;
          latency = d.stats;
          samples = samples_of c d;
        })
      c.devs
  in
  let latencies =
    Array.concat (Array.to_list (Array.map (fun d -> d.samples) per_device))
  in
  let total f = Array.fold_left (fun acc d -> acc + f d) 0 per_device in
  let total_generated = total (fun d -> d.generated) in
  let total_completed = total (fun d -> d.completed) in
  let total_degraded = total (fun d -> d.degraded) in
  let total_dropped = total (fun d -> d.dropped) in
  let total_timed_out = total (fun d -> d.timed_out) in
  let total_shed = total (fun d -> d.shed) in
  let hits = total (fun d -> d.deadline_hits) in
  let dsr =
    if total_generated = 0 then 1.0 else float_of_int hits /. float_of_int total_generated
  in
  let admitted = total_generated - total_shed in
  let dsr_admitted =
    if admitted = 0 then 1.0 else float_of_int hits /. float_of_int admitted
  in
  let mean, pct =
    if c.streaming then
      ( (if Es_util.Stats.count c.pooled = 0 then nan else Es_util.Stats.mean c.pooled),
        fun p ->
          if Es_obs.Histogram.count c.sketch = 0 then nan
          else Es_obs.Histogram.quantile c.sketch p )
    else
      ( Es_util.Stats.mean_of latencies,
        fun p ->
          if Array.length latencies = 0 then nan else Es_util.Stats.percentile latencies p )
  in
  let window = Float.max 1e-9 (Float.min c.window_end duration -. c.window_start) in
  (* Both outcome arrays are filled from one walk of the single log:
     [events] gets the completions (chronological completion order),
     [event_hits] every resolution. *)
  let events = Array.make c.n_completions (0.0, 0.0) in
  let event_hits = Array.make c.n_logged (0.0, false) in
  let i = ref (c.n_completions - 1) in
  let j = ref (c.n_logged - 1) in
  List.iter
    (fun e ->
      event_hits.(!j) <- (e.at, e.hit);
      decr j;
      if not (Float.is_nan e.lat) then begin
        events.(!i) <- (e.at, e.lat);
        decr i
      end)
    c.rev_log;
  {
    per_device;
    latencies;
    dsr;
    dsr_admitted;
    mean_latency_s = mean;
    p50_s = pct 50.0;
    p95_s = pct 95.0;
    p99_s = pct 99.0;
    total_generated;
    total_completed;
    total_degraded;
    total_dropped;
    total_timed_out;
    total_shed;
    server_utilization = Array.map (fun b -> b /. window) server_busy;
    measured_duration_s = window;
    events;
    event_hits;
  }

let conserved r =
  r.total_generated = r.total_completed + r.total_dropped + r.total_timed_out + r.total_shed

let report_to_json (r : report) =
  let open Es_obs.Json in
  Obj
    [
      ("kind", String "report");
      ("generated", Int r.total_generated);
      ("completed", Int r.total_completed);
      ("degraded", Int r.total_degraded);
      ("dropped", Int r.total_dropped);
      ("timed_out", Int r.total_timed_out);
      ("shed", Int r.total_shed);
      ("dsr", Float r.dsr);
      ("dsr_admitted", Float r.dsr_admitted);
      ("mean_latency_s", Float r.mean_latency_s);
      ("p50_s", Float r.p50_s);
      ("p95_s", Float r.p95_s);
      ("p99_s", Float r.p99_s);
      ("measured_duration_s", Float r.measured_duration_s);
      ( "server_utilization",
        List (Array.to_list (Array.map (fun u -> Float u) r.server_utilization)) );
      ( "per_device",
        List
          (Array.to_list
             (Array.mapi
                (fun i (d : device_stats) ->
                  Obj
                    [
                      ("device", Int i);
                      ("generated", Int d.generated);
                      ("completed", Int d.completed);
                      ("degraded", Int d.degraded);
                      ("dropped", Int d.dropped);
                      ("timed_out", Int d.timed_out);
                      ("shed", Int d.shed);
                      ("deadline_hits", Int d.deadline_hits);
                      ("mean_latency_s", Float (Es_util.Stats.mean d.latency));
                    ])
                r.per_device)) );
    ]

let record_to reg (r : report) =
  let set name v = Es_obs.Metric.set (Es_obs.Metric.gauge reg name) v in
  set "report/dsr" r.dsr;
  set "report/dsr_admitted" r.dsr_admitted;
  set "report/mean_latency_s" r.mean_latency_s;
  set "report/p50_s" r.p50_s;
  set "report/p95_s" r.p95_s;
  set "report/p99_s" r.p99_s;
  set "report/generated" (float_of_int r.total_generated);
  set "report/completed" (float_of_int r.total_completed);
  set "report/dropped" (float_of_int r.total_dropped);
  set "report/degraded" (float_of_int r.total_degraded);
  set "report/timed_out" (float_of_int r.total_timed_out);
  set "report/shed" (float_of_int r.total_shed);
  set "report/measured_duration_s" r.measured_duration_s;
  Array.iteri
    (fun s u ->
      Es_obs.Metric.set
        (Es_obs.Metric.gauge reg ~labels:[ ("server", string_of_int s) ] "report/server_utilization")
        u)
    r.server_utilization
