open Es_edge

type admission = { slack : float }

let default_admission = { slack = 1.0 }

type breaker_cfg = {
  window : int;
  failure_rate : float;
  min_samples : int;
  cooldown_s : float;
  half_open_probes : int;
  shed_on_open : bool;
}

let default_breaker =
  {
    window = 32;
    failure_rate = 0.5;
    min_samples = 8;
    cooldown_s = 5.0;
    half_open_probes = 3;
    shed_on_open = false;
  }

type brownout_mode = Local_only | Min_server

type brownout_cfg = {
  high_watermark : int;
  low_watermark : int;
  check_every_s : float;
  mode : brownout_mode;
}

let default_brownout =
  { high_watermark = 32; low_watermark = 8; check_every_s = 0.5; mode = Local_only }

type rate_limit = { rate_per_server : float; burst : float }

let default_rate_limit = { rate_per_server = 0.0; burst = 20.0 }

type policy = {
  admission : admission option;
  breaker : breaker_cfg option;
  brownout : brownout_cfg option;
  rate_limit : rate_limit option;
}

let off = { admission = None; breaker = None; brownout = None; rate_limit = None }

let is_off p =
  Option.is_none p.admission && Option.is_none p.breaker && Option.is_none p.brownout
  && Option.is_none p.rate_limit

let validate p =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  (match p.admission with
  | Some a ->
      if not (Float.is_finite a.slack) || a.slack <= 0.0 then
        bad "Overload: admission slack must be finite and > 0 (got %g)" a.slack
  | None -> ());
  (match p.breaker with
  | Some b ->
      if b.window < 1 then bad "Overload: breaker window must be >= 1";
      if not (Float.is_finite b.failure_rate) || b.failure_rate <= 0.0 || b.failure_rate > 1.0
      then bad "Overload: breaker failure_rate must be in (0, 1]";
      if b.min_samples < 1 || b.min_samples > b.window then
        bad "Overload: breaker min_samples must be in [1, window]";
      if not (Float.is_finite b.cooldown_s) || b.cooldown_s < 0.0 then
        bad "Overload: breaker cooldown_s must be finite and >= 0";
      if b.half_open_probes < 1 then bad "Overload: breaker half_open_probes must be >= 1"
  | None -> ());
  (match p.brownout with
  | Some b ->
      if b.high_watermark < 1 then bad "Overload: brownout high watermark must be >= 1";
      if b.low_watermark < 0 || b.low_watermark >= b.high_watermark then
        bad "Overload: brownout low watermark must be in [0, high)";
      if not (Float.is_finite b.check_every_s) || b.check_every_s <= 0.0 then
        bad "Overload: brownout check_every_s must be finite and > 0"
  | None -> ());
  match p.rate_limit with
  | Some r ->
      if not (Float.is_finite r.rate_per_server) || r.rate_per_server < 0.0 then
        bad "Overload: rate_per_server must be finite and >= 0 (0 = capacity-derived)";
      if not (Float.is_finite r.burst) || r.burst < 1.0 then
        bad "Overload: rate-limit burst must be finite and >= 1"
  | None -> ()

(* ---------- degraded-plan selection (shared with Es_joint.Recover) ---------- *)

(* [plans] meeting [dev]'s accuracy floor, or all of them when none does. *)
let floor_first (dev : Cluster.device) plans =
  let meets p = p.Es_surgery.Plan.accuracy >= dev.Cluster.accuracy_floor -. 1e-9 in
  match List.filter meets plans with [] -> plans | ok -> ok

let fastest_among (dev : Cluster.device) plans =
  let time = Es_surgery.Plan.device_time dev.Cluster.proc.Processor.perf in
  match Es_util.Numeric.argmin_by time plans with
  | Some p -> p
  | None -> Es_surgery.Plan.device_only dev.Cluster.model

let device_only_plans (dev : Cluster.device) =
  List.filter Es_surgery.Plan.is_device_only
    (Es_surgery.Candidate.pareto_candidates dev.Cluster.model)

let fastest_local dev = fastest_among dev (device_only_plans dev)

let local_decisions cluster =
  Array.map
    (fun (dev : Cluster.device) ->
      let plan = fastest_among dev (floor_first dev (device_only_plans dev)) in
      Decision.make ~device:dev.Cluster.dev_id ~server:0 ~plan ())
    cluster.Cluster.devices

(* The lowest-server-load offloading plan on the Pareto frontier: the
   brownout swap that keeps the device remote but minimizes what it asks of
   the congested server.  Plans meeting the device's accuracy floor win over
   plans that merely offload less. *)
let min_server_plan (dev : Cluster.device) =
  Es_surgery.Candidate.pareto_candidates dev.Cluster.model
  |> List.filter (fun p -> not (Es_surgery.Plan.is_device_only p))
  |> floor_first dev |> Es_util.Numeric.argmin_by Es_surgery.Plan.srv_flops

(* ---------- circuit breaker ---------- *)

module Breaker = struct
  type state = Closed | Half_open | Open

  type t = {
    cfg : breaker_cfg;
    ring : Bytes.t;  (* 1 = failure, ring buffer of the last [window] outcomes *)
    mutable n : int;
    mutable head : int;
    mutable failures : int;
    mutable state : state;
    mutable opened_at : float;
    mutable probes_inflight : int;
    mutable probe_successes : int;
    mutable opens : int;
    on_transition : state -> unit;
  }

  let create ?(on_transition = fun _ -> ()) cfg =
    {
      cfg;
      ring = Bytes.make cfg.window '\000';
      n = 0;
      head = 0;
      failures = 0;
      state = Closed;
      opened_at = 0.0;
      probes_inflight = 0;
      probe_successes = 0;
      opens = 0;
      on_transition;
    }

  let state t = t.state
  let opens t = t.opens
  let state_code = function Closed -> 0 | Half_open -> 1 | Open -> 2

  let reset_ring t =
    Bytes.fill t.ring 0 t.cfg.window '\000';
    t.n <- 0;
    t.head <- 0;
    t.failures <- 0

  let transition t s =
    t.state <- s;
    t.on_transition s

  let allow t ~now =
    match t.state with
    | Closed -> true
    | Open ->
        if now >= t.opened_at +. t.cfg.cooldown_s then begin
          transition t Half_open;
          t.probe_successes <- 0;
          t.probes_inflight <- 1;
          true
        end
        else false
    | Half_open ->
        if t.probes_inflight < t.cfg.half_open_probes then begin
          t.probes_inflight <- t.probes_inflight + 1;
          true
        end
        else false

  let trip t ~now =
    t.opens <- t.opens + 1;
    t.opened_at <- now;
    t.probes_inflight <- 0;
    t.probe_successes <- 0;
    reset_ring t;
    transition t Open

  let record t ~now ~ok =
    match t.state with
    | Open -> ()  (* stragglers from before the trip carry no signal *)
    | Half_open ->
        t.probes_inflight <- max 0 (t.probes_inflight - 1);
        if ok then begin
          t.probe_successes <- t.probe_successes + 1;
          if t.probe_successes >= t.cfg.half_open_probes then begin
            reset_ring t;
            transition t Closed
          end
        end
        else trip t ~now
    | Closed ->
        let fail_bit = if ok then '\000' else '\001' in
        if t.n = t.cfg.window then begin
          if Bytes.get t.ring t.head = '\001' then t.failures <- t.failures - 1
        end
        else t.n <- t.n + 1;
        if Bytes.get t.ring t.head <> fail_bit then Bytes.set t.ring t.head fail_bit;
        t.head <- (t.head + 1) mod t.cfg.window;
        if not ok then t.failures <- t.failures + 1;
        if
          t.n >= t.cfg.min_samples
          && float_of_int t.failures >= t.cfg.failure_rate *. float_of_int t.n
        then trip t ~now
end
