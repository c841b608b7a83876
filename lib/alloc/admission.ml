open Es_edge
open Es_surgery

type outcome = {
  decisions : Decision.t array;
  served : int list;
  rejected : int list;
}

module Token_bucket = struct
  type t = {
    mutable rate : float;
    burst : float;
    mutable tokens : float;
    mutable last : float;
  }

  let create ~rate ~burst () =
    if not (Float.is_finite rate) || rate < 0.0 then
      invalid_arg "Token_bucket.create: rate must be finite and >= 0";
    if not (Float.is_finite burst) || burst <= 0.0 then
      invalid_arg "Token_bucket.create: burst must be finite and > 0";
    { rate; burst; tokens = burst; last = 0.0 }

  (* Lazy refill: tokens accrue as a pure function of elapsed time, so the
     bucket is deterministic under any sampling pattern and costs nothing
     between requests.  Time must not go backwards (simulated clocks do
     not). *)
  let refill t ~now =
    if now > t.last then begin
      t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.last) *. t.rate));
      t.last <- now
    end

  let tokens t ~now =
    refill t ~now;
    t.tokens

  let try_take t ~now =
    refill t ~now;
    if t.tokens +. 1e-12 >= 1.0 then begin
      t.tokens <- t.tokens -. 1.0;
      true
    end
    else false

  let set_rate t ~now rate =
    if not (Float.is_finite rate) || rate < 0.0 then
      invalid_arg "Token_bucket.set_rate: rate must be finite and >= 0";
    refill t ~now;
    t.rate <- rate

  let rate t = t.rate
  let burst t = t.burst
end

let load_density cluster ~assignment plan dev_id =
  let dev = cluster.Cluster.devices.(dev_id) in
  let srv = cluster.Cluster.servers.(assignment.(dev_id)) in
  let work = Plan.server_time srv.Cluster.sproc.Processor.perf plan in
  let bw_frac =
    8.0 *. (Plan.transfer_bytes plan +. Plan.result_bytes plan) /. srv.Cluster.ap_bandwidth_bps
  in
  dev.Cluster.rate *. (work +. bw_frac)

type criterion = [ `Stable | `Deadlines ]

let control ?(weight = fun _ -> 1.0) ?(until = `Stable) ~local_plan cluster ~assignment ~plans =
  let nd = Cluster.n_devices cluster in
  if Array.length plans <> nd || Array.length assignment <> nd then
    invalid_arg "Admission.control: plans/assignment size mismatch";
  let plans = Array.copy plans in
  let rejected = ref [] in
  let satisfies decisions =
    match until with
    | `Stable -> true
    | `Deadlines ->
        Array.for_all
          (fun (d : Decision.t) ->
            (not (Decision.offloads d))
            || Latency.mm1_estimate cluster d
               <= cluster.Cluster.devices.(d.Decision.device).Cluster.deadline)
          decisions
  in
  let try_allocate () =
    match Policy.decisions Policy.Minmax_alloc cluster ~assignment ~plans with
    | Some ds when satisfies ds -> Some ds
    | Some _ | None -> None
  in
  let offloaders () =
    Array.to_list (Array.mapi (fun i p -> (i, p)) plans)
    |> List.filter (fun (_, p) -> not (Plan.is_device_only p))
    |> List.map fst
  in
  let rec loop () =
    match try_allocate () with
    | Some decisions ->
        let served = offloaders () in
        let rejected = List.rev !rejected in
        { decisions; served; rejected }
    | None -> (
        (* Evict the worst load-per-value offloader. *)
        let candidates = offloaders () in
        match
          Es_util.Numeric.argmax_by
            (fun i ->
              let dev = cluster.Cluster.devices.(i) in
              let w = Float.max (weight dev) 1e-9 in
              load_density cluster ~assignment plans.(i) i /. w)
            candidates
        with
        | None ->
            (* No offloaders left yet still infeasible: cannot happen — the
               min-max allocator accepts an empty item set. *)
            assert false
        | Some victim ->
            let fallback = local_plan victim in
            if not (Plan.is_device_only fallback) then
              invalid_arg "Admission.control: local_plan must be device-only";
            plans.(victim) <- fallback;
            rejected := victim :: !rejected;
            loop ())
  in
  loop ()
