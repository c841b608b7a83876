(* Seeded stochastic fault schedules over [0, duration_s): per-server
   crash/repair renewal processes (exponential up-times with mean
   [server_mtbf_s], repairs with mean [server_mttr_s]; default: no
   crashes), per-device Poisson link outages ([outage_rate] per second,
   exponential [outage_mean_s] durations; default none) and per-server
   Poisson straggler episodes.  Identical inputs give identical schedules.
   The fault tests and the runner pins draw their random schedules here. *)

open Es_sim.Faults

let random ~seed ~duration_s ~n_servers ~n_devices ?(server_mtbf_s = 0.0) ?(server_mttr_s = 5.0)
    ?(outage_rate = 0.0) ?(outage_mean_s = 2.0) ?(straggler_rate = 0.0) ?(straggler_factor = 4.0)
    ?(straggler_mean_s = 5.0) () =
  let root = Es_util.Prng.create seed in
  let evs = ref [] in
  let push time ev = if time < duration_s then evs := (time, ev) :: !evs in
  (* Per-entity independent streams, split in a fixed order so adding one
     fault class never perturbs another. *)
  let server_rngs = Array.init n_servers (fun _ -> Es_util.Prng.split root) in
  let device_rngs = Array.init n_devices (fun _ -> Es_util.Prng.split root) in
  let straggler_rngs = Array.init n_servers (fun _ -> Es_util.Prng.split root) in
  if server_mtbf_s > 0.0 then
    Array.iteri
      (fun s rng ->
        let t = ref 0.0 in
        while !t < duration_s do
          t := !t +. Es_util.Prng.exponential rng (1.0 /. server_mtbf_s);
          if !t < duration_s then begin
            push !t (Server_down s);
            t := !t +. Es_util.Prng.exponential rng (1.0 /. Float.max server_mttr_s 1e-9);
            push !t (Server_up s)
          end
        done)
      server_rngs;
  if outage_rate > 0.0 then
    Array.iteri
      (fun d rng ->
        let t = ref 0.0 in
        while !t < duration_s do
          t := !t +. Es_util.Prng.exponential rng outage_rate;
          if !t < duration_s then begin
            push !t (Link_outage d);
            t := !t +. Es_util.Prng.exponential rng (1.0 /. Float.max outage_mean_s 1e-9);
            push !t (Link_restored d)
          end
        done)
      device_rngs;
  if straggler_rate > 0.0 then
    Array.iteri
      (fun s rng ->
        let t = ref 0.0 in
        while !t < duration_s do
          t := !t +. Es_util.Prng.exponential rng straggler_rate;
          if !t < duration_s then begin
            push !t (Straggler (s, straggler_factor));
            t := !t +. Es_util.Prng.exponential rng (1.0 /. Float.max straggler_mean_s 1e-9);
            push !t (Straggler (s, 1.0))
          end
        done)
      straggler_rngs;
  scripted (List.rev !evs)
