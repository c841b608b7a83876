(* [Es_workload.Heavy.trace] as the original list build: each device's
   arrivals consed onto one list, then a stable sort by (time, device). *)

open Es_edge

let piecewise ~seed ~duration_s ~rate_profile cluster =
  let rng = Es_util.Prng.create seed in
  let events = ref [] in
  Array.iter
    (fun (dev : Cluster.device) ->
      let dev_rng = Es_util.Prng.split rng in
      let rec go t =
        if t < duration_s then begin
          let rate = dev.Cluster.rate *. Float.max 1e-9 (rate_profile t) in
          let t' = t +. Es_util.Prng.exponential dev_rng rate in
          if t' < duration_s then begin
            events := (t', dev.Cluster.dev_id) :: !events;
            go t'
          end
        end
      in
      go 0.0)
    cluster.Cluster.devices;
  let arr = Array.of_list !events in
  Array.sort
    (fun (t1, d1) (t2, d2) -> match Float.compare t1 t2 with 0 -> Int.compare d1 d2 | c -> c)
    arr;
  arr
