open Es_edge

(* A device the spec could have generated; [rate] is the nominal req/s
   before per-device jitter. *)
type archetype = {
  proc : Processor.t;
  link : Link.t;
  model : Es_dnn.Graph.t;
  rate : float;
  deadline : float;
  accuracy_floor : float;
}

let check_spec (spec : Scenario.spec) =
  if spec.Scenario.device_mix = [] then invalid_arg "Heavy: empty device mix";
  if spec.Scenario.model_names = [] then invalid_arg "Heavy: no models";
  let check_range what (lo, hi) =
    if lo > hi || lo <= 0.0 then invalid_arg (Printf.sprintf "Heavy: bad %s range" what)
  in
  check_range "rate" spec.Scenario.rate_range;
  check_range "deadline" spec.Scenario.deadline_range

(* Same per-archetype draw sequence as Scenario.build's per-device one, so
   an archetype is exactly "a device the spec could have generated". *)
let draw_archetypes rng k (spec : Scenario.spec) =
  let graphs = Hashtbl.create 8 in
  let graph_of name =
    match Hashtbl.find_opt graphs name with
    | Some g -> g
    | None ->
        let g = Es_dnn.Zoo.by_name name in
        Hashtbl.add graphs name g;
        g
  in
  let mix =
    Array.of_list (List.map (fun (p, l, w) -> ((p, l), w)) spec.Scenario.device_mix)
  in
  let models = Array.of_list spec.Scenario.model_names in
  Array.init k (fun _ ->
      let proc, link = Es_util.Prng.weighted_choice rng mix in
      let model_name = models.(Es_util.Prng.int rng (Array.length models)) in
      let model = graph_of model_name in
      let lo, hi = spec.Scenario.rate_range in
      let rate = Es_util.Prng.float_in rng lo hi in
      let lo, hi = spec.Scenario.deadline_range in
      let deadline = Es_util.Prng.float_in rng lo hi in
      let slo, shi = spec.Scenario.accuracy_slack in
      let full =
        (Es_surgery.Accuracy.profile_of_model model_name).Es_surgery.Accuracy.full_accuracy
      in
      let accuracy_floor = full *. Es_util.Prng.float_in rng slo shi in
      { proc; link; model; rate; deadline; accuracy_floor })

(* Log-normal sigma of the per-device rate jitter, and the population each
   server is provisioned for. *)
let rate_spread = 0.1
let devices_per_server = 40

let population ?(k = 4) ~devices spec =
  if devices < 1 then invalid_arg "Heavy.population: devices must be >= 1";
  if k < 1 then invalid_arg "Heavy.population: k must be >= 1";
  check_spec spec;
  let rng = Es_util.Prng.create spec.Scenario.seed in
  let archs = draw_archetypes rng k spec in
  (* mu = -sigma^2/2 keeps the jitter mean-preserving, so the population's
     aggregate rate stays ~devices x the archetype mean however wide the
     spread. *)
  let jitter () =
    Es_util.Prng.lognormal rng ~mu:(-.rate_spread *. rate_spread /. 2.0) ~sigma:rate_spread
  in
  let device_list =
    List.init devices (fun i ->
        let a = archs.(Es_util.Prng.int rng k) in
        Cluster.device ~id:i ~proc:a.proc ~link:a.link ~model:a.model
          ~rate:(a.rate *. jitter ()) ~deadline:a.deadline ~accuracy_floor:a.accuracy_floor ())
  in
  let base = Array.of_list spec.Scenario.servers in
  if Array.length base = 0 then invalid_arg "Heavy.population: spec has no servers";
  let n_srv =
    max (Array.length base) ((devices + devices_per_server - 1) / devices_per_server)
  in
  let servers =
    List.init n_srv (fun i ->
        let proc, mbps = base.(i mod Array.length base) in
        Cluster.server ~id:i ~proc ~ap_bandwidth_mbps:mbps ())
  in
  Cluster.make ~devices:device_list ~servers

let trace ~seed ~duration_s ~profile cluster =
  let rng = Es_util.Prng.create seed in
  (* Flat time/device arrays grown by doubling, without a cons + tuple per
     event.  Events land device-major: the arrivals of the [r]-th device
     with any are one time-sorted run, from [run_head.(r)] up to
     [run_stop.(r)]; the merge below advances the head. *)
  let cap = ref 1024 in
  let times = ref (Array.make !cap 0.0) in
  let devs = ref (Array.make !cap 0) in
  let n = ref 0 in
  let push t d =
    if !n >= !cap then begin
      let ncap = 2 * !cap in
      let ts = Array.make ncap 0.0 and ds = Array.make ncap 0 in
      Array.blit !times 0 ts 0 !cap;
      Array.blit !devs 0 ds 0 !cap;
      times := ts;
      devs := ds;
      cap := ncap
    end;
    (!times).(!n) <- t;
    (!devs).(!n) <- d;
    incr n
  in
  let nd = Cluster.n_devices cluster in
  let run_head = Array.make nd 0 and run_stop = Array.make nd 0 in
  let runs = ref 0 in
  Array.iter
    (fun (dev : Cluster.device) ->
      let dev_rng = Es_util.Prng.split rng in
      let first = !n in
      let rec go t =
        if t < duration_s then begin
          let rate = dev.Cluster.rate *. Float.max 1e-9 (profile t) in
          let t' = t +. Es_util.Prng.exponential dev_rng rate in
          if t' < duration_s then begin
            push t' dev.Cluster.dev_id;
            go t'
          end
        end
      in
      go 0.0;
      if !n > first then begin
        run_head.(!runs) <- first;
        run_stop.(!runs) <- !n;
        incr runs
      end)
    cluster.Cluster.devices;
  (* Merge the runs through a binary min-heap of run heads keyed on (time,
     device): the order a sort by (time, device) gives, in O(n log runs). *)
  let times = !times and devs = !devs in
  let heap = Array.init !runs (fun r -> r) and size = ref !runs in
  let before a b =
    let i = run_head.(a) and j = run_head.(b) in
    times.(i) < times.(j) || (times.(i) = times.(j) && devs.(i) < devs.(j))
  in
  let rec sift_down k =
    let l = (2 * k) + 1 in
    if l < !size then begin
      let c = if l + 1 < !size && before heap.(l + 1) heap.(l) then l + 1 else l in
      if before heap.(c) heap.(k) then begin
        let top = heap.(k) in
        heap.(k) <- heap.(c);
        heap.(c) <- top;
        sift_down c
      end
    end
  in
  for k = (!size / 2) - 1 downto 0 do
    sift_down k
  done;
  let out = Array.make !n (0.0, 0) in
  for o = 0 to !n - 1 do
    let r = heap.(0) in
    let i = run_head.(r) in
    out.(o) <- (times.(i), devs.(i));
    run_head.(r) <- i + 1;
    if i + 1 = run_stop.(r) then begin
      decr size;
      heap.(0) <- heap.(!size)
    end;
    sift_down 0
  done;
  out

let profile_names = [ "constant"; "diurnal"; "flash"; "diurnal-flash"; "overload" ]

let profile_by_name ~duration_s name =
  let diurnal () = Profiles.diurnal ~period_s:duration_s ~amplitude:0.6 in
  let flash () =
    Profiles.flash_crowd ~at_s:(0.5 *. duration_s) ~rise_s:(0.05 *. duration_s)
      ~decay_s:(0.1 *. duration_s) ~factor:8.0
  in
  match name with
  | "constant" -> Profiles.constant 1.0
  | "diurnal" -> diurnal ()
  | "flash" -> flash ()
  | "diurnal-flash" -> Profiles.product (diurnal ()) (flash ())
  | "overload" ->
      (* A flash crowd that never relaxes: 3x nominal from the quarter mark
         to the end of the run — the overload-protection stress shape. *)
      Profiles.sustained_flash ~at_s:(0.25 *. duration_s) ~rise_s:(0.05 *. duration_s)
        ~factor:3.0
  | _ -> raise Not_found
