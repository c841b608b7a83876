open Es_edge
open Es_surgery

type allocator = Minmax_alloc | Sum_sqrt | Equal | Proportional

type staged = {
  cluster : Cluster.t;
  assignment : int array;
  plans : Plan.t array;
  offloaders : int;
  items : Minmax.items;
  first : int array;
  slot : int array;
  device_s : float array;
  up_bytes : float array;
  down_bytes : float array;
  theta : float array;
}

let stage cluster ~assignment ~plans =
  let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
  if Array.length assignment <> nd || Array.length plans <> nd then
    invalid_arg "Policy.decisions: assignment/plans must cover every device";
  let m = ref 0 in
  for i = 0 to nd - 1 do
    if not (Plan.is_device_only plans.(i)) then begin
      let s = assignment.(i) in
      if s < 0 || s >= ns then invalid_arg "Policy.decisions: server out of range";
      incr m
    end
  done;
  let m = !m in
  let slot = Es_util.Scratch.borrow_ints nd in
  let first = Es_util.Scratch.borrow_ints (ns + 1) in
  let device_s = Es_util.Scratch.borrow_floats nd in
  let items =
    let fixed_s = Es_util.Scratch.borrow_floats m in
    let bits = Es_util.Scratch.borrow_floats m in
    let work_s = Es_util.Scratch.borrow_floats m in
    let deadline_s = Es_util.Scratch.borrow_floats m in
    let peak_bps = Es_util.Scratch.borrow_floats m in
    let rate = Es_util.Scratch.borrow_floats m in
    { Minmax.fixed_s; bits; work_s; deadline_s; peak_bps; rate }
  in
  let up_bytes = Es_util.Scratch.borrow_floats m in
  let down_bytes = Es_util.Scratch.borrow_floats m in
  let theta = Es_util.Scratch.borrow_floats 1 in
  (* Counting sort of the offloaders by server, stable in device order:
     first.(s + 1) counts server s, the prefix sums turn first.(s) into
     server s's start, placement advances it to server s's end, and the
     final shift restores the starts. *)
  Array.fill first 0 (ns + 1) 0;
  for i = 0 to nd - 1 do
    if not (Plan.is_device_only plans.(i)) then
      first.(assignment.(i) + 1) <- first.(assignment.(i) + 1) + 1
  done;
  for s = 1 to ns do
    first.(s) <- first.(s) + first.(s - 1)
  done;
  for i = 0 to nd - 1 do
    let plan = plans.(i) and dev = cluster.Cluster.devices.(i) in
    let dev_s = Plan.device_time dev.Cluster.proc.Processor.perf plan in
    device_s.(i) <- dev_s;
    if Plan.is_device_only plan then slot.(i) <- -1
    else begin
      let s = assignment.(i) in
      let k = first.(s) in
      first.(s) <- k + 1;
      slot.(i) <- k;
      let up = Plan.transfer_bytes plan and down = Plan.result_bytes plan in
      let srv = cluster.Cluster.servers.(s) in
      items.Minmax.fixed_s.(k) <- dev_s +. dev.Cluster.link.Link.rtt_s;
      items.Minmax.bits.(k) <- 8.0 *. (up +. down);
      items.Minmax.work_s.(k) <- Plan.server_time srv.Cluster.sproc.Processor.perf plan;
      items.Minmax.deadline_s.(k) <- dev.Cluster.deadline;
      items.Minmax.peak_bps.(k) <- dev.Cluster.link.Link.peak_bps;
      items.Minmax.rate.(k) <- dev.Cluster.rate;
      up_bytes.(k) <- up;
      down_bytes.(k) <- down
    end
  done;
  for s = ns downto 1 do
    first.(s) <- first.(s - 1)
  done;
  first.(0) <- 0;
  {
    cluster;
    assignment;
    plans;
    offloaders = m;
    items;
    first;
    slot;
    device_s;
    up_bytes;
    down_bytes;
    theta;
  }

let release st =
  Es_util.Scratch.release_floats st.theta;
  Es_util.Scratch.release_floats st.down_bytes;
  Es_util.Scratch.release_floats st.up_bytes;
  Es_util.Scratch.release_floats st.items.Minmax.rate;
  Es_util.Scratch.release_floats st.items.Minmax.peak_bps;
  Es_util.Scratch.release_floats st.items.Minmax.deadline_s;
  Es_util.Scratch.release_floats st.items.Minmax.work_s;
  Es_util.Scratch.release_floats st.items.Minmax.bits;
  Es_util.Scratch.release_floats st.items.Minmax.fixed_s;
  Es_util.Scratch.release_floats st.device_s;
  Es_util.Scratch.release_ints st.first;
  Es_util.Scratch.release_ints st.slot

(* Decision.make's grant checks, in device order with its messages, run on
   every successful allocation: a rule whose grants lose the allocation
   step's race raises exactly where building its decisions would have. *)
let check_grants st ~bw ~share =
  for i = 0 to Array.length st.plans - 1 do
    let k = st.slot.(i) in
    if k >= 0 then begin
      if bw.(k) < 0.0 || share.(k) < 0.0 then invalid_arg "Decision.make: negative resource grant";
      if bw.(k) <= 0.0 then invalid_arg "Decision.make: offloading needs bandwidth";
      if share.(k) <= 0.0 && Plan.srv_flops st.plans.(i) > 0.0 then
        invalid_arg "Decision.make: offloading needs a compute share"
    end
  done

let allocate allocator st ~bw ~share =
  let ns = Cluster.n_servers st.cluster in
  let ok = ref true in
  let s = ref 0 in
  while !ok && !s < ns do
    let pos = st.first.(!s) in
    let len = st.first.(!s + 1) - pos in
    if len > 0 then begin
      let bandwidth_bps = st.cluster.Cluster.servers.(!s).Cluster.ap_bandwidth_bps in
      let items = st.items in
      match allocator with
      | Minmax_alloc -> ok := Minmax.solve ~bandwidth_bps items ~pos ~len ~bw ~share ~theta:st.theta
      | Sum_sqrt -> Share.sqrt_rule ~bandwidth_bps items ~pos ~len ~bw ~share
      | Equal -> Share.equal ~bandwidth_bps items ~pos ~len ~bw ~share
      | Proportional -> Share.proportional ~bandwidth_bps items ~pos ~len ~bw ~share
    end;
    incr s
  done;
  if !ok then check_grants st ~bw ~share;
  !ok

let decisions_of st ~bw ~share =
  Array.init (Array.length st.plans) (fun i ->
      let k = st.slot.(i) and plan = st.plans.(i) in
      if k < 0 then Decision.make ~device:i ~server:(max 0 st.assignment.(i)) ~plan ()
      else
        Decision.make ~device:i ~server:st.assignment.(i) ~plan ~bandwidth_bps:bw.(k)
          ~compute_share:share.(k) ())

let decisions allocator cluster ~assignment ~plans =
  let st = stage cluster ~assignment ~plans in
  let bw = Es_util.Scratch.borrow_floats st.offloaders in
  let share = Es_util.Scratch.borrow_floats st.offloaders in
  let release_all () =
    Es_util.Scratch.release_floats share;
    Es_util.Scratch.release_floats bw;
    release st
  in
  match if allocate allocator st ~bw ~share then Some (decisions_of st ~bw ~share) else None with
  | out ->
      release_all ();
      out
  | exception e ->
      release_all ();
      raise e
