(* Instruments are lock-free atomics so handle operations stay cheap under
   --jobs (counters/gauges are mutated concurrently by solver trajectories);
   the registry table itself is mutex-protected so get-or-create from
   multiple domains cannot corrupt the Hashtbl or register twice. *)

type counter = int Atomic.t
type gauge = float Atomic.t
type value = Counter of int | Gauge of float | Histo of Histogram.t

type instrument = I_counter of counter | I_gauge of gauge | I_histo of Histogram.t

type key = string * (string * string) list

type registry = { tbl : (key, instrument) Hashtbl.t; lock : Mutex.t }

let create () : registry = { tbl = Hashtbl.create 64; lock = Mutex.create () }

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let get_or_create (reg : registry) name labels make =
  let key = (name, normalize_labels labels) in
  Mutex.lock reg.lock;
  let i =
    match Hashtbl.find_opt reg.tbl key with
    | Some i -> i
    | None ->
        let i = make () in
        Hashtbl.add reg.tbl key i;
        i
  in
  Mutex.unlock reg.lock;
  i

let counter reg ?(labels = []) name =
  match get_or_create reg name labels (fun () -> I_counter (Atomic.make 0)) with
  | I_counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Metric.counter: %s is registered as another kind" name)

let gauge reg ?(labels = []) name =
  match get_or_create reg name labels (fun () -> I_gauge (Atomic.make 0.0)) with
  | I_gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "Metric.gauge: %s is registered as another kind" name)

let histogram reg ?(labels = []) ?growth ?min_value ?buckets name =
  match
    get_or_create reg name labels (fun () ->
        I_histo (Histogram.create ?growth ?min_value ?buckets ()))
  with
  | I_histo h -> h
  | _ -> invalid_arg (Printf.sprintf "Metric.histogram: %s is registered as another kind" name)

let inc ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let counter_value c = Atomic.get c

let set g v = Atomic.set g v

let rec add g v =
  let old = Atomic.get g in
  if not (Atomic.compare_and_set g old (old +. v)) then add g v

type sample = { name : string; labels : (string * string) list; value : value }

let value_of_instrument = function
  | I_counter c -> Counter (Atomic.get c)
  | I_gauge g -> Gauge (Atomic.get g)
  | I_histo h -> Histo h

let snapshot reg =
  Mutex.lock reg.lock;
  let samples =
    (* es_lint: sorted — export order is fixed by the explicit sort below. *)
    Hashtbl.fold
      (fun (name, labels) i acc -> { name; labels; value = value_of_instrument i } :: acc)
      reg.tbl []
  in
  Mutex.unlock reg.lock;
  let cmp_label (k1, v1) (k2, v2) =
    match String.compare k1 k2 with 0 -> String.compare v1 v2 | c -> c
  in
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> List.compare cmp_label a.labels b.labels
      | c -> c)
    samples

let find reg ?(labels = []) name =
  Mutex.lock reg.lock;
  let v = Hashtbl.find_opt reg.tbl (name, normalize_labels labels) in
  Mutex.unlock reg.lock;
  Option.map value_of_instrument v
