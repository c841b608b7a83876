(* Fault-schedule compilation: parsing, sorting, sugar, the seeded
   stochastic generator the tests draw schedules from (Es_oracle.Faults),
   and the availability query. *)

open Es_sim

let event : Faults.event Alcotest.testable =
  Alcotest.testable Faults.pp_event ( = )

let events_of t = Faults.events t

(* ---------- scripted ---------- *)

let test_scripted_sorts () =
  let t =
    Faults.scripted
      [ (30.0, Faults.Server_up 0); (10.0, Faults.Server_down 0); (20.0, Faults.Link_outage 3) ]
  in
  Alcotest.(check (list (pair (float 0.0) event)))
    "stable time sort"
    [
      (10.0, Faults.Server_down 0); (20.0, Faults.Link_outage 3); (30.0, Faults.Server_up 0);
    ]
    (events_of t)

let test_scripted_ties_keep_order () =
  (* Equal timestamps must apply in scripted order: down then up at t=5
     leaves the server up; the compiled schedule must preserve that. *)
  let t = Faults.scripted [ (5.0, Faults.Server_down 1); (5.0, Faults.Server_up 1) ] in
  Alcotest.(check (list (pair (float 0.0) event)))
    "tie order preserved"
    [ (5.0, Faults.Server_down 1); (5.0, Faults.Server_up 1) ]
    (events_of t);
  Alcotest.(check (list int)) "net effect: up" [] (Faults.down_at t ~time:6.0)

let test_scripted_rejects_bad_input () =
  Alcotest.check_raises "negative time"
    (Invalid_argument "Faults: event time must be finite and >= 0, got -1") (fun () ->
      ignore (Faults.scripted [ (-1.0, Faults.Server_down 0) ]));
  (match
     try
       ignore (Faults.scripted [ (1.0, Faults.Link_degraded (0, 0.0)) ]);
       `No_raise
     with Invalid_argument _ -> `Raised
   with
  | `Raised -> ()
  | `No_raise -> Alcotest.fail "zero factor accepted");
  match
    try
      ignore (Faults.scripted [ (1.0, Faults.Straggler (0, Float.nan)) ]);
      `No_raise
    with Invalid_argument _ -> `Raised
  with
  | `Raised -> ()
  | `No_raise -> Alcotest.fail "NaN factor accepted"

let test_sugar () =
  Alcotest.(check (list (pair (float 0.0) event)))
    "crash with repair"
    [ (20.0, Faults.Server_down 2); (30.0, Faults.Server_up 2) ]
    (Faults.crash ~at:20.0 ~for_s:10.0 2);
  Alcotest.(check (list (pair (float 0.0) event)))
    "crash without repair" [ (20.0, Faults.Server_down 2) ] (Faults.crash ~at:20.0 2);
  Alcotest.(check (list (pair (float 0.0) event)))
    "outage"
    [ (5.0, Faults.Link_outage 7); (6.5, Faults.Link_restored 7) ]
    (Faults.outage ~at:5.0 ~for_s:1.5 7);
  Alcotest.(check (list (pair (float 0.0) event)))
    "degrade restores to factor 1"
    [ (5.0, Faults.Link_degraded (1, 0.25)); (9.0, Faults.Link_degraded (1, 1.0)) ]
    (Faults.degrade ~at:5.0 ~for_s:4.0 ~factor:0.25 1);
  Alcotest.(check (list (pair (float 0.0) event)))
    "straggle restores to factor 1"
    [ (5.0, Faults.Straggler (0, 3.0)); (9.0, Faults.Straggler (0, 1.0)) ]
    (Faults.straggle ~at:5.0 ~for_s:4.0 ~factor:3.0 0)

(* ---------- spec parsing ---------- *)

let test_of_spec_round_trip () =
  match Faults.of_spec "down:0@20+10, straggle:1:2.5@5+10; degrade:3:0.5@2+4" with
  | Error e -> Alcotest.fail e
  | Ok evs ->
      let t = Faults.scripted evs in
      Alcotest.(check (list (pair (float 1e-9) event)))
        "parsed and sorted"
        [
          (2.0, Faults.Link_degraded (3, 0.5));
          (5.0, Faults.Straggler (1, 2.5));
          (6.0, Faults.Link_degraded (3, 1.0));
          (15.0, Faults.Straggler (1, 1.0));
          (20.0, Faults.Server_down 0);
          (30.0, Faults.Server_up 0);
        ]
        (events_of t)

let test_of_spec_errors () =
  let is_error s =
    match Faults.of_spec s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
  in
  is_error "frob:0@20";
  is_error "down:0";
  is_error "down:0@-5";
  is_error "outage:1@5";
  (* outage requires a duration *)
  is_error "degrade:1:0@5+2";
  (* factor must be positive *)
  is_error "down:x@20"

(* Any spec string parses to [Ok] or [Error], never an exception.  The
   strings follow the token grammar ([kind:index[:factor]@time[+duration]],
   comma-separated) with random kinds and numbers, and now and then a wrong
   separator, so that both well-formed and broken specs reach every stage
   of the parser. *)
let prop_of_spec_never_raises =
  let open QCheck.Gen in
  let num = oneofl [ "0"; "1"; "3"; "-2"; "2.5"; "0.5"; "1e308"; "1e999"; "nan"; "inf"; "x"; "" ] in
  let kind = oneofl [ "down"; "up"; "outage"; "degrade"; "straggle"; "frob"; "" ] in
  let sep s = frequency [ (6, return s); (1, oneofl [ ""; ":"; "@"; "+"; ","; " " ]) ] in
  let opt g = oneof [ return ""; map (String.concat "") (flatten_l g) ] in
  let token =
    map (String.concat "")
      (flatten_l
         [ kind; sep ":"; num; opt [ sep ":"; num ]; sep "@"; num; opt [ sep "+"; num ] ])
  in
  let spec = map (String.concat ",") (list_size (int_bound 4) token) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"spec never raises" (QCheck.make ~print:Fun.id spec)
       (fun spec -> match Faults.of_spec spec with Ok _ | Error _ -> true))

let test_of_spec_or_file () =
  let path = Filename.temp_file "faults" ".txt" in
  let oc = open_out path in
  output_string oc "# crash then a straggler\ndown:0@20+10\n\nstraggle:1:2.0@5+10\n";
  close_out oc;
  (match Faults.of_spec_or_file path with
  | Error e -> Alcotest.fail e
  | Ok t ->
      Alcotest.(check int) "four events from file" 4 (List.length (events_of t)));
  Sys.remove path;
  match Faults.of_spec_or_file "down:1@3" with
  | Error e -> Alcotest.fail e
  | Ok t ->
      Alcotest.(check (list (pair (float 0.0) event)))
        "inline fallback" [ (3.0, Faults.Server_down 1) ] (events_of t)

(* ---------- stochastic generator ---------- *)

let random_schedule seed =
  Es_oracle.Faults.random ~seed ~duration_s:500.0 ~n_servers:3 ~n_devices:8
    ~server_mtbf_s:100.0 ~server_mttr_s:10.0 ~outage_rate:0.01 ~outage_mean_s:5.0
    ~straggler_rate:0.005 ~straggler_factor:2.0 ~straggler_mean_s:20.0 ()

let test_random_deterministic () =
  let a = random_schedule 42 and b = random_schedule 42 in
  Alcotest.(check (list (pair (float 0.0) event))) "same seed, same schedule" (events_of a)
    (events_of b);
  let c = random_schedule 43 in
  Alcotest.(check bool) "different seed diverges" true (events_of a <> events_of c)

let test_random_validates () =
  let t = random_schedule 7 in
  Alcotest.(check bool) "produces events" true (not (Faults.is_empty t));
  (match Faults.validate ~n_devices:8 ~n_servers:3 t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Faults.validate ~n_devices:8 ~n_servers:1 t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "server indices beyond 0 must fail validation for n_servers=1"

let test_validate_indices () =
  let t = Faults.scripted [ (1.0, Faults.Link_outage 5) ] in
  (match Faults.validate ~n_devices:6 ~n_servers:1 t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Faults.validate ~n_devices:5 ~n_servers:1 t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "device 5 of 5 must be out of range"

(* ---------- availability queries ---------- *)

let test_down_at () =
  let t = Faults.scripted (Faults.crash ~at:20.0 ~for_s:10.0 1 @ Faults.crash ~at:25.0 0) in
  Alcotest.(check (list int)) "before" [] (Faults.down_at t ~time:19.9);
  Alcotest.(check (list int)) "at the crash instant" [ 1 ] (Faults.down_at t ~time:20.0);
  Alcotest.(check (list int)) "both down, sorted" [ 0; 1 ] (Faults.down_at t ~time:29.0);
  Alcotest.(check (list int)) "after repair" [ 0 ] (Faults.down_at t ~time:31.0)

(* ---------- repeat-run equality under faults ---------- *)

(* The whole fault machinery (evictions, retries, timeouts, fallbacks, and
   overload shedding on top) draws no hidden state: two runs of the same
   inputs must produce field-for-field identical reports. *)

let faulty_report ?(overload = Es_sim.Overload.off) faults =
  let c = Es_edge.Scenario.build Es_edge.Scenario.default in
  let ds = Es_baselines.Baselines.neurosurgeon.Es_baselines.Baselines.solve c in
  let options =
    {
      Runner.default_options with
      Runner.duration_s = 40.0;
      faults;
      resilience = Some Runner.default_resilience;
      overload;
    }
  in
  Runner.run ~options c ds

let mixed_faults =
  (* One of everything the injector can throw. *)
  Faults.scripted
    (Faults.crash ~at:10.0 ~for_s:8.0 0
    @ Faults.outage ~at:15.0 ~for_s:3.0 2
    @ Faults.straggle ~at:20.0 ~for_s:10.0 ~factor:3.0 1
    @ [ (25.0, Faults.Link_degraded (4, 0.25)); (32.0, Faults.Link_restored 4) ])

let test_repeat_runs_equal_under_faults () =
  let r1 = faulty_report mixed_faults in
  let r2 = faulty_report mixed_faults in
  Alcotest.(check bool) "scripted faults: reports identical" true (r1 = r2);
  Alcotest.(check bool) "the run actually exercised resilience" true
    (r1.Metrics.total_degraded > 0 || r1.Metrics.total_timed_out > 0
   || r1.Metrics.total_dropped > 0)

let test_repeat_runs_equal_under_random_faults () =
  let faults =
    Es_oracle.Faults.random ~seed:5 ~duration_s:40.0 ~n_servers:2 ~n_devices:20
      ~server_mtbf_s:30.0 ~server_mttr_s:5.0 ~outage_rate:0.02 ~outage_mean_s:3.0
      ~straggler_rate:0.01 ~straggler_factor:2.5 ~straggler_mean_s:10.0 ()
  in
  let r1 = faulty_report faults in
  let r2 = faulty_report faults in
  Alcotest.(check bool) "random faults: reports identical" true (r1 = r2);
  Alcotest.(check bool) "random faults: conservation holds" true (Metrics.conserved r1)

let test_repeat_runs_equal_faults_with_overload () =
  (* Faults and overload protection together: breaker trips feed on the
     fault-induced failures, admission sheds on the induced backlog. *)
  let overload =
    {
      Es_sim.Overload.admission = Some Es_sim.Overload.default_admission;
      breaker =
        Some
          {
            Es_sim.Overload.default_breaker with
            Es_sim.Overload.window = 8;
            min_samples = 4;
          };
      brownout = Some Es_sim.Overload.default_brownout;
      rate_limit = Some Es_sim.Overload.default_rate_limit;
    }
  in
  let r1 = faulty_report ~overload mixed_faults in
  let r2 = faulty_report ~overload mixed_faults in
  Alcotest.(check bool) "faults + overload: reports identical" true (r1 = r2);
  Alcotest.(check bool) "conservation with shed holds" true (Metrics.conserved r1)

let () =
  Alcotest.run "es_sim_faults"
    [
      ( "scripted",
        [
          Alcotest.test_case "sorts" `Quick test_scripted_sorts;
          Alcotest.test_case "tie order" `Quick test_scripted_ties_keep_order;
          Alcotest.test_case "rejects bad input" `Quick test_scripted_rejects_bad_input;
          Alcotest.test_case "sugar" `Quick test_sugar;
        ] );
      ( "spec",
        [
          Alcotest.test_case "round trip" `Quick test_of_spec_round_trip;
          Alcotest.test_case "errors" `Quick test_of_spec_errors;
          prop_of_spec_never_raises;
          Alcotest.test_case "file or inline" `Quick test_of_spec_or_file;
        ] );
      ( "random",
        [
          Alcotest.test_case "deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "validates" `Quick test_random_validates;
        ] );
      ( "queries",
        [
          Alcotest.test_case "validate indices" `Quick test_validate_indices;
          Alcotest.test_case "down_at" `Quick test_down_at;
        ] );
      ( "repeat runs",
        [
          Alcotest.test_case "scripted faults equal" `Quick test_repeat_runs_equal_under_faults;
          Alcotest.test_case "random faults equal" `Quick
            test_repeat_runs_equal_under_random_faults;
          Alcotest.test_case "faults + overload equal" `Quick
            test_repeat_runs_equal_faults_with_overload;
        ] );
    ]
