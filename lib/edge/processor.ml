type power = { idle_w : float; busy_w : float; tx_w : float; rx_w : float }

type t = {
  name : string;
  perf : Es_dnn.Profile.perf;
  power : power;
  mem_bytes : float;
}

let default_power = { idle_w = 1.0; busy_w = 4.0; tx_w = 1.2; rx_w = 0.8 }

let make ~name ~gflops ~mem_gbps ~overhead_us ?(power = default_power) ?(mem_gb = 2.0) () =
  {
    name;
    perf =
      Es_dnn.Profile.perf ~flops_per_s:(gflops *. 1e9) ~mem_bytes_per_s:(mem_gbps *. 1e9)
        ~layer_overhead_s:(overhead_us *. 1e-6);
    power;
    mem_bytes = mem_gb *. 1e9;
  }

(* Device-class power figures follow published board measurements (RPi 4
   ~3-6 W busy, Jetson Nano 5-10 W, TX2 7-15 W, phone SoC 2-4 W sustained);
   radios at WiFi/LTE-class transmit powers. *)

let iot_board =
  make ~name:"iot_board" ~gflops:4.0 ~mem_gbps:3.0 ~overhead_us:60.0
    ~power:{ idle_w = 0.8; busy_w = 2.5; tx_w = 0.9; rx_w = 0.6 }
    ~mem_gb:0.5 ()

let raspberry_pi =
  make ~name:"raspberry_pi" ~gflops:8.0 ~mem_gbps:4.0 ~overhead_us:40.0
    ~power:{ idle_w = 1.5; busy_w = 5.5; tx_w = 1.1; rx_w = 0.7 }
    ~mem_gb:2.0 ()

let smartphone =
  make ~name:"smartphone" ~gflops:40.0 ~mem_gbps:12.0 ~overhead_us:25.0
    ~power:{ idle_w = 0.6; busy_w = 3.5; tx_w = 1.4; rx_w = 0.9 }
    ~mem_gb:4.0 ()

let jetson_nano =
  make ~name:"jetson_nano" ~gflops:120.0 ~mem_gbps:20.0 ~overhead_us:15.0
    ~power:{ idle_w = 2.0; busy_w = 9.0; tx_w = 1.2; rx_w = 0.8 }
    ~mem_gb:4.0 ()

let server_power = { idle_w = 60.0; busy_w = 250.0; tx_w = 0.0; rx_w = 0.0 }

let edge_cpu =
  make ~name:"edge_cpu" ~gflops:600.0 ~mem_gbps:80.0 ~overhead_us:8.0 ~power:server_power
    ~mem_gb:64.0 ()

let edge_gpu_small =
  make ~name:"edge_gpu_small" ~gflops:2500.0 ~mem_gbps:250.0 ~overhead_us:6.0
    ~power:server_power ~mem_gb:32.0 ()

let edge_gpu =
  make ~name:"edge_gpu" ~gflops:6000.0 ~mem_gbps:450.0 ~overhead_us:5.0 ~power:server_power
    ~mem_gb:64.0 ()

let scaled p f =
  if f <= 0.0 then invalid_arg "Processor.scaled: non-positive factor";
  {
    p with
    name = Printf.sprintf "%s(x%.2f)" p.name f;
    perf =
      Es_dnn.Profile.perf
        ~flops_per_s:(p.perf.Es_dnn.Profile.flops_per_s *. f)
        ~mem_bytes_per_s:(p.perf.Es_dnn.Profile.mem_bytes_per_s *. f)
        ~layer_overhead_s:p.perf.Es_dnn.Profile.layer_overhead_s;
  }
