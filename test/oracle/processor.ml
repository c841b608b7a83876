(* The end-device classes of [Es_edge.Processor] plus a Jetson TX2 GPU
   (~400 GFLOP/s), weakest first: the device sweep of the processor and
   plan-cost tests. *)

open Es_edge.Processor

let jetson_tx2 =
  make ~name:"jetson_tx2" ~gflops:400.0 ~mem_gbps:40.0 ~overhead_us:12.0
    ~power:{ idle_w = 3.0; busy_w = 14.0; tx_w = 1.2; rx_w = 0.8 }
    ~mem_gb:8.0 ()

let device_classes = [| iot_board; raspberry_pi; smartphone; jetson_nano; jetson_tx2 |]
