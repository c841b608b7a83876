(** Device-side energy accounting.

    Battery draw is the second currency of edge inference (and the usual
    co-metric in this literature): offloading trades compute joules for
    radio joules.  The model integrates the device's power states over a
    request's analytic timeline:

      E = busy·t_compute + tx·t_uplink + idle·t_server_wait + rx·t_downlink

    Server energy is not billed to the device (the server draws from the
    wall), but {!server_joules} is exposed for operator-cost studies. *)

type breakdown = {
  compute_j : float;
  tx_j : float;
  wait_j : float;  (** idling while the server computes *)
  rx_j : float;
}

val breakdown : Cluster.t -> Decision.t -> breakdown
(** Per-request device energy in joules, from the analytic latency model. *)

val total : breakdown -> float

val per_request : Cluster.t -> Decision.t -> float

val fleet_joules_per_s : Cluster.t -> Decision.t array -> float
(** Aggregate device-side draw of a decision set (W). *)

val server_joules : Cluster.t -> Decision.t -> float
(** Energy billed to the server for one request: busy draw × server time. *)
