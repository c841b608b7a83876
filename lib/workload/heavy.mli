(** Heavy-traffic workload family: device populations scaled to 10⁴–10⁵
    nodes and the arrival traces that drive million-request runs.

    A {!Scenario.spec} describes a population statistically but
    {!Es_edge.Scenario.build} draws every device independently — fine for
    tens of devices, wasteful for tens of thousands.  This module instead
    samples a handful of device {e archetypes} from the spec and stamps the
    population out of them: every device of an archetype shares its model
    graph (one {!Es_dnn.Graph.t} per archetype, not per device) and varies
    only by a log-normal rate jitter (sigma 0.1), which is also how real
    fleets look — a few hardware/model SKUs, correlated behavior within
    each.  Servers are provisioned at one per 40 devices.

    Everything is deterministic from the spec's seed. *)

type archetype = {
  name : string;
  proc : Es_edge.Processor.t;
  link : Es_edge.Link.t;
  model : Es_dnn.Graph.t;
  model_name : string;
  rate : float;  (** nominal req/s before per-device jitter *)
  deadline : float;
  accuracy_floor : float;
}

val archetypes : ?k:int -> Es_edge.Scenario.spec -> archetype array
(** [k] (default 4) archetypes drawn from the spec's device mix, model
    list and rate/deadline/slack ranges, deterministically from its seed.
    @raise Invalid_argument when [k < 1] or the spec is malformed. *)

val population : ?k:int -> devices:int -> Es_edge.Scenario.spec -> Es_edge.Cluster.t
(** [population ~devices spec] builds a [devices]-strong cluster by
    sampling an archetype per device and jittering its rate log-normally
    with sigma 0.1 (mean-preserving).  The server fleet is the spec's
    server list cycled up to one server per 40 devices (rounded up), so
    capacity scales with the population.
    @raise Invalid_argument when [devices < 1] or [k < 1]. *)

val trace :
  seed:int ->
  duration_s:float ->
  profile:Profiles.t ->
  Es_edge.Cluster.t ->
  (float * int) array
(** Sorted (time, device id) arrivals: per-device Poisson whose
    instantaneous rate is [device.rate × profile t], with the profile
    sampled at each inter-arrival step (accurate for profiles varying
    slower than the arrival process).  Generated into flat arrays, one
    time-sorted run per device, and merged through a heap of run heads,
    so a multi-million-event trace allocates O(1) per event beyond the
    result; the test suite pins it draw for draw against a list-based
    reference. *)

val profile_by_name : duration_s:float -> string -> Profiles.t
(** Named load shapes scaled to the run horizon:
    ["constant"] — flat 1.0;
    ["diurnal"] — one sinusoidal day compressed into the horizon
    (amplitude 0.6);
    ["flash"] — a flash crowd at mid-run, 8× peak, 5% rise / 10% decay of
    the horizon;
    ["diurnal-flash"] — the product of the two;
    ["overload"] — a sustained flash crowd: 3× nominal from the quarter
    mark to the end of the run (the overload-protection stress shape).
    @raise Not_found for any other name. *)

val profile_names : string list
