(** The solvers' clock: the one place es_lint's D1 rule lets library code
    read the wall clock. *)

val wall_clock : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]) — the clock solvers use for
    spans and runtimes, as distinct from the simulator's virtual clock.
    Wall time (not process CPU time) so parallel solver trajectories are
    measured by elapsed time rather than by summed per-domain CPU. *)
