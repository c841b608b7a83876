(** Arrival-trace files and merging.  Traces are sorted (time, device id)
    pairs; {!Heavy.trace} generates them. *)

val merge : (float * int) array list -> (float * int) array
(** Merge several traces into one time-sorted trace. *)

val save_csv : (float * int) array -> path:string -> unit
(** Write a trace as ["time_s,device"] CSV lines (with header).
    @raise Sys_error on I/O failure. *)

val load_csv : path:string -> ((float * int) array, string) result
(** Parse a trace CSV; re-sorts by time, reports the first malformed line
    (a time that is negative or not finite, a negative device).
    Recorded production traces can be replayed through
    {!Es_sim.Runner.run}'s [arrivals]. *)
