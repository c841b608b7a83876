(** Exact allocation measurement around a thunk.

    Allocated words are deterministic for a given binary and compiler —
    the machine-independent regression metric the allocation gate in
    [bench/perf_gate.exe] checks absolutely, where wall-clock ratios on
    shared CI runners are noise.  Both figures report the steady state:
    the thunk is run once first as warm-up (caches, scratch-arena growth,
    lazy init), then measured.

    The thunk must return [unit]: a polymorphic return value would make
    the measured call allocate its own boxed result. *)

val words : (unit -> unit) -> float
(** Total words allocated by one call: minor-heap words plus words
    allocated directly on the major heap (large blocks). *)

val minor_words : (unit -> unit) -> float
(** Minor-heap words of one call — the figure the zero-allocation kernel
    tests assert to be exactly [0.0]. *)
