(** Streaming FNV-1a (64-bit) accumulator.

    A cheap, deterministic digest over primitive fields, for structural
    fingerprints (cluster topology, decision sets, solver configurations)
    used as memoization keys.  Floats are hashed by their IEEE-754 bits, so
    two fingerprints agree exactly when every hashed field is bit-identical.
    Not cryptographic — collision resistance is the 64-bit birthday bound,
    ample for bounded solve caches. *)

type t

val create : unit -> t

val add_int : t -> int -> unit

val add_float : t -> float -> unit
(** Hashes [Int64.bits_of_float]: distinguishes [-0.] from [0.] and every
    NaN payload — bit-identity, not numeric equality. *)

val add_bool : t -> bool -> unit

val add_string : t -> string -> unit
(** Length-terminated, so adjacent strings cannot collide by reslicing. *)

val value : t -> int64
val to_hex : t -> string
(** 16 lowercase hex digits. *)
