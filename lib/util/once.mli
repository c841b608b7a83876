(** A domain-safe table that builds each key's value once.

    Callers racing on a key wait for the one build in flight instead of
    repeating it.  A build that raises leaves no entry, so the next caller
    builds again.  The table is flushed whole when it would exceed 512
    entries.  Entries save cost only: key on everything the value depends
    on. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val find_or_build : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The value under the key (structural equality), built with the thunk and
    stored on a miss.  The thunk's exception reaches its caller. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry; a build in flight still stores its value. *)
