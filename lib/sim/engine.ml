type t = {
  mutable clock : float;
  q : (unit -> unit) Es_util.Calendar_queue.t;
  mutable events_processed : int;
  mutable max_pending : int;
}

type stats = { events_processed : int; max_pending : int; pending : int }

let create () =
  { clock = 0.0; q = Es_util.Calendar_queue.create (); events_processed = 0; max_pending = 0 }

let now t = t.clock
let pending t = Es_util.Calendar_queue.length t.q

let push t time f =
  Es_util.Calendar_queue.push t.q time f;
  let n = Es_util.Calendar_queue.length t.q in
  if n > t.max_pending then t.max_pending <- n

let schedule t delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  push t (t.clock +. delay) f

let schedule_at t time f = push t (Float.max time t.clock) f

(* Each event is exactly one queue pop (the calendar resumes its bucket
   scan where the previous pop stopped, so a run of same-timestamp events
   drains at the head of one bucket), the clock update and the callback. *)
let run ?(until = infinity) t =
  let continue = ref true in
  while !continue do
    match Es_util.Calendar_queue.pop_before t.q until with
    | Some (time, f) ->
        t.clock <- time;
        t.events_processed <- t.events_processed + 1;
        f ()
    | None -> continue := false
  done;
  if pending t > 0 then t.clock <- Float.max t.clock until

let stats (t : t) : stats =
  { events_processed = t.events_processed; max_pending = t.max_pending; pending = pending t }
