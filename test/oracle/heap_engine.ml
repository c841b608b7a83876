(* [Es_sim.Engine]'s contract over a binary heap, the loop the engine is
   replayed against. *)

type t = {
  mutable clock : float;
  q : (unit -> unit) Heap.t;
  mutable events_processed : int;
  mutable max_pending : int;
}

let create () = { clock = 0.0; q = Heap.create (); events_processed = 0; max_pending = 0 }
let now t = t.clock
let pending t = Heap.length t.q

let push t time f =
  Heap.push t.q time f;
  if Heap.length t.q > t.max_pending then t.max_pending <- Heap.length t.q

let schedule t delay f =
  if delay < 0.0 then invalid_arg "Heap_engine.schedule: negative delay";
  push t (t.clock +. delay) f

let schedule_at t time f = push t (Float.max time t.clock) f

let run ?(until = infinity) t =
  let continue = ref true in
  while !continue do
    match Heap.peek t.q with
    | Some (time, _) when time <= until ->
        let time, f = Heap.pop_exn t.q in
        t.clock <- time;
        t.events_processed <- t.events_processed + 1;
        f ()
    | _ -> continue := false
  done;
  if pending t > 0 then t.clock <- Float.max t.clock until
