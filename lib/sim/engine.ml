(* Events are ints in one calendar queue, so closure events and data events
   share its sequence counter: same-instant events fire in posting order,
   whatever their kind.  Bit 0 tells the kinds apart.  Data event [ev] is
   queued as [2 ev + 1] and handed to [run]'s handler; closure event [i]
   is queued as [2 i], its callback waiting in slot [i] of [chunks].
   Fired slots go on a free list threaded through [next_free]; slots from
   [fill] up were never used.  The slots come in fixed-size chunks, so
   growing them never copies a closure: a copy into the major heap pays a
   write barrier per element. *)
type t = {
  clock : float array;  (* one cell: the current time, stored unboxed *)
  q : Es_util.Calendar_queue.t;
  mutable chunks : (unit -> unit) array array;
  mutable next_free : int array;
  mutable free : int;  (* head of the free list, -1 = empty *)
  mutable fill : int;
  mutable events_processed : int;
  mutable max_pending : int;
}

type stats = { events_processed : int; max_pending : int; pending : int }

let create () =
  {
    clock = [| 0.0 |];
    q = Es_util.Calendar_queue.create ();
    chunks = [||];
    next_free = [||];
    free = -1;
    fill = 0;
    events_processed = 0;
    max_pending = 0;
  }

let now t = t.clock.(0)
let pending t = Es_util.Calendar_queue.length t.q
let max_event = max_int lsr 1

let note_pending t =
  let n = Es_util.Calendar_queue.length t.q in
  if n > t.max_pending then t.max_pending <- n

let push t time code =
  Es_util.Calendar_queue.push t.q time code;
  note_pending t

let noop () = ()
let chunk_bits = 12
let chunk = 1 lsl chunk_bits

let add_thunk t f =
  let i =
    if t.free >= 0 then begin
      let i = t.free in
      t.free <- t.next_free.(i);
      i
    end
    else begin
      let i = t.fill in
      if i = Array.length t.next_free then begin
        let next_free = Array.make (max chunk (2 * i)) (-1) in
        Array.blit t.next_free 0 next_free 0 i;
        t.next_free <- next_free
      end;
      if i land (chunk - 1) = 0 then t.chunks <- Array.append t.chunks [| Array.make chunk noop |];
      t.fill <- i + 1;
      i
    end
  in
  t.chunks.(i lsr chunk_bits).(i land (chunk - 1)) <- f;
  i

let schedule t delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  push t (now t +. delay) (2 * add_thunk t f)

let schedule_at t time f = push t (Float.max time (now t)) (2 * add_thunk t f)

let check_event ev = if ev < 0 || ev > max_event then invalid_arg "Engine.post: event out of range"

let post t delay ev =
  if delay < 0.0 then invalid_arg "Engine.post: negative delay";
  check_event ev;
  push t (now t +. delay) ((2 * ev) + 1)

let post_at t time ev =
  check_event ev;
  push t (Float.max time (now t)) ((2 * ev) + 1)

let reserve t n = Es_util.Calendar_queue.reserve t.q n

let post_at_seq t time ~seq ev =
  check_event ev;
  Es_util.Calendar_queue.push_seq t.q (Float.max time (now t)) ~seq ((2 * ev) + 1);
  note_pending t

let no_handler _ = invalid_arg "Engine.run: a data event needs a handler"

(* Each event is exactly one queue pop (the calendar resumes its bucket
   scan where the previous pop stopped, so a run of same-timestamp events
   drains at the head of one bucket), the clock update and the dispatch.
   A fired closure's slot is freed before the call, so the callback may
   reuse it; the closure stays in the slot until then, as clearing it
   would cost a second write barrier per event. *)
let run ?(handle = no_handler) t =
  let rec loop () =
    let code = Es_util.Calendar_queue.pop_into t.q t.clock in
    if code >= 0 then begin
      t.events_processed <- t.events_processed + 1;
      if code land 1 = 1 then handle (code lsr 1)
      else begin
        let i = code lsr 1 in
        let f = t.chunks.(i lsr chunk_bits).(i land (chunk - 1)) in
        t.next_free.(i) <- t.free;
        t.free <- i;
        f ()
      end;
      loop ()
    end
  in
  loop ()

let stats (t : t) : stats =
  { events_processed = t.events_processed; max_pending = t.max_pending; pending = pending t }
