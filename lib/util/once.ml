(* The first caller for a key publishes a [Building] marker and builds
   outside the lock; racing callers wait on the condition until the value
   is [Ready] instead of repeating the build. *)

type 'v entry = Building | Ready of 'v
type ('k, 'v) t = { lock : Mutex.t; ready : Condition.t; table : ('k, 'v entry) Hashtbl.t }

let cap = 512
let create () =
  { lock = Mutex.create (); ready = Condition.create (); table = Hashtbl.create 16 }

let publish t update =
  Mutex.lock t.lock;
  update t.table;
  Condition.broadcast t.ready;
  Mutex.unlock t.lock

(* Entered with [t.lock] held; returns with it released. *)
let rec await t key build =
  match Hashtbl.find_opt t.table key with
  | Some (Ready v) ->
      Mutex.unlock t.lock;
      v
  | Some Building ->
      Condition.wait t.ready t.lock;
      await t key build
  | None ->
      Hashtbl.replace t.table key Building;
      Mutex.unlock t.lock;
      (* A failed build withdraws its marker so waiters retry, not hang. *)
      let v = try build () with e -> publish t (fun tbl -> Hashtbl.remove tbl key); raise e in
      (* The backstop flush may drop other keys' [Building] markers: their
         builders re-publish, and woken waiters finding no entry build. *)
      publish t (fun tbl ->
          if Hashtbl.length tbl >= cap then Hashtbl.reset tbl;
          Hashtbl.replace tbl key (Ready v));
      v

let find_or_build t key build =
  Mutex.lock t.lock;
  await t key build

let clear t = publish t Hashtbl.reset
