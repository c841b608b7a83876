(* FNV-1a, 64-bit.  Streaming accumulator over primitive fields; used for
   structural fingerprints (cluster / decision / solver config) where we
   need a cheap, deterministic, allocation-light digest — not
   cryptographic strength. *)

type t = int64 ref

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let create () = ref offset_basis

(* Each adder folds its bytes into a local accumulator, which the native
   compiler keeps unboxed, and stores the digest back once. *)

let add_int64 h x =
  let v = ref !h in
  for i = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL in
    v := Int64.mul (Int64.logxor !v byte) prime
  done;
  h := !v

let add_int h x = add_int64 h (Int64.of_int x)
let add_float h x = add_int64 h (Int64.bits_of_float x)
let add_bool h b = h := Int64.mul (Int64.logxor !h (if b then 1L else 0L)) prime

let add_string h s =
  let v = ref !h in
  for i = 0 to String.length s - 1 do
    v := Int64.mul (Int64.logxor !v (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
  done;
  h := !v;
  (* Length terminator: "ab"+"c" must not collide with "a"+"bc". *)
  add_int h (String.length s)

let value h = !h
let to_hex h = Printf.sprintf "%016Lx" !h
