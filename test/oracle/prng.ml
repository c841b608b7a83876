(* In-place Fisher–Yates shuffle over an [Es_util.Prng] stream. *)

open Es_util.Prng

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
