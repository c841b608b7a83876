(* es_lint: hot *)

let dominates (a : float array) (b : float array) =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Pareto.dominates: dimension mismatch";
  let no_worse = ref true in
  let strictly = ref false in
  for i = 0 to n - 1 do
    if a.(i) > b.(i) then no_worse := false;
    if a.(i) < b.(i) then strictly := true
  done;
  !no_worse && !strictly

(* The skyline internals run on rows of one flat scratch buffer: row [i]
   lives at [flat.(i*d) .. flat.(i*d + d - 1)].  Comparators and dominance
   tests are top-level functions over (buffers, d, row indices) so the sort
   and the frontier scan construct no closures and box no floats. *)

(* Lexicographic row order, ties broken by row index — a strict total
   order, so any comparison sort produces the same permutation the old
   [Array.sort] closure did. *)
let row_cmp flat d i j =
  let r = ref 0 in
  let c = ref 0 in
  while !r = 0 && !c < d do
    let cmp = Float.compare flat.((i * d) + !c) flat.((j * d) + !c) in
    if cmp <> 0 then r := cmp;
    incr c
  done;
  if !r <> 0 then !r else Int.compare i j

let rows_lex_equal flat d i j =
  let eq = ref true in
  let c = ref 0 in
  while !eq && !c < d do
    if Float.compare flat.((i * d) + !c) flat.((j * d) + !c) <> 0 then eq := false;
    incr c
  done;
  !eq

(* Whether one of the first [kept_n] rows of [kflat] dominates row [i] of
   [flat]: the same float comparisons as [dominates], on unboxed floats
   (untyped, [>] and [<] are polymorphic compares on boxed floats).  Each
   kept row is rejected at its first worse coordinate; only a row no worse
   anywhere is tested for a strictly better one.  Coordinate 0 is never
   worse: kept rows precede row [i] in [row_cmp] order, and [Float.compare]
   ranks NaN below every float, so [y.(0) > x.(0)] cannot hold. *)
let kept_dominates (kflat : float array) kept_n (flat : float array) d i =
  let x = i * d in
  let found = ref false in
  let j = ref 0 in
  while (not !found) && !j < kept_n do
    let y = !j * d in
    let c = ref 1 in
    while !c < d && not (kflat.(y + !c) > flat.(x + !c)) do
      incr c
    done;
    if !c = d then
      for c = 0 to d - 1 do
        if kflat.(y + c) < flat.(x + c) then found := true
      done;
    incr j
  done;
  !found

(* In-place heapsort of [order.(0..n-1)] under [row_cmp] (strict total
   order, so stability is moot and the result is unique). *)
let sift_down flat d (order : int array) n root =
  let j = ref root in
  let walking = ref true in
  while !walking do
    let l = (2 * !j) + 1 in
    if l >= n then walking := false
    else begin
      let c =
        if l + 1 < n && row_cmp flat d order.(l) order.(l + 1) < 0 then l + 1 else l
      in
      if row_cmp flat d order.(!j) order.(c) < 0 then begin
        let t = order.(!j) in
        order.(!j) <- order.(c);
        order.(c) <- t;
        j := c
      end
      else walking := false
    end
  done

let sort_order flat d order n =
  for root = (n / 2) - 1 downto 0 do
    sift_down flat d order n root
  done;
  for last = n - 1 downto 1 do
    let t = order.(0) in
    order.(0) <- order.(last);
    order.(last) <- t;
    sift_down flat d order last 0
  done

(* Sort-based skyline.  Domination implies strict lexicographic precedence,
   so after sorting by (key lex, input index) every potential dominator of an
   item precedes it, and by induction the already-kept frontier members
   suffice as dominance witnesses: if y dominates x then either y is kept, or
   y shares its key with an earlier kept item, or y is itself dominated by
   something lexicographically even smaller — following that chain bottoms
   out at a kept dominator of x.  Exact-duplicate keys sort adjacent with the
   smallest input index first, matching the first-occurrence dedup of the
   naive scan (the test oracle in test/oracle/pareto.ml).  O(n log n +
   n·F·d) for frontier size F vs the old O(n²·d).  The row buffers are
   borrowed scratch and every comparison is on unboxed floats, so a steady
   state call allocates the [keep] mask, the callers' keys and outputs, and
   nothing per comparison. *)
let skyline ~n ~key_at =
  let k0 = key_at 0 in
  let d = Array.length k0 in
  let flat = Scratch.borrow_floats (n * d) in
  let order = Scratch.borrow_ints n in
  (* kflat: the frontier members found so far, copied contiguously in the
     order found, so the scan reads them sequentially *)
  let kflat = Scratch.borrow_floats (n * d) in
  let keep = Array.make n false in
  let dim_ok = ref true in
  for i = 0 to n - 1 do
    let k = if i = 0 then k0 else key_at i in
    if Array.length k <> d then dim_ok := false
    else
      for c = 0 to d - 1 do
        flat.((i * d) + c) <- k.(c)
      done;
    order.(i) <- i
  done;
  if not !dim_ok then begin
    Scratch.release_floats kflat;
    Scratch.release_ints order;
    Scratch.release_floats flat;
    invalid_arg "Pareto.frontier: dimension mismatch"
  end;
  sort_order flat d order n;
  let kept_n = ref 0 in
  for r = 0 to n - 1 do
    let i = order.(r) in
    let duplicate = r > 0 && rows_lex_equal flat d i order.(r - 1) in
    if not (duplicate || kept_dominates kflat !kept_n flat d i) then begin
      Array.blit flat (i * d) kflat (!kept_n * d) d;
      incr kept_n;
      keep.(i) <- true
    end
  done;
  Scratch.release_floats kflat;
  Scratch.release_ints order;
  Scratch.release_floats flat;
  keep

let frontier key items =
  match items with
  | [] | [ _ ] -> items
  | _ ->
      let arr = Array.of_list items in
      let n = Array.length arr in
      (* es_lint: cold — per-call key adapter, one closure per frontier *)
      let keep = skyline ~n ~key_at:(fun i -> key arr.(i)) in
      let out = ref [] in
      for i = n - 1 downto 0 do
        if keep.(i) then out := arr.(i) :: !out
      done;
      !out
