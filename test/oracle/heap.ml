type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

let before a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow t =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let fresh = Array.make new_cap t.data.(0) in
  Array.blit t.data 0 fresh 0 t.size;
  t.data <- fresh

let push t prio value =
  let e = { prio; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if t.size = 0 && Array.length t.data = 0 then t.data <- Array.make 16 e;
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  while !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t.data.(!i) t.data.(parent) then begin
      let tmp = t.data.(!i) in
      t.data.(!i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      i := parent
    end
    else i := 0
  done

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && before t.data.(l) t.data.(!smallest) then smallest := l;
    if r < t.size && before t.data.(r) t.data.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.data.(!i) in
      t.data.(!i) <- t.data.(!smallest);
      t.data.(!smallest) <- tmp;
      i := !smallest
    end
    else continue := false
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t
    end;
    Some (top.prio, top.value)
  end

let pop_exn t =
  match pop t with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let clear t = t.size <- 0

let to_sorted_list t =
  let copy = { data = Array.sub t.data 0 t.size; size = t.size; next_seq = t.next_seq } in
  let rec drain acc =
    match pop copy with
    | None -> List.rev acc
    | Some x -> drain (x :: acc)
  in
  drain []
