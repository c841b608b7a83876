(* Maximum flow / minimum cut on small directed graphs (Edmonds-Karp),
   the kernel of [Dag_cut].  Graphs here are tiny (hundreds of nodes), so
   the O(V*E^2) bound is irrelevant.  [add_edge] accumulates parallel edges
   and accepts [infinity] capacities (hard constraints); it raises
   [Invalid_argument] on out-of-range vertices, self-loops or negative
   capacity.  [max_flow] mutates the residuals, so call it once per network;
   [min_cut_side] then gives the source side of a minimum cut.

   Adjacency-list residual network: each directed edge is stored with its
   reverse edge; [adj.(v)] holds edge ids and the residual capacities live
   in [cap]. *)

type t = {
  n : int;
  mutable cap : float array;
  mutable dst : int array;
  mutable n_edges : int;
  adj : int list array;  (* per vertex: edge ids, reversed order *)
}

let create ~n =
  if n <= 0 then invalid_arg "Maxflow.create: n must be positive";
  {
    n;
    cap = Array.make 16 0.0;
    dst = Array.make 16 0;
    n_edges = 0;
    adj = Array.make n [];
  }

let grow t =
  let len = Array.length t.cap in
  let cap' = Array.make (2 * len) 0.0 in
  let dst' = Array.make (2 * len) 0 in
  Array.blit t.cap 0 cap' 0 len;
  Array.blit t.dst 0 dst' 0 len;
  t.cap <- cap';
  t.dst <- dst'

let push_edge t v capacity =
  if t.n_edges = Array.length t.cap then grow t;
  t.cap.(t.n_edges) <- capacity;
  t.dst.(t.n_edges) <- v;
  t.n_edges <- t.n_edges + 1

let add_edge t ~src ~dst ~capacity =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge: vertex out of range";
  if src = dst then invalid_arg "Maxflow.add_edge: self-loop";
  if capacity < 0.0 then invalid_arg "Maxflow.add_edge: negative capacity";
  (* Forward edge id e, reverse edge id e+1. *)
  t.adj.(src) <- t.n_edges :: t.adj.(src);
  push_edge t dst capacity;
  t.adj.(dst) <- t.n_edges :: t.adj.(dst);
  push_edge t src 0.0

let bfs t ~source ~sink parent_edge =
  Array.fill parent_edge 0 t.n (-1);
  parent_edge.(source) <- -2;
  let q = Queue.create () in
  Queue.add source q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.take q in
    List.iter
      (fun e ->
        let v = t.dst.(e) in
        if parent_edge.(v) = -1 && t.cap.(e) > 1e-12 then begin
          parent_edge.(v) <- e;
          if v = sink then found := true else Queue.add v q
        end)
      t.adj.(u)
  done;
  !found

let max_flow t ~source ~sink =
  if source = sink then invalid_arg "Maxflow.max_flow: source = sink";
  let parent_edge = Array.make t.n (-1) in
  let total = ref 0.0 in
  while bfs t ~source ~sink parent_edge do
    (* Bottleneck along the path (walk back via reverse edges: the reverse
       of edge e is e lxor 1). *)
    let bottleneck = ref infinity in
    let v = ref sink in
    while !v <> source do
      let e = parent_edge.(!v) in
      bottleneck := Float.min !bottleneck t.cap.(e);
      v := t.dst.(e lxor 1)
    done;
    let v = ref sink in
    while !v <> source do
      let e = parent_edge.(!v) in
      t.cap.(e) <- t.cap.(e) -. !bottleneck;
      t.cap.(e lxor 1) <- t.cap.(e lxor 1) +. !bottleneck;
      v := t.dst.(e lxor 1)
    done;
    total := !total +. !bottleneck
  done;
  !total

let min_cut_side t ~source =
  let side = Array.make t.n false in
  let q = Queue.create () in
  side.(source) <- true;
  Queue.add source q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    List.iter
      (fun e ->
        let v = t.dst.(e) in
        if (not side.(v)) && t.cap.(e) > 1e-12 then begin
          side.(v) <- true;
          Queue.add v q
        end)
      t.adj.(u)
  done;
  side
