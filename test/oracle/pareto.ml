(* [Es_util.Pareto.frontier] as the original O(n²·d) list scan. *)

let frontier key items =
  let keyed = List.map (fun x -> (key x, x)) items in
  let non_dominated (k, _) =
    not (List.exists (fun (k', _) -> Es_util.Pareto.dominates k' k) keyed)
  in
  (* Keep one representative among exact duplicates: the first occurrence. *)
  let rec dedup seen = function
    | [] -> []
    | ((k, _) as item) :: rest ->
        if List.exists (fun k' -> k' = k) seen then dedup seen rest
        else item :: dedup (k :: seen) rest
  in
  dedup [] (List.filter non_dominated keyed) |> List.map snd
