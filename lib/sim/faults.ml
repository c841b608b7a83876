type event =
  | Server_down of int
  | Server_up of int
  | Link_outage of int
  | Link_restored of int
  | Link_degraded of int * float
  | Straggler of int * float

type t = (float * event) array

let empty : t = [||]
let is_empty t = Array.length t = 0
let events t = Array.to_list t

let check_factor what f =
  if not (Float.is_finite f) || f <= 0.0 then
    invalid_arg (Printf.sprintf "Faults: %s factor must be finite and positive, got %g" what f)

let check_event = function
  | Server_down _ | Server_up _ | Link_outage _ | Link_restored _ -> ()
  | Link_degraded (_, f) -> check_factor "link" f
  | Straggler (_, f) -> check_factor "straggler" f

let scripted evs =
  List.iter
    (fun (time, ev) ->
      if not (Float.is_finite time) || time < 0.0 then
        invalid_arg (Printf.sprintf "Faults: event time must be finite and >= 0, got %g" time);
      check_event ev)
    evs;
  let arr = Array.of_list evs in
  (* stable, so equal-time events keep their scripted order *)
  let tagged = Array.mapi (fun i (time, ev) -> (time, i, ev)) arr in
  Array.sort
    (fun (t1, i1, _) (t2, i2, _) -> if t1 <> t2 then Float.compare t1 t2 else Int.compare i1 i2)
    tagged;
  Array.map (fun (time, _, ev) -> (time, ev)) tagged

let crash ~at ?for_s s =
  match for_s with
  | None -> [ (at, Server_down s) ]
  | Some d -> [ (at, Server_down s); (at +. d, Server_up s) ]

let outage ~at ~for_s d = [ (at, Link_outage d); (at +. for_s, Link_restored d) ]

let degrade ~at ~for_s ~factor d =
  [ (at, Link_degraded (d, factor)); (at +. for_s, Link_degraded (d, 1.0)) ]

let straggle ~at ~for_s ~factor s =
  [ (at, Straggler (s, factor)); (at +. for_s, Straggler (s, 1.0)) ]

let validate ~n_devices ~n_servers t =
  let server_ok s = s >= 0 && s < n_servers in
  let device_ok d = d >= 0 && d < n_devices in
  let problem =
    Array.fold_left
      (fun acc (_, ev) ->
        match acc with
        | Some _ -> acc
        | None -> (
            match ev with
            | Server_down s | Server_up s | Straggler (s, _) ->
                if server_ok s then None
                else Some (Printf.sprintf "server index %d out of range (have %d servers)" s n_servers)
            | Link_outage d | Link_restored d | Link_degraded (d, _) ->
                if device_ok d then None
                else Some (Printf.sprintf "device index %d out of range (have %d devices)" d n_devices)))
      None t
  in
  match problem with None -> Ok () | Some msg -> Error msg

let spec_syntax =
  "down:S@T[+DUR] | up:S@T | outage:D@T+DUR | degrade:D:F@T+DUR | straggle:S:F@T+DUR \
   (comma/semicolon separated; S=server, D=device, F=factor, times in seconds)"

(* One token, e.g. "down:1@20+5" or "degrade:0:0.25@10+8". *)
let parse_token tok =
  let ( let* ) = Result.bind in
  let fail () = Error (Printf.sprintf "bad fault token %S (expected %s)" tok spec_syntax) in
  let parse_int s = match int_of_string_opt (String.trim s) with Some i -> Ok i | None -> fail () in
  let parse_float s =
    match float_of_string_opt (String.trim s) with
    | Some f when Float.is_finite f -> Ok f
    | _ -> fail ()
  in
  match String.index_opt tok ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub tok 0 i in
      let rest = String.sub tok (i + 1) (String.length tok - i - 1) in
      (* rest is ARGS@T[+DUR] *)
      match String.index_opt rest '@' with
      | None -> fail ()
      | Some j ->
          let args = String.sub rest 0 j in
          let timing = String.sub rest (j + 1) (String.length rest - j - 1) in
          let* at, dur =
            match String.index_opt timing '+' with
            | None ->
                let* at = parse_float timing in
                Ok (at, None)
            | Some k ->
                let* at = parse_float (String.sub timing 0 k) in
                let* dur = parse_float (String.sub timing (k + 1) (String.length timing - k - 1)) in
                Ok (at, Some dur)
          in
          let* idx, factor =
            match String.split_on_char ':' args with
            | [ i ] ->
                let* i = parse_int i in
                Ok (i, None)
            | [ i; f ] ->
                let* i = parse_int i in
                let* f = parse_float f in
                Ok (i, Some f)
            | _ -> fail ()
          in
          let need_dur k =
            match dur with
            | Some d when d > 0.0 -> Ok (k d)
            | _ -> Error (Printf.sprintf "fault token %S needs a positive +DUR" tok)
          in
          if at < 0.0 then Error (Printf.sprintf "fault token %S has a negative time" tok)
          else
            match (kind, factor) with
            | "down", None -> Ok (crash ~at ?for_s:dur idx)
            | "up", None -> if dur = None then Ok [ (at, Server_up idx) ] else fail ()
            | "outage", None -> need_dur (fun d -> outage ~at ~for_s:d idx)
            | "degrade", Some f when f > 0.0 -> need_dur (fun d -> degrade ~at ~for_s:d ~factor:f idx)
            | "straggle", Some f when f > 0.0 ->
                need_dur (fun d -> straggle ~at ~for_s:d ~factor:f idx)
            | ("degrade" | "straggle"), Some _ ->
                Error (Printf.sprintf "fault token %S needs a positive factor" tok)
            | _ -> fail ())

let of_spec spec =
  let tokens =
    String.split_on_char ',' spec
    |> List.concat_map (String.split_on_char ';')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if tokens = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc tok ->
        match acc with
        | Error _ as e -> e
        | Ok evs -> ( match parse_token tok with Ok more -> Ok (evs @ more) | Error _ as e -> e))
      (Ok []) tokens

let of_spec_or_file arg =
  let from_tokens tokens =
    List.fold_left
      (fun acc tok ->
        match acc with
        | Error _ as e -> e
        | Ok evs -> ( match parse_token tok with Ok more -> Ok (evs @ more) | Error _ as e -> e))
      (Ok []) tokens
  in
  let result =
    if Sys.file_exists arg && not (Sys.is_directory arg) then begin
      let ic = open_in arg in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let tokens =
        List.rev !lines
        |> List.map (fun line ->
               match String.index_opt line '#' with
               | Some i -> String.sub line 0 i
               | None -> line)
        |> List.concat_map (fun line -> String.split_on_char ',' line)
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      if tokens = [] then Error (Printf.sprintf "fault file %s contains no events" arg)
      else from_tokens tokens
    end
    else of_spec arg
  in
  match result with
  | Error _ as e -> e
  | Ok evs -> ( try Ok (scripted evs) with Invalid_argument msg -> Error msg)

let pp_event ppf = function
  | Server_down s -> Format.fprintf ppf "server %d down" s
  | Server_up s -> Format.fprintf ppf "server %d up" s
  | Link_outage d -> Format.fprintf ppf "device %d link outage" d
  | Link_restored d -> Format.fprintf ppf "device %d link restored" d
  | Link_degraded (d, f) -> Format.fprintf ppf "device %d link x%g" d f
  | Straggler (s, f) -> Format.fprintf ppf "server %d straggle x%g" s f

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter (fun (time, ev) -> Format.fprintf ppf "%8.3fs  %a@," time pp_event ev) t;
  Format.fprintf ppf "@]"
