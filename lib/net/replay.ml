module Workload = Eppi_serve.Workload
module Clock = Eppi_prelude.Clock

type summary = {
  requests : int;
  served : int;
  unknown : int;
  shed : int;
  providers_listed : int;
  first_generation : int;
  last_generation : int;
  wall_seconds : float;
}

let load path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let rec first_printable i =
    if i >= String.length text then ' '
    else match text.[i] with ' ' | '\t' | '\n' | '\r' -> first_printable (i + 1) | c -> c
  in
  if first_printable 0 = '{' then Workload.of_jsonl_log text else Workload.of_csv_log text

let run ?(depth = 32) pipeline workload =
  if depth < 1 then invalid_arg "Replay.run: depth must be >= 1";
  let requests = Array.length workload in
  let served = ref 0
  and unknown = ref 0
  and shed = ref 0
  and listed = ref 0
  and first_generation = ref 0
  and last_generation = ref 0 in
  let t0 = Clock.seconds () in
  let pos = ref 0 in
  while !pos < requests do
    let window = min depth (requests - !pos) in
    let frames =
      List.init window (fun k -> Wire.Query { owner = workload.(!pos + k) })
    in
    List.iter
      (fun (response : Wire.response) ->
        match response with
        | Reply { generation; reply } ->
            if !first_generation = 0 then first_generation := generation;
            last_generation := generation;
            (match reply with
            | Providers providers ->
                incr served;
                listed := !listed + List.length providers
            | Unknown_owner -> incr unknown
            | Shed_rate_limit | Shed_queue_full -> incr shed)
        | other -> Client.unexpected "replay query" other)
      (pipeline frames);
    pos := !pos + window
  done;
  {
    requests;
    served = !served;
    unknown = !unknown;
    shed = !shed;
    providers_listed = !listed;
    first_generation = !first_generation;
    last_generation = !last_generation;
    wall_seconds = Clock.seconds () -. t0;
  }
