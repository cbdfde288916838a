module Simnet = Eppi_simnet.Simnet

type timing = { rto : float; backoff : float; max_rto : float; max_retries : int }

type report = {
  suspects : int list;
  stalled : int list;
  retransmissions : int;
  duplicates : int;
  retried_rounds : int;
  protocol_time : float;
}

exception Stalled of report

(* Sequence numbers count per source node, so (src, seq) names a packet. *)
type 'm packet = Data of { seq : int; payload : 'm } | Ack of { seq : int }

type 'm t = {
  net : 'm packet Simnet.t;
  timing : timing option;  (* Some iff a fault plan was given *)
  next_seq : int array;
  acked : (int * int, unit) Hashtbl.t;  (* (src, seq) *)
  seen : (int * int, unit) Hashtbl.t;
  blamed : (int, unit) Hashtbl.t;
  retried : (int, unit) Hashtbl.t;  (* rounds *)
  mutable retransmissions : int;
  mutable duplicates : int;
  mutable last_progress : float;
  mutable finish_time : float option;
}

let ack_size = 16

let create plan timing ~nodes =
  {
    net = Simnet.create ?plan ~nodes ();
    timing = Option.map (fun _ -> timing) plan;
    next_seq = Array.make nodes 0;
    acked = Hashtbl.create 64;
    seen = Hashtbl.create 64;
    blamed = Hashtbl.create 8;
    retried = Hashtbl.create 8;
    retransmissions = 0;
    duplicates = 0;
    last_progress = 0.0;
    finish_time = None;
  }

let net t = t.net
let reliable t = Option.is_some t.timing
let blame t node = Hashtbl.replace t.blamed node ()
let finished t = Option.is_some t.finish_time
let finish t = if not (finished t) then t.finish_time <- Some (Simnet.now t.net)

let on_receive t node handler =
  Simnet.on_receive t.net node (fun sim ~src packet ->
      match packet with
      | Ack { seq } -> Hashtbl.replace t.acked (node, seq) ()
      | Data { seq; payload } ->
          let fresh =
            match t.timing with
            | None -> true
            | Some _ ->
                (* Always re-ack: the previous ack may have been lost. *)
                Simnet.send sim ~src:node ~dst:src ~size:ack_size (Ack { seq });
                if Hashtbl.mem t.seen (src, seq) then begin
                  t.duplicates <- t.duplicates + 1;
                  false
                end
                else begin
                  Hashtbl.replace t.seen (src, seq) ();
                  true
                end
          in
          if fresh then begin
            if Simnet.now sim > t.last_progress then t.last_progress <- Simnet.now sim;
            handler ~src payload
          end)

let send t ~src ~dst ~size ~round payload =
  let seq = t.next_seq.(src) in
  t.next_seq.(src) <- seq + 1;
  let packet = Data { seq; payload } in
  Simnet.send t.net ~src ~dst ~size packet;
  match t.timing with
  | None -> ()
  | Some r ->
      let rec arm attempt rto =
        Simnet.at t.net ~delay:rto src (fun sim ->
            if not (Hashtbl.mem t.acked (src, seq) || finished t) then
              if attempt < r.max_retries then begin
                t.retransmissions <- t.retransmissions + 1;
                Hashtbl.replace t.retried round ();
                Simnet.send sim ~src ~dst ~size packet;
                arm (attempt + 1) (Float.min (rto *. r.backoff) r.max_rto)
              end
              else blame t dst)
      in
      arm 0 r.rto

let broadcast t ~src ~size ~round payload =
  for dst = 0 to Simnet.nodes t.net - 1 do
    if dst <> src then send t ~src ~dst ~size ~round payload
  done

let report t ~stalled =
  {
    suspects = List.sort compare (Hashtbl.fold (fun node () acc -> node :: acc) t.blamed []);
    stalled;
    retransmissions = t.retransmissions;
    duplicates = t.duplicates;
    retried_rounds = Hashtbl.length t.retried;
    protocol_time =
      (match (t.timing, t.finish_time) with
      | None, _ -> (Simnet.metrics t.net).completion_time
      | Some _, Some time -> time
      | Some _, None -> t.last_progress);
  }
