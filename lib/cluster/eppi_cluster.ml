module Addr = Eppi_net.Addr
module Wire = Eppi_net.Wire
module Net_client = Eppi_net.Client
module Index_codec = Eppi_net.Index_codec
module Rng = Eppi_prelude.Rng
module Clock = Eppi_prelude.Clock
module Json = Eppi_prelude.Json

module Replica_set = struct
  type t = { members : Addr.t list }

  let of_addrs members =
    if members = [] then invalid_arg "Replica_set: empty replica set";
    let seen = Hashtbl.create 8 in
    List.iter
      (fun a ->
        let key = Addr.to_string a in
        if Hashtbl.mem seen key then
          invalid_arg (Printf.sprintf "Replica_set: duplicate replica %s" key);
        Hashtbl.add seen key ())
      members;
    { members }

  let parse s =
    let parts = String.split_on_char ',' s |> List.map String.trim in
    match
      List.map
        (fun part ->
          match Addr.parse part with
          | Ok a -> a
          | Error e ->
              failwith (Printf.sprintf "%s in %S" (Addr.parse_error_to_string e) part))
        parts
    with
    | members -> ( try Ok (of_addrs members) with Invalid_argument msg -> Error msg)
    | exception Failure msg -> Error msg

  let of_string s =
    match parse s with
    | Ok t -> t
    | Error msg -> invalid_arg (Printf.sprintf "Replica_set.of_string: %s" msg)

  let addrs t = t.members
  let size t = List.length t.members
  let to_string t = String.concat "," (List.map Addr.to_string t.members)
end

let ask ?(request_timeout = 30.0) addr f =
  match Net_client.connect ~request_timeout addr with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Failure msg -> Error msg
  | client -> (
      match Fun.protect ~finally:(fun () -> Net_client.close client) (fun () -> f client) with
      | result -> Ok result
      | exception Net_client.Protocol_error msg -> Error msg
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

type cluster_status = {
  generation : int;
  swaps : int;
  peers : string list;
}

let cluster_status_of_stats doc =
  let int key = Json.find_int doc [ key ] in
  match (int "generation", int "swaps", Option.bind (Json.find doc [ "peers" ]) Json.list) with
  | Some generation, Some swaps, Some items when List.for_all (fun p -> Json.str p <> None) items ->
      Ok { generation; swaps; peers = List.filter_map Json.str items }
  | _ -> Error "stats reply lacks generation, swaps or peers"

let backoff_cap = 2.0

(* Full jitter would be [u] alone; the half-floor keeps the schedule's
   back-off property (a run of zeros cannot hammer a recovering server)
   while still spreading N coordinators across half the window instead of
   a lockstep thundering herd. *)
let backoff_delay ~base ~attempt ~u =
  if attempt < 1 then invalid_arg "Eppi_cluster.backoff_delay: attempt must be >= 1";
  if not (u >= 0.0 && u < 1.0) then invalid_arg "Eppi_cluster.backoff_delay: u outside [0, 1)";
  let full = Float.min (base *. (2.0 ** float_of_int (attempt - 1))) backoff_cap in
  full *. (0.5 +. (0.5 *. u))

module Fanout = struct
  type replica_result = {
    addr : Addr.t;
    outcome : (int, string) result;
    attempts : int;
    seconds : float;
  }

  type report = {
    results : replica_result list;
    succeeded : int;
    failed : int;
    generation : int option;
    wall_seconds : float;
  }

  (* One republish attempt against one replica on a fresh connection
     (retry policy lives here, where it can distinguish transient from
     fatal): a replica that cannot be reached or answered is transient, a
     rejected payload is fatal. *)
  let attempt_once ~request_timeout addr data =
    match ask ~request_timeout addr (fun c -> Net_client.call c (Wire.Republish_binary { data })) with
    | Ok (Wire.Republished { generation }) -> Ok generation
    | Ok (Wire.Server_error msg) -> Error (`Fatal ("server rejected republish: " ^ msg))
    | Ok _ -> Error (`Fatal "unexpected reply to republish")
    | Error msg -> Error (`Transient msg)

  let push_replica ~retries ~retry_delay ~request_timeout ~rng addr data =
    let t0 = Clock.seconds () in
    let finish outcome attempts =
      { addr; outcome; attempts; seconds = Clock.seconds () -. t0 }
    in
    let rec go k =
      match attempt_once ~request_timeout addr data with
      | Ok generation -> finish (Ok generation) k
      | Error (`Fatal msg) -> finish (Error msg) k
      | Error (`Transient msg) ->
          if k > retries then finish (Error msg) k
          else begin
            Unix.sleepf
              (backoff_delay ~base:retry_delay ~attempt:k ~u:(Rng.float rng 1.0));
            go (k + 1)
          end
    in
    go 1

  let republish ?(retries = 3) ?(retry_delay = 0.05) ?(request_timeout = 30.0) ?(seed = 0x5e7)
      set index =
    if retries < 0 then invalid_arg "Fanout.republish: negative retries";
    let data = Index_codec.encode index in
    let t0 = Clock.seconds () in
    let rng = Rng.create seed in
    (* One domain per replica; each carries its own split of the jitter
       stream, so the fan-out is concurrent yet deterministic under a
       fixed seed. *)
    let domains =
      List.map
        (fun addr ->
          let rng = Rng.split rng in
          Domain.spawn (fun () ->
              push_replica ~retries ~retry_delay ~request_timeout ~rng addr data))
        (Replica_set.addrs set)
    in
    let results = List.map Domain.join domains in
    let succeeded = List.length (List.filter (fun r -> Result.is_ok r.outcome) results) in
    let generation =
      match List.filter_map (fun r -> Result.to_option r.outcome) results with
      | [] -> None
      | g :: rest -> if List.for_all (Int.equal g) rest then Some g else None
    in
    {
      results;
      succeeded;
      failed = List.length results - succeeded;
      generation;
      wall_seconds = Clock.seconds () -. t0;
    }

  let status ?(request_timeout = 30.0) set =
    List.map
      (fun addr ->
        let status =
          Result.bind (ask ~request_timeout addr Net_client.stats_json) (fun raw ->
              Result.bind (Json.parse raw) cluster_status_of_stats)
        in
        (addr, status))
      (Replica_set.addrs set)

  let converged statuses =
    match statuses with
    | [] -> None
    | _ -> (
        match
          List.map
            (function
              | _, Ok (s : cluster_status) -> Some s.generation
              | _, Error _ -> None)
            statuses
        with
        | Some g :: rest when List.for_all (Option.equal Int.equal (Some g)) rest -> Some g
        | _ -> None)
end

module Client = struct
  exception No_replica of string
  exception Stale_generation of { newest : int; got : int }

  type endpoint = {
    e_addr : Addr.t;
    mutable conn : Net_client.t option;
    mutable healthy : bool;
    mutable down_until : float;  (* monotonic seconds; cooldown gate when unhealthy *)
    mutable last_failure : string;  (* why it was last put down; "" before that *)
    mutable dispatched : int;
    mutable answered : int;
    mutable failures : int;
  }

  type t = {
    endpoints : endpoint array;
    request_timeout : float;
    cooldown : float;
    rng : Rng.t;
    mutable rr : int;
    mutable failovers : int;
    mutable failover_seconds : float list;
    mutable max_generation : int;
    mutable fail_start : float option;  (* set at outage detection, cleared at first success *)
  }

  let create ?(request_timeout = 30.0) ?(cooldown = 1.0) ?(seed = 0xc1) set =
    if cooldown < 0.0 then invalid_arg "Cluster.Client: negative cooldown";
    let endpoints =
      Replica_set.addrs set
      |> List.map (fun e_addr ->
             {
               e_addr;
               conn = None;
               healthy = true;
               down_until = 0.0;
               last_failure = "";
               dispatched = 0;
               answered = 0;
               failures = 0;
             })
      |> Array.of_list
    in
    {
      endpoints;
      request_timeout;
      cooldown;
      rng = Rng.create seed;
      rr = 0;
      failovers = 0;
      failover_seconds = [];
      max_generation = -1;
      fail_start = None;
    }

  let select ~rr slots =
    let n = Array.length slots in
    let rec go k =
      if k >= n then None
      else
        let i = (((rr mod n) + n) mod n + k) mod n in
        if slots.(i) then Some i else go (k + 1)
    in
    go 0

  let selectable e now = e.healthy || now >= e.down_until

  let close_conn e =
    (match e.conn with
    | Some c -> ( try Net_client.close c with _ -> ())
    | None -> ());
    e.conn <- None

  let cool_down t e ~reason now =
    e.healthy <- false;
    e.last_failure <- reason;
    e.down_until <- now +. (t.cooldown *. (0.5 +. (0.5 *. Rng.float t.rng 1.0)))

  let mark_down t e ~reason now =
    close_conn e;
    cool_down t e ~reason now;
    e.failures <- e.failures + 1;
    (* The dead socket's unanswered requests are being re-issued elsewhere;
       they no longer count as this endpoint's. *)
    e.answered <- e.dispatched;
    if t.fail_start = None then t.fail_start <- Some now

  (* The client's one dial point: a replica's connection is opened here,
     on first use and again after each time it is marked down. *)
  let ensure_conn t e =
    match e.conn with
    | Some c -> c
    | None ->
        let c = Net_client.connect ~request_timeout:t.request_timeout e.e_addr in
        e.conn <- Some c;
        c

  (* Every replica with the reason it was last put down, in set order. *)
  let no_replica t =
    let reason e = Printf.sprintf "%s: %s" (Addr.to_string e.e_addr) e.last_failure in
    No_replica (String.concat "; " (List.map reason (Array.to_list t.endpoints)))

  let observe_generation t (response : Wire.response) =
    let g =
      match response with
      | Reply { generation; _ }
      | Audit_reply { generation; _ }
      | Republished { generation }
      | Fuzzy_reply { generation; _ } ->
          generation
      | Stats_json _ | Pong | Shutting_down | Server_error _ -> -1
    in
    if g > t.max_generation then t.max_generation <- g

  (* Issue one window, failing over until it lands or every endpoint has
     been tried this call.  Returns the answering endpoint's index so the
     typed wrappers can penalize a stale replica. *)
  let issue t requests =
    let count = List.length requests in
    let rec try_next excluded =
      let now = Clock.seconds () in
      let slots =
        Array.map (fun e -> (not (List.memq e excluded)) && selectable e now) t.endpoints
      in
      match select ~rr:t.rr slots with
      | None -> raise (no_replica t)
      | Some i -> (
          t.rr <- i + 1;
          let e = t.endpoints.(i) in
          match
            let c = ensure_conn t e in
            e.dispatched <- e.dispatched + count;
            let responses = Net_client.pipeline c requests in
            e.answered <- e.answered + count;
            responses
          with
          | responses ->
              e.healthy <- true;
              (match t.fail_start with
              | Some t_fail ->
                  t.failovers <- t.failovers + 1;
                  t.failover_seconds <- (Clock.seconds () -. t_fail) :: t.failover_seconds;
                  t.fail_start <- None
              | None -> ());
              List.iter (observe_generation t) responses;
              (i, responses)
          | exception (Net_client.Protocol_error reason | Failure reason) ->
              (* [Failure]: a host name that does not resolve. *)
              mark_down t e ~reason (Clock.seconds ());
              try_next (e :: excluded)
          | exception Unix.Unix_error (err, _, _) ->
              mark_down t e ~reason:(Unix.error_message err) (Clock.seconds ());
              try_next (e :: excluded))
    in
    try_next []

  let pipeline t requests = snd (issue t requests)

  let query t ~owner =
    let i, responses = issue t [ Wire.Query { owner } ] in
    match responses with
    | [ Wire.Reply { generation; reply } ] ->
        if generation < t.max_generation then begin
          (* Penalize the laggard: cool it down (connection kept — the
             replica is alive, just behind) so the retry lands fresher. *)
          cool_down t t.endpoints.(i)
            ~reason:(Printf.sprintf "generation %d is behind %d" generation t.max_generation)
            (Clock.seconds ());
          raise (Stale_generation { newest = t.max_generation; got = generation })
        end;
        (generation, reply)
    | [ other ] -> Net_client.unexpected "query" other
    | _ -> raise (Net_client.Protocol_error "cluster query: response count mismatch")

  type stats = {
    dispatched : int array;
    answered : int array;
    failures : int array;
    failovers : int;
    failover_seconds : float list;
    max_generation : int;
  }

  let stats t =
    {
      dispatched = Array.map (fun (e : endpoint) -> e.dispatched) t.endpoints;
      answered = Array.map (fun (e : endpoint) -> e.answered) t.endpoints;
      failures = Array.map (fun (e : endpoint) -> e.failures) t.endpoints;
      failovers = t.failovers;
      failover_seconds = t.failover_seconds;
      max_generation = t.max_generation;
    }

  let close t = Array.iter close_conn t.endpoints
end
