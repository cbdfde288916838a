module Trace = Eppi_obs.Trace

type t = {
  fd : Unix.file_descr;  (* nonblocking from connect on *)
  decoder : Wire.Decoder.t;
  readbuf : Bytes.t;
  mutable closed : bool;
  request_timeout : float option;
}

(* Trace ids need only be unique within a trace session; folding the pid
   in keeps ids from two processes tracing against one daemon distinct. *)
let trace_ids = Atomic.make 0

let next_trace_id () =
  ((Unix.getpid () land 0xFFFF) lsl 24) lor (Atomic.fetch_and_add trace_ids 1 land 0xFFFFFF)

type error = Timed_out | Connection_lost of string

exception Protocol_error of string

(* Raised internally when the transport dies mid-exchange; converted to
   [Connection_lost] at the call boundary. *)
exception Conn_lost of string

let ignore_sigpipe () =
  (* A server that dies between our write and its read turns the next write
     into SIGPIPE; we want EPIPE instead, so the loss comes back as
     [Connection_lost].  Unsupported on some platforms (e.g. Windows) —
     then writes already fail with an error, not a signal. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

(* The connected socket is nonblocking for its whole life, since every
   exchange runs through [exchange]'s select loop. *)
let connect ?request_timeout address =
  ignore_sigpipe ();
  let sockaddr = Addr.sockaddr address in
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  (match Unix.connect fd sockaddr with
  | () -> Unix.set_nonblock fd
  | exception e ->
      Unix.close fd;
      raise e);
  {
    fd;
    decoder = Wire.Decoder.create ();
    readbuf = Bytes.create 65536;
    closed = false;
    request_timeout;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Send [requests] and collect one response each, in order.  Writes and
   reads interleave on the nonblocking socket: reading while still writing
   is what prevents the distributed-buffer deadlock (client blocked in
   write, server blocked in write, nobody reads).  [request_timeout] is an
   inactivity bound, reset whenever the socket makes progress. *)
let exchange t requests =
  let expected = List.length requests in
  let responses = ref [] and received = ref 0 in
  let timeout = Option.value t.request_timeout ~default:(-1.0) in
  let drain () =
    let continue = ref true in
    while !continue && !received < expected do
      match Wire.Decoder.next t.decoder with
      | Ok (Some (Wire.Response response)) ->
          responses := response :: !responses;
          incr received
      | Ok (Some (Wire.Request _)) -> raise (Protocol_error "server sent a request frame")
      | Error e -> raise (Protocol_error (Wire.error_to_string e))
      | Ok None -> continue := false
    done
  in
  let b = Buffer.create (64 * expected) in
  List.iter (Wire.encode_request b) requests;
  let bytes = Buffer.to_bytes b in
  let total = Bytes.length bytes and sent = ref 0 in
  (* Write before [select]: the socket almost always has room, which
     saves a [select] per exchange. *)
  let rec step () =
    drain ();
    if !received = expected then Ok (List.rev !responses)
    else begin
      if !sent < total then begin
        match Unix.write t.fd bytes !sent (total - !sent) with
        | n -> sent := !sent + n
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
        | exception Unix.Unix_error ((EPIPE | ECONNRESET | ECONNREFUSED), _, _) ->
            raise (Conn_lost "connection lost mid-request")
      end;
      let writes = if !sent < total then [ t.fd ] else [] in
      match Unix.select [ t.fd ] writes [] timeout with
      | exception Unix.Unix_error (EINTR, _, _) -> step ()
      | [], [], _ -> Error Timed_out
      | readable, _, _ ->
          (if readable <> [] then
             match Unix.read t.fd t.readbuf 0 (Bytes.length t.readbuf) with
             | 0 -> raise (Conn_lost "connection closed mid-response")
             | n -> Wire.Decoder.feed t.decoder t.readbuf ~off:0 ~len:n
             | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
             | exception Unix.Unix_error ((ECONNRESET | EPIPE | ECONNREFUSED), _, _) ->
                 raise (Conn_lost "connection reset"));
          step ()
    end
  in
  try step () with Conn_lost msg -> Error (Connection_lost msg)

let call_result t request =
  (* Trace-context propagation: with tracing on, wrap the request with a
     fresh trace id and mirror it on a client-side span, so the client's
     and the daemon's tracks join in one exported trace. *)
  let request, trace_id =
    match request with
    | Wire.Traced { trace_id; _ } -> (request, trace_id)
    | _ when Trace.enabled () ->
        let id = next_trace_id () in
        (Wire.Traced { trace_id = id; request }, id)
    | _ -> (request, -1)
  in
  let one () = Result.map List.hd (exchange t [ request ]) in
  if trace_id >= 0 then Trace.span "client.request" ~args:[ ("trace_id", trace_id) ] one
  else one ()

let call t request =
  match call_result t request with
  | Ok response -> response
  | Error Timed_out -> raise (Protocol_error "request timed out")
  | Error (Connection_lost msg) -> raise (Protocol_error msg)

let pipeline t requests =
  match exchange t requests with
  | Ok responses -> responses
  | Error Timed_out -> raise (Protocol_error "pipeline timed out")
  | Error (Connection_lost msg) -> raise (Protocol_error msg)

(* ---- typed wrappers ---- *)

let unexpected what (response : Wire.response) =
  let kind =
    match response with
    | Reply _ -> "reply"
    | Audit_reply _ -> "audit reply"
    | Stats_json _ -> "stats"
    | Republished _ -> "republished"
    | Pong -> "pong"
    | Shutting_down -> "shutting down"
    | Server_error msg -> Printf.sprintf "server error: %s" msg
    | Fuzzy_reply _ -> "fuzzy reply"
  in
  raise (Protocol_error (Printf.sprintf "%s answered with %s" what kind))

let query t ~owner =
  match call t (Wire.Query { owner }) with
  | Reply { generation; reply } -> (generation, reply)
  | other -> unexpected "query" other

let query_fuzzy ?(k = 10) t probe =
  match call t (Wire.Query_fuzzy { probe; k }) with
  | Fuzzy_reply { generation; result } -> (generation, result)
  | other -> unexpected "fuzzy query" other

let audit t ~provider =
  match call t (Wire.Audit { provider }) with
  | Audit_reply { generation; owners } -> (generation, owners)
  | other -> unexpected "audit" other

let stats_json t =
  match call t Wire.Stats with
  | Stats_json json -> json
  | other -> unexpected "stats" other

let telemetry_json = stats_json

let republish_index t index =
  match call t (Wire.Republish_binary { data = Index_codec.encode index }) with
  | Republished { generation } -> Ok generation
  | Server_error msg -> Error msg
  | other -> unexpected "republish" other

let ping t =
  match call t Wire.Ping with
  | Pong -> ()
  | other -> unexpected "ping" other

let shutdown t =
  match call t Wire.Shutdown with
  | Shutting_down -> ()
  | other -> unexpected "shutdown" other
