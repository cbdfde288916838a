module Trace = Eppi_obs.Trace
module Serve = Eppi_serve.Serve
module Clock = Eppi_prelude.Clock
module Json = Eppi_prelude.Json

type config = {
  idle_timeout : float;
  telemetry : bool;
  peers : string list;
}

let default_config = { idle_timeout = 300.0; telemetry = true; peers = [] }

(* Connections served at once; later clients wait in the listen backlog
   until one closes. *)
let max_connections = 64

(* Per-frame payload bound fed to every connection's decoder. *)
let max_payload = Wire.default_max_payload

(* Per-connection write-buffer bound before backpressure. *)
let max_pending_bytes = 8 * 1024 * 1024

type t = {
  engine : Serve.t;
  config : config;
  telemetry : Telemetry.t;
}

let create ?(config = default_config) engine = { engine; config; telemetry = Telemetry.create () }

let engine t = t.engine

(* ---- request handling (transport-independent) ---- *)

(* The Stats reply: the engine's metrics plus the trace session's drop
   count. *)
let stats_json t =
  Json.to_string
    (Eppi_serve.Metrics.json (Serve.metrics t.engine)
       ~extra:[ ("trace_dropped", Json.int (Trace.dropped_events ())) ])

let telemetry_json t =
  let m = Serve.metrics t.engine in
  let extra =
    [ ("generation", Json.int m.generation); ("swaps", Json.int m.swaps);
      ( "trace",
        Json.Obj
          [ ("enabled", Bool (Trace.enabled ()));
            ("dropped", Json.int (Trace.dropped_events ())) ] );
      ("telemetry_enabled", Bool t.config.telemetry) ]
  in
  Json.to_string (Telemetry.json ~extra t.telemetry ~now_ns:(Clock.monotonic_ns ()))

let cluster_status t =
  let m = Serve.metrics t.engine in
  Wire.Cluster_status_reply { generation = m.generation; swaps = m.swaps; peers = t.config.peers }

let handle_request t (request : Wire.request) : Wire.response =
  match request with
  | Query { owner } ->
      let generation, reply = Serve.query_tagged t.engine ~owner in
      Reply { generation; reply }
  | Audit { provider } ->
      Audit_reply
        { generation = Serve.generation t.engine; owners = Serve.audit t.engine ~provider }
  | Stats -> Stats_json (stats_json t)
  | Telemetry -> Telemetry_json (telemetry_json t)
  | Cluster_status -> cluster_status t
  | Traced _ ->
      (* [serve_request] peels the one envelope a frame may carry. *)
      Server_error "protocol: nested trace envelope"
  | Republish_binary { data } -> (
      match Index_codec.decode_postings data with
      | Ok store ->
          let generation = Serve.republish t.engine store in
          (* Decoding allocates almost nothing but the new store's large
             blocks, so few minor collections follow a republish to drive
             the major slices that free the old generations: finish a
             cycle once per install, so they do not pile up. *)
          Gc.major ();
          Republished { generation }
      | Error e -> Server_error ("republish: " ^ Index_codec.error_to_string e))
  | Query_fuzzy { probe; k } ->
      let generation, result = Serve.query_fuzzy ~k t.engine probe in
      Fuzzy_reply { generation; result }
  | Ping -> Pong
  | Shutdown -> Shutting_down

(* [trace_id] is the propagated client trace context (from a [Traced]
   envelope, -1 when there was none), attached to the server-side span so
   the client's and the daemon's tracks join in one exported trace. *)
let handle ~trace_id t request =
  if not (Trace.enabled ()) then handle_request t request
  else begin
    let args = [ ("tag", Wire.request_tag request) ] in
    let args = if trace_id >= 0 then ("trace_id", trace_id) :: args else args in
    Trace.span "net.request" ~args (fun () -> handle_request t request)
  end

(* ---- listening ---- *)

(* A live daemon's socket accepts a connection (or, with a full backlog,
   would make a blocking one wait); a dead one's leftover refuses it. *)
let socket_in_use path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.set_nonblock fd;
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINPROGRESS), _, _) -> true
      | exception Unix.Unix_error _ -> false)

let listen address =
  (match address with
  | Addr.Unix_socket path when Sys.file_exists path -> (
      match (Unix.stat path).st_kind with
      | Unix.S_SOCK when socket_in_use path ->
          failwith (Printf.sprintf "Server.listen: %s is in use by a running daemon" path)
      | Unix.S_SOCK -> Unix.unlink path (* a dead server's leftover *)
      | _ -> failwith (Printf.sprintf "Server.listen: %s exists and is not a socket" path))
  | _ -> ());
  let family = match address with Addr.Unix_socket _ -> Unix.PF_UNIX | Addr.Tcp _ -> Unix.PF_INET in
  let fd = Unix.socket family Unix.SOCK_STREAM 0 in
  (match address with
  | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Addr.Unix_socket _ -> ());
  (try
     Unix.bind fd (Addr.sockaddr address);
     Unix.listen fd 128
   with e ->
     Unix.close fd;
     raise e);
  fd

let encode_frame response =
  let b = Buffer.create 128 in
  Wire.encode_response b response;
  Buffer.contents b

(* Exception barrier: nothing a handler raises may escape the loop, or
   one bad request would stop the daemon for every client.  The failure
   answers [Server_error] instead, and the connection goes on. *)
let handler_failed e =
  if Trace.enabled () then Trace.instant "net.handler_error";
  "handler: " ^ Printexc.to_string e

(* ---- the select loop ---- *)

(* A connection reads [rfd] and writes [wfd]: one socket for an accepted
   client, stdin and stdout for [--stdio]. *)
type conn = {
  rfd : Unix.file_descr;
  wfd : Unix.file_descr;
  decoder : Wire.Decoder.t;
  mutable out : Bytes.t;
  mutable out_off : int;  (* [out_off, out_len) of [out] is not yet written *)
  mutable out_len : int;
  mutable last_activity : float;
  mutable closing : bool;  (* framing error: no more reads or decoding *)
  mutable eof : bool;  (* the peer sent EOF: no more reads; buffered frames still served *)
  id : int;
  mutable appended : int;  (* bytes ever appended to [out] (monotone) *)
  mutable written : int;  (* bytes ever written to the socket (monotone) *)
  watch : (int * Telemetry.record) Queue.t;
      (* (appended watermark, record): the record's flush stage ends when
         [written] passes the watermark.  FIFO because [appended] only
         grows. *)
}

let pending c = c.out_len - c.out_off

(* Append a frame behind the unwritten bytes.  When it does not fit at the
   tail, the unwritten bytes slide to the front if that leaves at least
   half of [out] free, and move into a buffer twice as large otherwise —
   so each appended byte costs O(1) copies, however the client reads. *)
let append_out c frame =
  let len = String.length frame in
  if c.out_len + len > Bytes.length c.out then begin
    let unwritten = pending c in
    let dst =
      if 2 * (unwritten + len) <= Bytes.length c.out then c.out
      else Bytes.create (2 * max (unwritten + len) (Bytes.length c.out))
    in
    Bytes.blit c.out c.out_off dst 0 unwritten;
    c.out <- dst;
    c.out_off <- 0;
    c.out_len <- unwritten
  end;
  Bytes.blit_string frame 0 c.out c.out_len len;
  c.out_len <- c.out_len + len;
  c.appended <- c.appended + len

(* A connection whose client is not reading its replies. *)
let backpressured c = pending c >= max_pending_bytes

let instant_conn name c =
  if Trace.enabled () then Trace.instant name ~args:[ ("conn", c.id) ]

(* Serve [streams] (read, write) and, when there is a listener, every
   client it accepts.  Returns after a [Shutdown] once every reply is
   flushed, or — without a listener — once the last connection closes. *)
let loop t ~listener ~streams =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Option.iter Unix.set_nonblock listener;
  let conns = ref [] in
  let next_id = ref 0 in
  let shutting = ref false in
  let readbuf = Bytes.create 65536 in
  let close_fds c =
    (try Unix.close c.rfd with Unix.Unix_error _ -> ());
    if c.wfd <> c.rfd then try Unix.close c.wfd with Unix.Unix_error _ -> ()
  in
  let close_conn c =
    instant_conn "net.close" c;
    close_fds c;
    conns := List.filter (fun c' -> c' != c) !conns
  in
  (* Answer one decoded request: call the handler, append the reply frame
     behind the connection's earlier replies, and stamp the record's
     execute stage closed.  [t_read]/[t_decoded] bound the decode stage (0
     when telemetry is off); the one [Traced] envelope a frame may carry
     is peeled here, so the handler sees the inner request and the record
     keeps the id. *)
  let serve_request c request ~t_read ~t_decoded =
    let trace_id, request =
      match request with
      | Wire.Traced { trace_id; request } -> (trace_id, request)
      | request -> (-1, request)
    in
    (match request with Wire.Shutdown -> shutting := true | _ -> ());
    let frame =
      try encode_frame (handle ~trace_id t request)
      with e -> encode_frame (Wire.Server_error (handler_failed e))
    in
    append_out c frame;
    if t.config.telemetry then
      Queue.push
        ( c.appended,
          {
            Telemetry.kind = Wire.request_tag request;
            trace_id;
            t_read;
            t_decoded;
            t_executed = Clock.monotonic_ns ();
          } )
        c.watch
  in
  let respond_error c msg =
    append_out c (encode_frame (Wire.Server_error msg));
    c.closing <- true
  in
  (* Answer every complete frame the connection has buffered, in order.
     A decode error answers [Server_error] and flags the connection for
     close; the error is sticky, so no further frame can be misread from
     the wreck. *)
  let drain c =
    let continue = ref true in
    while !continue && not c.closing do
      let t_read = if t.config.telemetry then Clock.monotonic_ns () else 0 in
      match Wire.Decoder.next c.decoder with
      | Ok None -> continue := false
      | Ok (Some (Wire.Request request)) ->
          let t_decoded = if t.config.telemetry then Clock.monotonic_ns () else 0 in
          serve_request c request ~t_read ~t_decoded
      | Ok (Some (Wire.Response _)) -> respond_error c "protocol: response frame sent to server"
      | Error e -> respond_error c (Wire.error_to_string e)
    done
  in
  (* A connection that reads no more (EOF or a framing error) closes once
     every reply it is owed is written. *)
  let close_if_done c = if (c.closing || c.eof) && pending c = 0 then close_conn c in
  let read_from c =
    match Unix.read c.rfd readbuf 0 (Bytes.length readbuf) with
    | 0 ->
        c.eof <- true;
        close_if_done c
    | n ->
        c.last_activity <- Clock.seconds ();
        Wire.Decoder.feed c.decoder readbuf ~off:0 ~len:n;
        drain c
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> close_conn c
  in
  let write_to c =
    match Unix.write c.wfd c.out c.out_off (pending c) with
    | n ->
        c.out_off <- c.out_off + n;
        c.written <- c.written + n;
        c.last_activity <- Clock.seconds ();
        (* Every record whose frame is now fully on the socket is done:
           close its flush stage and fold it into the aggregates. *)
        if not (Queue.is_empty c.watch) then begin
          let t_written = Clock.monotonic_ns () in
          let continue = ref true in
          while !continue && not (Queue.is_empty c.watch) do
            let watermark, record = Queue.peek c.watch in
            if watermark <= c.written then begin
              ignore (Queue.pop c.watch);
              Telemetry.finish t.telemetry record ~t_written
            end
            else continue := false
          done
        end;
        if c.out_off = c.out_len then begin
          c.out_off <- 0;
          c.out_len <- 0;
          close_if_done c
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> close_conn c
  in
  let open_conn rfd wfd =
    Unix.set_nonblock rfd;
    Unix.set_nonblock wfd;
    incr next_id;
    let c =
      {
        rfd;
        wfd;
        decoder = Wire.Decoder.create ~max_payload ();
        out = Bytes.create 1024;
        out_off = 0;
        out_len = 0;
        last_activity = Clock.seconds ();
        closing = false;
        eof = false;
        id = !next_id;
        appended = 0;
        written = 0;
        watch = Queue.create ();
      }
    in
    conns := c :: !conns;
    instant_conn "net.accept" c
  in
  let accept_one listener =
    match Unix.accept listener with
    | fd, _ -> open_conn fd fd
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) -> ()
  in
  List.iter (fun (rfd, wfd) -> open_conn rfd wfd) streams;
  let last_stalled = ref (-1) in
  let stall_counter () =
    if Trace.enabled () then begin
      let n = List.fold_left (fun acc c -> if backpressured c then acc + 1 else acc) 0 !conns in
      if n <> !last_stalled then begin
        last_stalled := n;
        Trace.counter "net.mux" [ ("stalled_conns", n) ]
      end
    end
  in
  let finished () =
    (!shutting && List.for_all (fun c -> pending c = 0) !conns)
    || (listener = None && !conns = [])
  in
  while not (finished ()) do
    let accepting =
      match listener with
      | Some l when (not !shutting) && List.length !conns < max_connections -> Some l
      | _ -> None
    in
    let reads =
      Option.to_list accepting
      @ List.filter_map
          (fun c ->
            if (not c.closing) && (not c.eof) && (not !shutting) && not (backpressured c) then
              Some c.rfd
            else None)
          !conns
    in
    let writes = List.filter_map (fun c -> if pending c > 0 then Some c.wfd else None) !conns in
    (match Unix.select reads writes [] 0.5 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, writable, _ ->
        List.iter
          (fun c -> if List.memq c.wfd writable then write_to c)
          !conns;
        List.iter
          (fun c -> if List.memq c.rfd readable then read_from c)
          !conns;
        (match accepting with
        | Some l when List.memq l readable -> accept_one l
        | _ -> ());
        if t.config.idle_timeout > 0.0 && not !shutting then begin
          let now = Clock.seconds () in
          List.iter
            (fun c ->
              if pending c = 0 && now -. c.last_activity > t.config.idle_timeout then
                close_conn c)
            !conns
        end);
    stall_counter ()
  done;
  List.iter close_fds !conns;
  conns := [];
  Option.iter (fun l -> try Unix.close l with Unix.Unix_error _ -> ()) listener

let run t listener = loop t ~listener:(Some listener) ~streams:[]

let serve ~ready t address =
  let listener = listen address in
  let cleanup () =
    match address with
    | Addr.Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Addr.Tcp _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      ready ();
      run t listener)

(* The loop closes the descriptors it serves, so it gets duplicates and
   the process keeps fds 0 and 1.  They share one open file description
   with the duplicates, so clearing O_NONBLOCK through them leaves a
   stream inherited from a shell as it was found. *)
let run_stdio t =
  let streams = [ (Unix.dup Unix.stdin, Unix.dup Unix.stdout) ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
        [ Unix.stdin; Unix.stdout ])
    (fun () -> loop t ~listener:None ~streams)
