module Trace = Eppi_obs.Trace
module Serve = Eppi_serve.Serve
module Clock = Eppi_prelude.Clock
module Json = Eppi_prelude.Json

type config = {
  idle_timeout : float;
  workers : int;
  max_inflight : int;
  telemetry : bool;
  peers : string list;
}

let default_config =
  { idle_timeout = 300.0; workers = 1; max_inflight = 1024; telemetry = true; peers = [] }

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
  (* (id, queue_depth, busy_ns, served) per worker domain; installed by
     [start_workers] so the stats/telemetry paths (which run before the
     workers type is even defined) can read the pool without a cycle. *)
  mutable worker_info : unit -> (int * int * int * int) list;
}

let create ?(config = default_config) engine =
  if config.workers < 1 then invalid_arg "Server: workers must be >= 1";
  if config.max_inflight < 1 then invalid_arg "Server: max_inflight must be >= 1";
  { engine; config; telemetry = Telemetry.create (); worker_info = (fun () -> []) }

let engine t = t.engine

(* ---- request handling (transport-independent) ---- *)

let workers_json t =
  Json.List
    (List.map
       (fun (id, depth, busy_ns, served) ->
         Json.Obj
           [ ("id", Json.int id); ("queue_depth", Json.int depth);
             ("busy_us", Json.int (busy_ns / 1000)); ("served", Json.int served) ])
       (t.worker_info ()))

(* The Stats reply: the engine's merged metrics plus the per-worker
   counters and the trace session's drop count, so backpressure is
   visible without a trace session. *)
let stats_json t =
  Json.to_string
    (Eppi_serve.Metrics.json (Serve.metrics t.engine)
       ~extra:
         [ ("workers", workers_json t); ("trace_dropped", Json.int (Trace.dropped_events ())) ])

let telemetry_json t =
  let m = Serve.metrics t.engine in
  let extra =
    [ ("workers", workers_json t); ("generation", Json.int m.generation);
      ("swaps", Json.int m.swaps);
      ( "trace",
        Json.Obj
          [ ("enabled", Bool (Trace.enabled ()));
            ("dropped", Json.int (Trace.dropped_events ())) ] );
      ("telemetry_enabled", Bool t.config.telemetry) ]
  in
  Json.to_string (Telemetry.json ~extra t.telemetry ~now_ns:(Clock.monotonic_ns ()))

(* Reads only the published generation, merged metrics and static config —
   safe from any domain, which is why the multicore mux answers it inline. *)
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
      (* [route] peels the one envelope a frame may carry. *)
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

let listen address =
  (match address with
  | Addr.Unix_socket path when Sys.file_exists path -> (
      match (Unix.stat path).st_kind with
      | Unix.S_SOCK -> Unix.unlink path (* a dead server's leftover *)
      | _ -> failwith (Printf.sprintf "Server.listen: %s exists and is not a socket" path))
  | _ -> ());
  let domain = match address with Addr.Unix_socket _ -> Unix.PF_UNIX | Addr.Tcp _ -> Unix.PF_INET in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
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

(* ---- worker domains ----

   The mux never calls the engine when [workers > 1]; it assigns each
   request a per-connection sequence number and hands it to a worker
   domain.  Shard-affine requests (Query, Audit) go to worker
   [shard mod workers], which preserves the engine's
   single-writer-per-shard contract: shard state is only ever touched
   from the one domain that owns it.  Republish decodes and installs on
   a worker too — the engine's generation slot is atomic, so any domain
   may CAS it — keeping index parsing off the I/O loop.  Every request
   routed to a worker is one job there, answered by one completion.

   Workers push finished, pre-encoded response frames onto a lock-free
   Treiber stack and write one byte down a self-pipe so [select] wakes.
   The mux drains the stack, slots each frame into its connection's
   reorder buffer, and flushes in sequence order — so the wire keeps the
   strict one-response-per-request-in-order contract no matter how the
   domains interleave. *)

type job =
  | Job of {
      conn_id : int;
      seq : int;
      request : Wire.request;
      trace_id : int;
      j_record : Telemetry.record option;
    }
  | Stop

type completion = {
  c_conn : int;
  c_seq : int;
  frame : string;  (* the whole response frame, encoded on the worker *)
  c_record : Telemetry.record option;
}

type worker = {
  w_id : int;
  inbox : job Queue.t;  (* guarded by [w_lock] *)
  w_lock : Mutex.t;
  w_ready : Condition.t;
  w_depth : int Atomic.t;  (* inbox length, sampled for counters *)
  w_track : string;  (* counter track name, e.g. "net.worker-0" *)
  w_served : int Atomic.t;  (* atomics: the mux reads these for stats *)
  w_busy_ns : int Atomic.t;
}

type workers = {
  pool : worker array;
  completions : completion list Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable domains : unit Domain.t array;
  mutable rr : int;  (* round-robin cursor for shardless jobs (mux only) *)
}

let enqueue w job =
  Mutex.lock w.w_lock;
  Queue.push job w.inbox;
  Condition.signal w.w_ready;
  Mutex.unlock w.w_lock;
  Atomic.incr w.w_depth

let wake_byte = Bytes.make 1 '!'

let rec wake fd =
  match Unix.write fd wake_byte 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> wake fd
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      (* Pipe full: a wakeup is already pending, which is all we need. *)
      ()

let push_completion ws comp =
  let rec push () =
    let old = Atomic.get ws.completions in
    if not (Atomic.compare_and_set ws.completions old (comp :: old)) then push ()
  in
  push ();
  wake ws.wake_w

let encode_frame response =
  let b = Buffer.create 128 in
  Wire.encode_response b response;
  Buffer.contents b

let worker_counters w =
  if Trace.enabled () then
    Trace.counter w.w_track
      [
        ("queue_depth", Atomic.get w.w_depth);
        ("busy_us", Atomic.get w.w_busy_ns / 1000);
        ("served", Atomic.get w.w_served);
      ]

(* Exception barrier: nothing a job raises may escape the worker loop.
   An escaped exception would silently kill the domain at [Domain.join]
   time — every shard pinned to it stops answering, stalled connections
   never resume, and shutdown hangs.  Instead the failure becomes a
   [Server_error] completion so the sequence hole is filled and the
   connection keeps making progress. *)
let worker_failed w e =
  let msg = "worker: " ^ Printexc.to_string e in
  if Trace.enabled () then Trace.instant "net.worker_error" ~args:[ ("worker", w.w_id) ];
  msg

let worker_loop t ws w =
  let running = ref true in
  while !running do
    Mutex.lock w.w_lock;
    while Queue.is_empty w.inbox do
      Condition.wait w.w_ready w.w_lock
    done;
    let job = Queue.pop w.inbox in
    Mutex.unlock w.w_lock;
    Atomic.decr w.w_depth;
    (match job with
    | Stop -> running := false
    | Job { conn_id; seq; request; trace_id; j_record } ->
        let t0 = Clock.monotonic_ns () in
        (match j_record with Some r -> r.Telemetry.t_started <- t0 | None -> ());
        let frame =
          try encode_frame (handle ~trace_id t request)
          with e -> encode_frame (Wire.Server_error (worker_failed w e))
        in
        let t1 = Clock.monotonic_ns () in
        (match j_record with Some r -> r.Telemetry.t_done <- t1 | None -> ());
        push_completion ws { c_conn = conn_id; c_seq = seq; frame; c_record = j_record };
        Atomic.incr w.w_served;
        ignore (Atomic.fetch_and_add w.w_busy_ns (t1 - t0)));
    worker_counters w
  done

let start_workers t n =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let pool =
    Array.init n (fun i ->
        {
          w_id = i;
          inbox = Queue.create ();
          w_lock = Mutex.create ();
          w_ready = Condition.create ();
          w_depth = Atomic.make 0;
          w_track = Printf.sprintf "net.worker-%d" i;
          w_served = Atomic.make 0;
          w_busy_ns = Atomic.make 0;
        })
  in
  let ws = { pool; completions = Atomic.make []; wake_r; wake_w; domains = [||]; rr = 0 } in
  ws.domains <- Array.map (fun w -> Domain.spawn (fun () -> worker_loop t ws w)) pool;
  t.worker_info <-
    (fun () ->
      Array.to_list
        (Array.map
           (fun w ->
             (w.w_id, Atomic.get w.w_depth, Atomic.get w.w_busy_ns, Atomic.get w.w_served))
           pool));
  ws

let stop_workers ws =
  Array.iter (fun w -> enqueue w Stop) ws.pool;
  Array.iter Domain.join ws.domains;
  (try Unix.close ws.wake_r with Unix.Unix_error _ -> ());
  try Unix.close ws.wake_w with Unix.Unix_error _ -> ()

(* Mirror the engine's owner → shard mapping (owner mod shards, folded
   into range for negative ids), then pin shard i to worker i mod d. *)
let worker_for_owner engine ws owner =
  let shards = Serve.shards engine in
  let shard = owner mod shards in
  let shard = if shard < 0 then shard + shards else shard in
  ws.pool.(shard mod Array.length ws.pool)

let next_round_robin ws =
  let w = ws.pool.(ws.rr mod Array.length ws.pool) in
  ws.rr <- ws.rr + 1;
  w

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
  mutable next_seq : int;  (* sequence assigned to the next request *)
  mutable next_flush : int;  (* next sequence to append to [out] *)
  replies : (int, string * Telemetry.record option) Hashtbl.t;
      (* completed frames awaiting flush, with their stage records *)
  mutable stall_seq : int;  (* seq of an in-flight republish, or -1 *)
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
  c.out_len <- c.out_len + len

let inflight c = c.next_seq - c.next_flush

let instant_conn name c =
  if Trace.enabled () then Trace.instant name ~args:[ ("conn", c.id) ]

(* Serve [streams] (read, write) and, when there is a listener, every
   client it accepts.  Returns after a [Shutdown] once every reply is
   flushed, or — without a listener — once the last connection closes. *)
let loop t ~listener ~streams =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Option.iter Unix.set_nonblock listener;
  let ws = if t.config.workers > 1 then Some (start_workers t t.config.workers) else None in
  let conns = ref [] in
  let conn_tbl : (int, conn) Hashtbl.t = Hashtbl.create 64 in
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
    Hashtbl.remove conn_tbl c.id;
    conns := List.filter (fun c' -> c'.id <> c.id) !conns
  in
  (* Append every frame whose turn has come.  Frames complete out of
     order across workers; the wire stays in request order.  Appending
     closes a record's reorder-dwell stage and opens its flush stage. *)
  let flush_replies c =
    let continue = ref true in
    let now = ref 0 in
    while !continue do
      match Hashtbl.find_opt c.replies c.next_flush with
      | None -> continue := false
      | Some (frame, record) ->
          Hashtbl.remove c.replies c.next_flush;
          c.next_flush <- c.next_flush + 1;
          append_out c frame;
          c.appended <- c.appended + String.length frame;
          (match record with
          | Some r ->
              if !now = 0 then now := Clock.monotonic_ns ();
              r.Telemetry.t_flushed <- !now;
              Queue.push (c.appended, r) c.watch
          | None -> ())
    done
  in
  let complete c seq frame record =
    Hashtbl.replace c.replies seq (frame, record);
    flush_replies c
  in
  (* Route one decoded request.  Inline (workers = 1): call the engine
     here, exactly the pre-multicore daemon.  Otherwise dispatch to the
     worker that owns the request's shard.  [t_read]/[t_decoded] bound the
     decode stage (0 when telemetry is off); the one [Traced] envelope a
     frame may carry is peeled here, so routing and the handler see the
     inner request and the record keeps the id. *)
  let route c request ~t_read ~t_decoded =
    let seq = c.next_seq in
    c.next_seq <- seq + 1;
    let trace_id, request =
      match request with
      | Wire.Traced { trace_id; request } -> (trace_id, request)
      | request -> (-1, request)
    in
    let record =
      if t.config.telemetry then
        Some (Telemetry.make ~kind:(Wire.request_tag request) ~trace_id ~t_read ~t_decoded)
      else None
    in
    (* A request the mux answers itself: the record keeps [t_dispatched =
       t_started = t_decoded], so dispatch and queue-wait are zero-width
       and execute covers the handler plus the frame encode. *)
    let inline () =
      let response = handle ~trace_id t request in
      if response = Wire.Shutting_down then shutting := true;
      let frame = encode_frame response in
      (match record with Some r -> r.Telemetry.t_done <- Clock.monotonic_ns () | None -> ());
      complete c seq frame record
    in
    let dispatch w =
      (match record with
      | Some r -> r.Telemetry.t_dispatched <- Clock.monotonic_ns ()
      | None -> ());
      enqueue w (Job { conn_id = c.id; seq; request; trace_id; j_record = record })
    in
    match ws with
    | None -> inline ()
    | Some ws -> (
        match request with
        | Wire.Query { owner } -> dispatch (worker_for_owner t.engine ws owner)
        | Wire.Query_fuzzy { probe; _ } ->
            (* Fuzzy metrics/admission land on Serve.fuzzy_shard's shard;
               route to that shard's worker so the single-writer contract
               holds for fuzzy exactly as for exact queries. *)
            dispatch ws.pool.(Serve.fuzzy_shard t.engine probe mod Array.length ws.pool)
        | Wire.Audit _ ->
            (* Audit walks every shard's postings but records its metrics
               on shard 0, so it must run on shard 0's worker. *)
            dispatch ws.pool.(0)
        | Wire.Republish_binary _ ->
            (* Decode + install off the mux.  Stall this connection until
               the swap lands so a pipelined query behind it cannot answer
               from the old generation after the republish reply. *)
            c.stall_seq <- seq;
            dispatch (next_round_robin ws)
        | Wire.Stats | Wire.Telemetry | Wire.Cluster_status | Wire.Ping | Wire.Shutdown
        | Wire.Traced _ ->
            (* Safe on the mux: these read merged metrics, atomics, the
               published generation and the telemetry store, whose single
               writer is this domain. *)
            inline ())
  in
  let respond_error c msg =
    let seq = c.next_seq in
    c.next_seq <- seq + 1;
    complete c seq (encode_frame (Wire.Server_error msg)) None;
    c.closing <- true
  in
  (* Drain every complete frame the connection has buffered.  A decode
     error answers [Server_error] and flags the connection for close; the
     error is sticky, so no further frame can be misread from the wreck.
     Draining pauses while a republish is in flight ([stall_seq]) or the
     connection has [max_inflight] unanswered requests — the bytes stay
     buffered in the decoder. *)
  let drain c =
    let continue = ref true in
    while
      !continue && (not c.closing) && c.stall_seq < 0 && inflight c < t.config.max_inflight
    do
      let t_read = if t.config.telemetry then Clock.monotonic_ns () else 0 in
      match Wire.Decoder.next c.decoder with
      | Ok None -> continue := false
      | Ok (Some (Wire.Request request)) ->
          let t_decoded = if t.config.telemetry then Clock.monotonic_ns () else 0 in
          route c request ~t_read ~t_decoded
      | Ok (Some (Wire.Response _)) -> respond_error c "protocol: response frame sent to server"
      | Error e -> respond_error c (Wire.error_to_string e)
    done
  in
  (* A connection that reads no more (EOF or a framing error) closes once
     it owes nothing: every decoded request answered and written.  [drain]
     runs whenever the inflight cap or a republish stall lifts, so with
     nothing in flight no complete frame is left in the decoder. *)
  let close_if_done c =
    if (c.closing || c.eof) && inflight c = 0 && pending c = 0 then close_conn c
  in
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
  let process_completions ws =
    match Atomic.exchange ws.completions [] with
    | [] -> ()
    | batch ->
        List.iter
          (fun { c_conn; c_seq; frame; c_record } ->
            match Hashtbl.find_opt conn_tbl c_conn with
            | None -> () (* connection died while the job was in flight *)
            | Some c ->
                complete c c_seq frame c_record;
                if c.stall_seq = c_seq then c.stall_seq <- -1;
                (* Resume decoding: this completion may have cleared a
                   republish stall or dropped [inflight] back below the
                   cap while surplus frames sit buffered in the decoder.
                   [select] alone would never notice — it only fires on
                   NEW bytes — so a client that pipelines past the cap
                   and then waits would hang.  [drain] is a no-op when
                   the decoder holds nothing. *)
                if (not c.closing) && c.stall_seq < 0 && inflight c < t.config.max_inflight
                then drain c)
          batch
  in
  let drain_wake_pipe ws =
    let continue = ref true in
    while !continue do
      match Unix.read ws.wake_r readbuf 0 (Bytes.length readbuf) with
      | 0 -> continue := false
      | _ -> ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
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
        next_seq = 0;
        next_flush = 0;
        replies = Hashtbl.create 8;
        stall_seq = -1;
        appended = 0;
        written = 0;
        watch = Queue.create ();
      }
    in
    conns := c :: !conns;
    Hashtbl.replace conn_tbl c.id c;
    instant_conn "net.accept" c
  in
  let accept_one listener =
    match Unix.accept listener with
    | fd, _ -> open_conn fd fd
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) -> ()
  in
  List.iter (fun (rfd, wfd) -> open_conn rfd wfd) streams;
  let stalled c =
    c.stall_seq >= 0 || inflight c >= t.config.max_inflight
    || pending c >= max_pending_bytes
  in
  let last_stalled = ref (-1) in
  let mux_counters () =
    if Trace.enabled () then begin
      let n = List.fold_left (fun acc c -> if stalled c then acc + 1 else acc) 0 !conns in
      if n <> !last_stalled then begin
        last_stalled := n;
        Trace.counter "net.mux" [ ("stalled_conns", n) ]
      end
    end
  in
  let finished () =
    (!shutting && List.for_all (fun c -> pending c = 0 && inflight c = 0) !conns)
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
      @ (match ws with Some ws -> [ ws.wake_r ] | None -> [])
      @ List.filter_map
          (fun c ->
            if (not c.closing) && (not c.eof) && (not !shutting) && not (stalled c) then
              Some c.rfd
            else None)
          !conns
    in
    let writes = List.filter_map (fun c -> if pending c > 0 then Some c.wfd else None) !conns in
    (match Unix.select reads writes [] 0.5 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, writable, _ ->
        (match ws with
        | Some ws ->
            if List.memq ws.wake_r readable then drain_wake_pipe ws;
            process_completions ws
        | None -> ());
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
              if pending c = 0 && inflight c = 0 && now -. c.last_activity > t.config.idle_timeout
              then close_conn c)
            !conns
        end);
    mux_counters ()
  done;
  List.iter close_fds !conns;
  conns := [];
  Hashtbl.reset conn_tbl;
  (match ws with Some ws -> stop_workers ws | None -> ());
  Option.iter (fun l -> try Unix.close l with Unix.Unix_error _ -> ()) listener

let run t listener = loop t ~listener:(Some listener) ~streams:[]

let serve t address =
  let listener = listen address in
  let cleanup () =
    match address with
    | Addr.Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Addr.Tcp _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () -> run t listener)

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
