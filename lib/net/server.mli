(** The locator daemon: a persistent RPC front-end over {!Eppi_serve.Serve}.

    One [Unix.select] loop on one domain owns the listening socket and
    every client connection — or, for {!run_stdio}, no listener and one
    connection over stdin and stdout — and is the engine's only caller.
    It decodes each complete frame, calls the one handler, and appends
    the encoded reply to the connection's write buffer before it decodes
    the next, so every connection gets exactly one response per request,
    in request order.  The daemon spawns no domains and takes no locks:
    more cores serve through more daemons, as replicas behind
    {!Eppi_cluster}'s client.

    Flow control and hygiene:
    - a connection with 8 MiB of unwritten replies stops being read
      until the client drains it (backpressure, not buffering without
      bound); there is no other per-connection cap, since every request
      is answered as soon as it is decoded;
    - connections idle longer than [idle_timeout] are closed;
    - EOF from a peer stops reads, not service: frames already received
      are answered in order, and the connection closes once it owes
      nothing, so a client may half-close after its last request;
    - a framing error poisons only its connection: the server replies
      [Server_error] and closes after flushing, other clients are
      untouched;
    - a handler that raises answers [Server_error] and the daemon serves
      on;
    - a [Republish_binary] frame hot-swaps the engine's index
      generation: the payload is decoded straight into postings
      ({!Index_codec.decode_postings}), installed with
      {!Eppi_serve.Serve.republish}, and one major GC cycle follows the
      install.  The decode holds the loop, so every request decoded after
      the republish — on any connection — is answered from the new
      generation, and a reply that follows a [Republished {generation}]
      on the wire never carries an older one;
    - a [Shutdown] frame stops accepting, flushes every pending reply,
      closes all connections and returns from {!run}.

    With tracing enabled ({!Eppi_obs.Trace}), every request is a
    [net.request] span tagged with its frame tag, accepted/closed
    connections and handler failures are instant events, and the loop
    samples a [net.mux] counter track of write-backpressured
    connections.  A request that arrived in a [Traced] envelope carries the client's
    trace id on its server-side spans, so both processes' tracks join in
    one exported trace.

    Telemetry ({!Telemetry}) is on by default and independent of tracing:
    every request is stamped through decode → execute → flush, aggregated
    into per-stage histograms whose sums satisfy an exact conservation
    law, a rolling ~10 s window per request class, and a worst-N
    slow-request ring.  The daemon reports on itself through one reply,
    [Stats] ({!stats_json}). *)

type config = {
  idle_timeout : float;  (** Seconds; 0 disables the idle sweep. *)
  telemetry : bool;
      (** Per-request stage timing ({!Telemetry}).  On by default; the
          cost is a handful of monotonic-clock reads per request.  The
          [Stats] document still carries the telemetry fields when off
          (with empty aggregates) — the switch exists mainly so the bench
          can measure the instrumentation's own overhead. *)
  peers : string list;
      (** The replica set this daemon belongs to, as address strings
          ([serve --peers]).  Purely descriptive: the daemon never
          contacts its peers (fan-out is driven by the coordinator,
          {!Eppi_cluster}); the list is echoed in the [Stats] document's
          [peers] so clients and operators can discover the set from any
          one member.  Empty = standalone. *)
}

val default_config : config
(** 300 s idle timeout, telemetry on, no peers.  Three bounds are fixed
    for every daemon: at most 64 connections (later clients wait in the
    listen backlog until one closes), a {!Wire.default_max_payload}
    payload bound per frame, and 8 MiB of unwritten replies per
    connection before backpressure. *)

type t

val create : ?config:config -> Eppi_serve.Serve.t -> t
(** Wrap an engine.  The server does not own the engine: it can be shared
    with in-process readers (e.g. a metrics poller). *)

val engine : t -> Eppi_serve.Serve.t

val stats_json : t -> string
(** The daemon's one status document, the [Stats] reply: one JSON object
    holding the engine's counters ({!Eppi_serve.Metrics.json}, with the
    generation and swap count), the telemetry store's request count,
    windows, stages, conservation check and slow ring
    ({!Telemetry.fields}), then [peers], [trace] ([enabled], [dropped])
    and [telemetry_enabled].  No key appears twice; every latency in it
    is a telemetry read-to-flush time.  Fields and units:
    docs/OBSERVABILITY.md. *)

val listen : Addr.t -> Unix.file_descr
(** Bind and listen.  An existing Unix-socket file is probed with a
    connect first: a refused one is a dead server's leftover and is
    removed, an accepted one belongs to a running daemon and is left
    alone.  A path occupied by a non-socket file is an error too.  A
    Unix socket is bound and listening under a temporary name in the
    path's directory before it is hard-linked to the path, so the path
    appears only once it accepts connections, and a name that appeared
    meanwhile is never replaced; the temporary name is removed whether
    or not that succeeds.  The returned descriptor is ready for {!run} —
    clients may already connect (the backlog holds them), which is how
    tests and the CLI avoid start-up races.
    @raise Unix.Unix_error as [bind]/[listen]/[link] do ([EEXIST] when
    the path appeared after the probe);
    @raise Failure when a Unix-socket path is a running daemon's socket
    or exists and is not a socket. *)

val run : t -> Unix.file_descr -> unit
(** Serve until a [Shutdown] frame arrives, then flush and return.  Closes
    the listener and every connection; does not unlink socket files. *)

val serve : ready:(unit -> unit) -> t -> Addr.t -> unit
(** {!listen} + {!run}, unlinking a Unix-socket path on the way out (also
    on exception) so no stray socket file survives the daemon.  [ready]
    runs once the address is bound, before the loop starts: the place to
    announce the daemon, since {!listen}'s exceptions come before it. *)

val run_stdio : t -> unit
(** The [--stdio] transport: {!run}'s loop with no listener and one
    connection that reads stdin and writes stdout — for inetd-style
    supervision.  Returns after a
    [Shutdown] frame once its reply is written, or once the connection
    closes: after EOF on stdin once every reply owed is written, after a
    framing error, or when stdout's reader goes away.  Both streams are
    left in blocking mode. *)
