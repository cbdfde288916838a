(** The locator daemon: a persistent RPC front-end over {!Eppi_serve.Serve}.

    One [Unix.select] loop owns the listening socket and every client
    connection — or, for {!run_stdio}, no listener and one connection
    over stdin and stdout.  With [workers = 1] it is also the sole engine
    caller —
    the pre-multicore daemon, no extra domains.  With [workers = d > 1]
    the loop becomes a pure I/O mux: it decodes frames, stamps each
    request with a per-connection sequence number, and routes it to one
    of [d] worker domains.  Shard-affine requests (Query, Audit) are
    pinned to worker [shard mod d], so every shard keeps exactly one
    writing domain and {!Eppi_serve.Serve.query}'s
    single-writer-per-shard contract holds without locks.  A republish
    ({!Index_codec} payload) decodes and installs on a worker, off the
    I/O loop; the mux answers the admin requests (Stats, Telemetry,
    Cluster_status, Ping, Shutdown) itself, through the same handler as
    the inline daemon; any other request is one job on one worker.
    Workers return pre-encoded response frames over a lock-free queue
    with a self-pipe wakeup, and the mux flushes them in sequence order,
    preserving the wire contract of exactly one response per request, in
    request order, per connection.

    Flow control and hygiene:
    - a connection with 8 MiB of unwritten replies stops being read
      until the client drains it (backpressure, not buffering without
      bound); one with [max_inflight] unanswered requests stops being
      read until workers catch up;
    - connections idle longer than [idle_timeout] are closed;
    - EOF from a peer stops reads, not service: frames already received
      are answered in order, and the connection closes once it owes
      nothing, so a client may half-close after its last request;
    - a framing error poisons only its connection: the server replies
      [Server_error] and closes after flushing, other clients are
      untouched;
    - a [Republish_binary] frame hot-swaps the engine's index
      generation: the payload is decoded straight into postings
      ({!Index_codec.decode_postings}), installed with
      {!Eppi_serve.Serve.republish}, and one major GC cycle follows the
      install — queries keep flowing, no drain.  Requests pipelined
      {e behind} a republish on the same connection wait for the swap, so
      a reply that follows a [Republished {generation}] on the wire never
      carries an older generation;
    - a [Shutdown] frame stops accepting, flushes every pending reply,
      closes all connections, joins the worker domains and returns from
      {!run}.

    With tracing enabled ({!Eppi_obs.Trace}), every request is a
    [net.request] span tagged with its frame tag, accepted/closed
    connections are instant events, each worker domain samples a
    [net.worker-<i>] counter track (queue depth, busy µs, requests
    served), and the mux samples [net.mux] stalled-connection counts.
    A request that arrived in a [Traced] envelope carries the client's
    trace id on its server-side spans, so both processes' tracks join in
    one exported trace.

    Telemetry ({!Telemetry}) is on by default and independent of tracing:
    every request is stamped through decode → dispatch → queue-wait →
    execute → reorder-dwell → write-flush, aggregated into per-stage
    histograms whose sums satisfy an exact conservation law, a rolling
    ~10 s window per request class, and a worst-N slow-request ring — all
    served by the [Telemetry] wire command.  The [Stats] reply carries the
    per-worker counters and the trace session's drop count on top of the
    engine metrics. *)

type config = {
  idle_timeout : float;  (** Seconds; 0 disables the idle sweep. *)
  workers : int;
      (** Engine-calling domains. 1 = serve inline on the I/O loop (no
          domains spawned); d > 1 = mux + d worker domains with shard i
          pinned to worker i mod d. *)
  max_inflight : int;
      (** Per-connection bound on routed-but-unanswered requests before
          the mux stops reading that connection. *)
  telemetry : bool;
      (** Per-request stage timing ({!Telemetry}).  On by default; the
          cost is a handful of monotonic-clock reads per request.  The
          [Telemetry] wire command still answers when off (with empty
          aggregates) — the switch exists mainly so the bench can measure
          the instrumentation's own overhead. *)
  peers : string list;
      (** The replica set this daemon belongs to, as address strings
          ([serve --peers]).  Purely descriptive: the daemon never
          contacts its peers (fan-out is driven by the coordinator,
          {!Eppi_cluster}); the list is echoed in [Cluster_status]
          replies so clients and operators can discover the set from any
          one member.  Empty = standalone. *)
}

val default_config : config
(** 300 s idle timeout, 1 worker (inline), 1024 in-flight requests,
    telemetry on, no peers.  Three bounds are fixed for every daemon: at
    most 64 connections (later clients wait in the listen backlog until
    one closes), a {!Wire.default_max_payload} payload bound per frame,
    and 8 MiB of unwritten replies per connection before backpressure. *)

type t

val create : ?config:config -> Eppi_serve.Serve.t -> t
(** Wrap an engine.  The server does not own the engine: it can be shared
    with in-process readers (e.g. a metrics poller).
    @raise Invalid_argument on a non-positive [workers] or [max_inflight]. *)

val engine : t -> Eppi_serve.Serve.t

val listen : Addr.t -> Unix.file_descr
(** Bind and listen.  A stale Unix-socket file left by a dead server is
    removed first; a path occupied by a non-socket file is an error.
    The returned descriptor is ready for {!run} — clients may already
    connect (the backlog holds them), which is how tests and the CLI avoid
    start-up races.
    @raise Unix.Unix_error as [bind]/[listen] do;
    @raise Failure when a Unix-socket path exists and is not a socket. *)

val run : t -> Unix.file_descr -> unit
(** Serve until a [Shutdown] frame arrives, then flush and return.  Closes
    the listener and every connection, and joins any worker domains; does
    not unlink socket files. *)

val serve : t -> Addr.t -> unit
(** {!listen} + {!run}, unlinking a Unix-socket path on the way out (also
    on exception) so no stray socket file survives the daemon. *)

val run_stdio : t -> unit
(** The [--stdio] transport: {!run}'s loop with no listener and one
    connection that reads stdin and writes stdout, honouring [workers]
    like any other — for inetd-style supervision.  Returns after a
    [Shutdown] frame once its reply is written, or once the connection
    closes: after EOF on stdin once every reply owed is written, after a
    framing error, or when stdout's reader goes away.  Both streams are
    left in blocking mode. *)
