(** Client for the locator daemon.

    One socket, strict request/response ordering (the server's guarantee),
    so {!pipeline} can keep N requests in flight and match replies by
    position — the throughput lever the [bench -- net] depth sweep
    measures.  Every call, single or pipelined, runs the same exchange: a
    [select] loop on the nonblocking socket that writes requests while it
    reads replies.  Calls block until their replies arrive or the
    [request_timeout] passes.  Not thread-safe: one [t] per domain.

    Every returned generation is the index generation the server computed
    the reply from; after a {!republish_index} returns generation [g],
    every later reply on any connection carries a generation [>= g]. *)

type t

type error =
  | Timed_out
      (** The socket made no progress for [request_timeout] seconds.  The
          connection is kept (the response may still be in flight, or the
          request not yet fully sent); the caller decides whether to retry
          or {!close}. *)
  | Connection_lost of string
      (** The transport died.  The client never re-dials: retrying,
          failover and waiting for a replica live in
          [Eppi_cluster.Client]. *)

exception Protocol_error of string
(** The server broke the framing or answered with the wrong frame kind —
    or sent [Server_error] for a request that admits no typed failure. *)

val unexpected : string -> Wire.response -> 'a
(** [unexpected what response] raises {!Protocol_error} naming the frame
    kind [what] got instead of what it wanted — for callers matching raw
    {!pipeline} responses. *)

val connect : ?request_timeout:float -> Addr.t -> t
(** Dial [addr] once.  SIGPIPE is set to ignore (once, globally) so a
    dead peer surfaces as [EPIPE] rather than killing the process.

    [request_timeout] bounds every subsequent exchange: a call during which
    the socket makes no progress — no request byte accepted, no reply byte
    received — for that many seconds returns {!Timed_out} ({!pipeline}
    raises).  The bound resets whenever the socket makes progress.
    Default: wait forever.

    While {!Eppi_obs.Trace} tracing is enabled, {!call_result}/{!call}
    wrap each request in a [Wire.Traced] envelope carrying a fresh trace
    id and mirror that id on a [client.request] span, so the client's and
    the daemon's tracks join in one exported trace; with tracing disabled
    nothing is wrapped.  {!pipeline} never wraps.
    @raise Unix.Unix_error when the dial fails (for example [ENOENT] or
    [ECONNREFUSED] before a daemon is listening). *)

val close : t -> unit
(** Idempotent. *)

val call_result : t -> Wire.request -> (Wire.response, error) result
(** A one-frame {!pipeline}: send one request, block for its response;
    transport failures come back as [Error] instead of an exception.
    Framing violations still raise {!Protocol_error}. *)

val call : t -> Wire.request -> Wire.response
(** Send one request, block for its response.  @raise Protocol_error on
    timeout ("request timed out") or connection loss. *)

val pipeline : t -> Wire.request list -> Wire.response list
(** Send every request over the socket while concurrently reading replies
    (interleaved with [select], so an arbitrarily long list cannot
    deadlock against the server's backpressure), returning the responses
    in request order.  @raise Protocol_error on a timeout ("pipeline timed
    out") or connection loss. *)

(* Typed wrappers; each raises {!Protocol_error} on a mismatched response. *)

val query : t -> owner:int -> int * Eppi_serve.Serve.reply
(** (generation, reply). *)

val query_fuzzy : ?k:int -> t -> Eppi_fuzzy.Probe.t -> int * Eppi_serve.Serve.fuzzy_reply
(** Approximate-identity lookup: at most [k] (default 10) candidates,
    each with its ε-PPI row, tagged with the generation of the
    (postings, resolver) pair that answered.  Build the probe locally
    with {!Eppi_fuzzy.Probe.of_demographic} under the shared linkage
    seed — only Bloom filters and keyed blocking hashes go on the
    wire. *)

val audit : t -> provider:int -> int * int list option

val stats_json : t -> string
(** The daemon's one status document ({!Server.stats_json}): counters,
    request-stage telemetry, generation, swaps, peers and trace state. *)

val telemetry_json : t -> string
(** {!stats_json} under its old name, kept (as
    {!Eppi_serve.Serve.Shed_queue_full} is) because the lifecycle
    benchmark, perfbench/, calls it. *)

val republish_index : t -> Eppi.Index.t -> (int, string) result
(** Install a new index on the server as one {!Index_codec} payload;
    [Ok generation] on success, [Error message] when the server rejects
    the payload. *)

val ping : t -> unit

val shutdown : t -> unit
(** Ask the server to stop; returns once [Shutting_down] is acknowledged. *)
