(** Replicated locator cluster: republish fan-out and client failover.

    The availability story of the ε-PPI locator is deliberately simple:
    the index is read-only between republishes, so N daemons serving the
    same generation are interchangeable and need no consensus protocol.
    Replication is therefore two independent halves:

    - {b coordinator side} ({!Fanout}): one process pushes the same
      {!Eppi_net.Index_codec} payload to every replica, retries transient
      failures per replica with jittered backoff, and reports partial
      success honestly — a dead replica does not block the others, it
      just shows up as [Error] in the report.  Convergence is checked
      observationally: after a fan-out round, every reachable replica's
      [Stats] document reports the same generation.
    - {b client side} ({!Client}): a thin wrapper over N
      {!Eppi_net.Client}s with per-endpoint health, round-robin picks,
      and transparent failover — a window of pipelined queries
      whose replica dies mid-flight is re-issued in full on another
      replica (at-least-once).  {!Eppi_net.Client} is one connection
      that never re-dials, so retrying, failover and waiting for a
      replica to come back all live here: the client dials in one
      place, and one-shot requests go through {!ask}.

    Consistency caveat, stated rather than hidden: a replica's generation
    is a {e republish counter}, incremented once per applied swap — not a
    CAS-max of a coordinator-supplied value.  Convergence of the counter
    means every replica applied the same {e number} of rounds; with a
    single coordinator pushing the same payload each round (the supported
    topology) that implies identical content.  A retried round that was
    actually applied twice skews the counter without skewing content; two
    concurrent coordinators can disagree on content while agreeing on the
    counter.  Run one coordinator. *)

module Addr = Eppi_net.Addr
module Wire = Eppi_net.Wire

(** {1 Replica sets} *)

module Replica_set : sig
  type t
  (** A static, ordered, duplicate-free list of replica addresses.  Order
      matters: round-robin and tie-breaks follow it. *)

  val of_addrs : Addr.t list -> t
  (** @raise Invalid_argument on an empty list or a duplicate address. *)

  val parse : string -> (t, string) result
  (** Parse a comma-separated address list ([a.sock,host:9001,:9002]),
      trimming whitespace around each element.  Every element goes
      through {!Addr.parse}; the error message names the offending
      element. *)

  val of_string : string -> t
  (** {!parse}, raising [Invalid_argument] on rejection — for call sites
      that validated earlier. *)

  val addrs : t -> Addr.t list

  val size : t -> int

  val to_string : t -> string
  (** Canonical comma-separated form ({!parse}'s inverse up to
      whitespace and loopback spelling). *)
end

(** {1 One-shot requests} *)

val ask :
  ?request_timeout:float -> Addr.t -> (Eppi_net.Client.t -> 'a) -> ('a, string) result
(** [ask addr f] dials [addr] once, runs [f] on the connection and
    closes it: [Error reason] when the dial fails ([Unix.error_message],
    or a host name that does not resolve) or [f] raises
    {!Eppi_net.Client.Protocol_error} or [Unix.Unix_error].
    [request_timeout] (default 30 s) bounds each request.  {!Fanout}'s
    attempts and probes and the CLI's one-daemon commands use it. *)

(** {1 Replica state} *)

type cluster_status = {
  generation : int;  (** The replica's current index generation. *)
  swaps : int;  (** Republishes the daemon has installed: [generation - 1]. *)
  peers : string list;
      (** The replica set the daemon was started with ([serve --peers]),
          verbatim; empty for a standalone daemon. *)
}

val cluster_status_of_stats : Eppi_prelude.Json.t -> (cluster_status, string) result
(** The replica-state keys ([generation], [swaps], [peers]) of a parsed
    [Stats] document ([Eppi_net.Server.stats_json]); [Error] when one is
    missing or mistyped. *)

(** {1 Coordinator-side republish fan-out} *)

val backoff_delay : base:float -> attempt:int -> u:float -> float
(** {!Fanout}'s retry schedule, exposed pure so its bound is testable:
    attempt [k] (1-based) sleeps [min (base * 2^(k-1)) 2.0] scaled by
    [0.5 + u/2] with [u] uniform in [0, 1) — always within
    [[full/2, full)] of the capped exponential [full], so coordinators
    that lost the same replica spread over half the window instead of
    retrying in lockstep, while a run of small draws can never collapse
    the delay to zero and hammer a recovering server.
    @raise Invalid_argument when [attempt < 1] or [u] is outside
    [[0, 1)]. *)

module Fanout : sig
  type replica_result = {
    addr : Addr.t;
    outcome : (int, string) result;
        (** [Ok generation] the replica installed; [Error message] after
            retries were exhausted or the replica rejected the payload. *)
    attempts : int;  (** Connect/send attempts made (>= 1). *)
    seconds : float;  (** Wall time spent on this replica, retries included. *)
  }

  type report = {
    results : replica_result list;  (** In replica-set order. *)
    succeeded : int;
    failed : int;
    generation : int option;
        (** The generation every successful replica reports, when they
            all agree; [None] on zero successes or disagreement (replicas
            that missed earlier rounds). *)
    wall_seconds : float;
        (** Whole-round wall time — the slowest replica, since replicas
            are pushed concurrently. *)
  }

  val republish :
    ?retries:int ->
    ?retry_delay:float ->
    ?request_timeout:float ->
    ?seed:int ->
    Replica_set.t ->
    Eppi.Index.t ->
    report
  (** Push [index] to every replica concurrently (one domain per
      replica), as a single {!Eppi_net.Index_codec} payload encoded once
      and shared.  Per replica: transient failures — connect refusal,
      timeout, connection loss — retry up to [retries] (default 3) more
      times with jittered exponential backoff starting at [retry_delay]
      (default 0.05 s, see {!backoff_delay}); a
      [Server_error] or a mis-typed reply is fatal immediately (retrying
      a rejected payload cannot help).  [request_timeout] (default 30 s)
      bounds each attempt.  [seed] makes the backoff jitter
      deterministic for tests.  Never raises on replica failure — that
      is what [report.failed] is for. *)

  val status :
    ?request_timeout:float ->
    Replica_set.t ->
    (Addr.t * (cluster_status, string) result) list
  (** One [Stats] request per replica, in set order, read with
      {!cluster_status_of_stats}; unreachable replicas report [Error]
      rather than raising. *)

  val converged : (Addr.t * (cluster_status, string) result) list -> int option
  (** [Some generation] when {e every} probed replica answered and all
      report that generation — the post-fan-out convergence check.
      [None] on any error or disagreement (or an empty list). *)
end

(** {1 Client-side failover} *)

module Client : sig
  exception No_replica of string
  (** Every replica is down or cooling down — the cluster-level analogue
      of {!Eppi_net.Client.Connection_lost}.  The message names each
      replica, in set order, with the reason it was last put down
      ([addr: reason; ...]): the dial's [Unix.error_message] (for
      example [No such file or directory]), the lost connection, or the
      stale generation that cooled it down. *)

  exception Stale_generation of { newest : int; got : int }
  (** Read-consistency guard: {!query} answered from a replica whose
      generation is behind the newest this client has ever observed —
      i.e. the reply could predate a republish the client already saw
      take effect elsewhere.  The lagging replica is put on a short
      cooldown; retrying the query lands on a fresher one. *)

  type t

  val create :
    ?request_timeout:float ->
    ?cooldown:float ->
    ?seed:int ->
    Replica_set.t ->
    t
  (** Build a cluster client; connections are dialed lazily, per replica,
      on first use and again after the replica was marked down — the
      client's one dial point.  Windows rotate round-robin through the
      selectable replicas (see {!select}).  [request_timeout] (default
      30 s) bounds each request on the underlying clients.  A replica
      marked down is not retried until a jittered [cooldown] (default
      1 s) elapses; [seed] makes the jitter deterministic.  A set of one
      is a client for one daemon: a window that finds it down raises
      {!No_replica}, and the first window after the cooldown dials
      again, so a daemon restarted on the same address reappears. *)

  val select : rr:int -> bool array -> int option
  (** The round-robin pick, exposed pure for table-driven tests:
      [slots.(i)] is whether replica i is selectable.  Returns the first
      selectable index at or after [rr] (mod length), [None] when nothing
      is selectable.  The client moves [rr] past each pick. *)

  val pipeline : t -> Wire.request list -> Wire.response list
  (** Issue one window of pipelined requests on the next selectable
      replica.  If the replica fails mid-window (connection loss, framing
      error), it is marked down and the {e whole window} is re-issued on
      another replica — at-least-once semantics: a request whose reply
      was lost in flight runs again.  Observes generations in the replies
      to advance the staleness floor, but never raises
      {!Stale_generation} itself (raw windows may legitimately mix
      replicas across calls).
      @raise No_replica when every replica has been tried and marked
      down. *)

  val query : t -> owner:int -> int * Eppi_serve.Serve.reply
  (** One QueryPPI with the read-consistency guard: @raise
      Stale_generation when the answering replica's generation is behind
      the newest observed.  @raise No_replica as {!pipeline}. *)

  type stats = {
    dispatched : int array;  (** Per replica, replica-set order. *)
    answered : int array;
    failures : int array;  (** Times each replica was marked down. *)
    failovers : int;
        (** Windows that succeeded on a fallback replica after a
            detected failure. *)
    failover_seconds : float list;
        (** Failure-detection → first-success latency per failover,
            newest first. *)
    max_generation : int;  (** The staleness floor; -1 before any reply. *)
  }

  val stats : t -> stats

  val close : t -> unit
  (** Close every underlying connection.  Idempotent. *)
end
