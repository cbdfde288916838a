(** The online locator query engine — QueryPPI as a service.

    Layered on a published {!Eppi.Index}: an exact lookup is a range
    check plus {!Postings.query}, which decodes only the owner's packed
    row.  The engine answers one request per call ({!query},
    {!query_fuzzy}).  Requests are routed by owner id to one of [shards]
    independent shard states, each holding its own token bucket and
    metrics.  All shared data (the compiled {!Postings} store) is
    read-only, and each shard's mutable state has a single writer: the
    daemon ([Eppi_net.Server]) pins every shard to one worker domain, so
    its domains serve in parallel without locks or contention.

    The published store sits behind a generation-tagged atomic slot:
    {!republish} installs a freshly constructed index while the shards keep
    serving (no drain); every request loads the slot once and is answered
    from that one generation.  An optional {!Eppi_fuzzy.Resolver} rides in
    the same slot, so approximate-identity lookups ({!query_fuzzy}) always
    score against signatures of the same vintage as the postings they fan
    out into.

    Correctness contract: for every in-range owner, the engine's reply is
    exactly [Eppi.Index.query index ~owner] for the index of the
    generation it is tagged with; every request is answered with an
    explicit {!reply} — shed requests are reported, never silently
    dropped. *)

type config = {
  shards : int;  (** Independent shard states (>= 1). *)
  admission : Admission.config option;  (** [None]: admit everything. *)
}

val default_config : config
(** 1 shard, no admission control.  Whatever the config, each shard
    records the latency of every 16th query. *)

type reply =
  | Providers of int list  (** The QueryPPI answer, ascending provider ids. *)
  | Unknown_owner  (** The owner id is outside the published index. *)
  | Shed_rate_limit  (** Rejected by the shard's token bucket. *)
  | Shed_queue_full
      (** Never produced by the engine, which has no request queue.  Kept
          because it is the wire's reply kind 3 ([Eppi_net.Wire]), which
          decoders and the lifecycle benchmark's reply checks still
          match. *)

type t

val create : ?config:config -> ?resolver:Eppi_fuzzy.Resolver.t -> Eppi.Index.t -> t
(** Compile the index into the read-optimized store and set up shard
    state.  [resolver], when given, enables {!query_fuzzy} against the
    roster it was built from.  @raise Invalid_argument on a non-positive
    shard count. *)

val postings : t -> Postings.t
(** The currently published store (the latest generation's). *)

val resolver : t -> Eppi_fuzzy.Resolver.t option
(** The currently published resolver, same generation as {!postings}. *)

val shards : t -> int

val generation : t -> int
(** The current index generation: 1 at {!create}, +1 per {!republish}. *)

val republish : ?resolver:Eppi_fuzzy.Resolver.t -> t -> Postings.t -> int
(** Atomically install a new published store without draining the shards
    and return its generation.  Requests that already loaded the slot
    complete against the index they started on; every later request (on
    any shard) serves from the new one.  {!Metrics} reports the installed
    republishes as [swaps] (generation − 1).  The resolver swaps in the same
    atomic store as the postings; omitted, the currently installed one is
    carried over — either way readers see a consistent
    (postings, resolver) pair.  Safe to call from any domain while
    other domains run {!query}. *)

val query : ?now:float -> t -> owner:int -> reply
(** Serve one request.  [now] (seconds, default
    {!Eppi_prelude.Clock.seconds}) drives the token bucket; an engine
    without admission control never reads the clock.  Concurrent
    callers must not share a shard: domains that serve in parallel each
    own a disjoint set of shards ([owner mod shards]), as the daemon's
    workers do. *)

val query_tagged : ?now:float -> t -> owner:int -> int * reply
(** Like {!query}, also naming the generation of the published index the
    reply was computed from — the tag the RPC server stamps on every
    response so clients can tell pre- from post-swap answers. *)

type candidate = {
  owner : int;  (** Resolved owner id, valid in the reply's generation. *)
  score : float;  (** Weighted Dice match score in [0, 1], quantized to 1e-4. *)
  providers : int list;  (** The owner's ε-PPI row — {!reply} [Providers]. *)
}

type fuzzy_reply =
  | Candidates of candidate list
      (** Best matches first (score desc, owner asc), at most [k]; possibly
          empty when nothing cleared the resolver's threshold. *)
  | No_resolver  (** The published generation carries no resolver. *)
  | Probe_mismatch
      (** The probe's filter geometry (bits/hashes) differs from the
          resolver's — client and daemon disagree on linkage parameters. *)
  | Fuzzy_shed  (** Rejected by the routed shard's token bucket. *)

val fuzzy_shard : t -> Eppi_fuzzy.Probe.t -> int
(** The shard a probe's metrics and admission are accounted on — a stable
    function of the probe content ({!Eppi_fuzzy.Probe.routing_hash}). *)

val query_fuzzy : ?now:float -> ?k:int -> t -> Eppi_fuzzy.Probe.t -> int * fuzzy_reply
(** Resolve an approximate-identity probe against the published resolver,
    then fan each candidate out to its ε-PPI row — all against the single
    atomically published (postings, resolver) pair, whose generation tags
    the reply.  [k] (default 10) caps the candidate list.  Admission uses
    the {!fuzzy_shard} shard's token bucket; [now] as in {!query}.
    Concurrent callers must not share a shard.
    @raise Invalid_argument when [k <= 0]. *)

val audit : t -> provider:int -> int list option
(** Provider-side audit: the owners the published index lists at
    [provider]; [None] when the provider id is out of range. *)

val metrics : t -> Metrics.snapshot
(** Merged view over all shards, labelled with the current {!generation}.
    Reading while other domains serve yields a consistent-enough
    approximation (plain int reads). *)
