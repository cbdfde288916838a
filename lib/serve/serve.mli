(** The online locator query engine — QueryPPI as a service.

    Layered on a published {!Eppi.Index}: an exact lookup is a range
    check plus {!Postings.query}, which decodes only the owner's packed
    row.  The engine answers one request per call ({!query},
    {!query_fuzzy}) and keeps one token bucket and one {!Metrics.t}, so
    it has one caller that serves: the daemon ([Eppi_net.Server]) calls it
    from its single loop.  More cores serve through more daemons, as
    replicas behind [Eppi_cluster.Client].

    The published store sits behind a generation-tagged atomic slot:
    {!republish} installs a freshly constructed index without a drain, and
    may run on another domain while the caller serves; every request loads
    the slot once and is answered from that one generation.  An optional
    {!Eppi_fuzzy.Resolver} rides in the same slot, so approximate-identity
    lookups ({!query_fuzzy}) always score against signatures of the same
    vintage as the postings they fan out into.

    Correctness contract: for every in-range owner, the engine's reply is
    exactly [Eppi.Index.query index ~owner] for the index of the
    generation it is tagged with; every request is answered with an
    explicit {!reply} — shed requests are reported, never silently
    dropped. *)

type config = {
  admission : Admission.config option;  (** [None]: admit everything. *)
}

val default_config : config
(** No admission control.  Whatever the config, the engine records the
    latency of every 16th query. *)

type reply =
  | Providers of int list  (** The QueryPPI answer, ascending provider ids. *)
  | Unknown_owner  (** The owner id is outside the published index. *)
  | Shed_rate_limit  (** Rejected by the engine's token bucket. *)
  | Shed_queue_full
      (** Never produced by the engine, which has no request queue.  Kept
          because it is the wire's reply kind 3 ([Eppi_net.Wire]), which
          decoders and the lifecycle benchmark's reply checks still
          match. *)

type t

val create : ?config:config -> ?resolver:Eppi_fuzzy.Resolver.t -> Eppi.Index.t -> t
(** Compile the index into the read-optimized store.  [resolver], when
    given, enables {!query_fuzzy} against the roster it was built from.
    @raise Invalid_argument on an admission config {!Admission.create}
    refuses. *)

val postings : t -> Postings.t
(** The currently published store (the latest generation's). *)

val resolver : t -> Eppi_fuzzy.Resolver.t option
(** The currently published resolver, same generation as {!postings}. *)

val generation : t -> int
(** The current index generation: 1 at {!create}, +1 per {!republish}. *)

val republish : ?resolver:Eppi_fuzzy.Resolver.t -> t -> Postings.t -> int
(** Atomically install a new published store without a drain and return
    its generation.  Requests that already loaded the slot complete
    against the index they started on; every later request serves from
    the new one.  {!Metrics} reports the installed
    republishes as [swaps] (generation − 1).  The resolver swaps in the same
    atomic store as the postings; omitted, the currently installed one is
    carried over — either way readers see a consistent
    (postings, resolver) pair.  Safe to call from any domain while
    another runs {!query}. *)

val query : ?now:float -> t -> owner:int -> reply
(** Serve one request.  [now] (seconds, default
    {!Eppi_prelude.Clock.seconds}) drives the token bucket; an engine
    without admission control never reads the clock.  One domain serves
    at a time: the bucket and the metrics have a single writer. *)

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
  | Fuzzy_shed  (** Rejected by the engine's token bucket. *)

val query_fuzzy : ?now:float -> ?k:int -> t -> Eppi_fuzzy.Probe.t -> int * fuzzy_reply
(** Resolve an approximate-identity probe against the published resolver,
    then fan each candidate out to its ε-PPI row — all against the single
    atomically published (postings, resolver) pair, whose generation tags
    the reply.  [k] (default 10) caps the candidate list.  Exact and fuzzy
    requests draw on the one token bucket; [now] and the single serving
    domain as in {!query}.
    @raise Invalid_argument when [k <= 0]. *)

val audit : t -> provider:int -> int list option
(** Provider-side audit: the owners the published index lists at
    [provider]; [None] when the provider id is out of range. *)

val metrics : t -> Metrics.snapshot
(** The engine's counters, labelled with the current {!generation}.
    Reading while another domain serves yields a consistent-enough
    approximation (plain int reads). *)
