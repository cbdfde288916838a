(** Observability surface of the serving engine.

    Each shard owns one [t] and is its only writer (the daemon pins a
    shard to exactly one worker domain), so the hot path is plain-int
    increments with no cross-core contention; a snapshot merges all
    shards.  Latencies
    go into a log2-scaled histogram ({!Eppi_prelude.Stats.Log2_histogram}),
    so p50/p95/p99 come out of a 64-int array, not a sample buffer. *)

type t

val create : unit -> t

val incr_queries : t -> unit
val incr_served : t -> unit
val incr_unknown : t -> unit
val incr_shed_rate : t -> unit
val incr_audits : t -> unit

val incr_fuzzy : t -> unit
(** One fuzzy (approximate-identity) request reached this shard.  The
    fuzzy counters obey their own conservation law:
    [fuzzy_queries = fuzzy_resolved + fuzzy_empty + fuzzy_rejected +
    fuzzy_shed]. *)

val incr_fuzzy_resolved : t -> unit
(** A fuzzy request answered with at least one candidate. *)

val incr_fuzzy_empty : t -> unit
(** A fuzzy request that resolved no candidate above the threshold. *)

val incr_fuzzy_rejected : t -> unit
(** A fuzzy request the engine could not score: no resolver published, or
    the probe's filter geometry differs from the resolver's. *)

val incr_fuzzy_shed : t -> unit
(** A fuzzy request shed by the shard's token bucket. *)

val add_fuzzy_scanned : t -> int -> unit
(** Candidate signatures scored for one resolve (padding included). *)

val record_latency : t -> float -> unit
(** Record one query's service time in seconds. *)

type snapshot = {
  queries : int;  (** Requests that reached the engine (including shed). *)
  served : int;  (** Requests answered with a provider list. *)
  unknown : int;  (** Requests for out-of-range owner ids. *)
  shed_rate : int;  (** Shed by the token bucket. *)
  shed_queue : int;
      (** Always 0: the engine has no request queue.  Kept because the
          Stats reply's [shed_queue] key is read by the lifecycle
          benchmark's conservation check. *)
  audits : int;  (** Provider-side audit queries. *)
  generation : int;
      (** The published index generation the snapshot is labelled with
          ({!Serve.metrics}: the engine's current one). *)
  swaps : int;  (** Republishes the engine has installed: [generation - 1]. *)
  fuzzy_queries : int;  (** Fuzzy requests that reached the engine. *)
  fuzzy_resolved : int;  (** Fuzzy requests with >= 1 candidate returned. *)
  fuzzy_empty : int;  (** Fuzzy requests resolving nothing above threshold. *)
  fuzzy_rejected : int;  (** No resolver published / probe geometry mismatch. *)
  fuzzy_shed : int;  (** Fuzzy requests shed by the token bucket. *)
  fuzzy_scanned : int;  (** Candidate signatures scored, padding included. *)
  latency_count : int;  (** Latency samples recorded (sampling may skip). *)
  latency_mean : float;
  p50 : float;
  p95 : float;
  p99 : float;  (** Seconds; 0 when no samples were recorded. *)
}

val snapshot : ?generation:int -> t list -> snapshot
(** Merge per-shard metrics into one view, labelled with [generation]
    (default 1). *)

val diff : snapshot -> snapshot -> snapshot
(** [diff newer older] is the interval view between two snapshots of the
    same engine: every counter (including [latency_count] and [swaps])
    subtracts, so a long-running engine can report per-window rates; the
    latency distribution fields ([latency_mean], [p50], [p95], [p99]) and
    [generation] are taken from [newer] — histograms are cumulative and
    their difference has no defined percentiles, and a generation is a
    point-in-time label, not a rate. *)

val json : ?extra:(string * Eppi_prelude.Json.t) list -> snapshot -> Eppi_prelude.Json.t
(** One JSON object with every snapshot field — counters as integers,
    latencies in seconds under [_s] keys ([latency_mean_s], [p50_s],
    [p95_s], [p99_s]) — followed by the [extra] fields (the daemon's Stats
    reply appends its worker and trace counters). *)

val to_json : snapshot -> string
(** [json] without extras, rendered by {!Eppi_prelude.Json.to_string}. *)

val pp : Format.formatter -> snapshot -> unit
