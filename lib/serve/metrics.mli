(** The serving engine's counters.

    The engine owns one [t] and its serving domain is the only writer, so
    the hot path is plain-int increments; a snapshot merges a list of
    them.  The engine keeps no latencies: the daemon times every request
    from read to flush ([Eppi_net.Telemetry]), and its [Stats] document
    carries these counters beside those times. *)

type t

val create : unit -> t

val incr_queries : t -> unit
val incr_served : t -> unit
val incr_unknown : t -> unit
val incr_shed_rate : t -> unit
val incr_audits : t -> unit

val incr_fuzzy : t -> unit
(** One fuzzy (approximate-identity) request reached the engine.  The
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
(** A fuzzy request shed by the token bucket. *)

val add_fuzzy_scanned : t -> int -> unit
(** Candidate signatures scored for one resolve (padding included). *)

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
}

val snapshot : ?generation:int -> t list -> snapshot
(** Merge metrics into one view, labelled with [generation] (default 1). *)

val diff : snapshot -> snapshot -> snapshot
(** [diff newer older] is the interval view between two snapshots of the
    same engine: every counter (including [swaps]) subtracts, so a
    long-running engine can report per-window rates; [generation] is
    taken from [newer], since it is a point-in-time label, not a rate. *)

val json : ?extra:(string * Eppi_prelude.Json.t) list -> snapshot -> Eppi_prelude.Json.t
(** One JSON object with every snapshot field as an integer, followed by
    the [extra] fields (the daemon's [Stats] document appends its
    telemetry and replica state). *)

val to_json : snapshot -> string
(** [json] without extras, rendered by {!Eppi_prelude.Json.to_string}. *)
