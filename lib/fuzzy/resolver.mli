(** The online approximate-identity resolver: blocking buckets over
    Bloom-encoded demographic signatures, compiled from a roster and
    published alongside the postings store.

    Resolution is a bucket scan: the probe's blocking keys select
    candidate owners (union over keys, so one corrupted field does not
    lose the match).  Every roster entry is filed under both key rules
    ({!Probe.signature}), so a full probe's conjunctive keys reach small
    buckets while partial probes, and probes from clients that predate
    those keys, still find their entries under the single-field keys.
    The candidate set is padded to [min_scan] with deterministic decoys,
    every candidate signature is Dice-scored against the probe, and the
    top-[k] candidates at or above [match_threshold] come back in
    descending score order.

    The structure is immutable after {!build} and safe to read from any
    domain; the serving engine swaps it atomically with the postings on
    republish.  Signatures live in one flat buffer with their popcounts
    precomputed, and {!resolve} works in per-domain scratch, so a resolve
    allocates little beyond its outcome. *)

open Eppi_linkage

type config = {
  params : Bloom.params;
      (** Keyed filter parameters — [params.seed] is the linkage secret
          shared between daemon and clients ({!Bloom.keyed}); probes built
          under a different secret score as noise and resolve nothing. *)
  match_threshold : float;  (** Minimum score a candidate must reach. *)
  min_scan : int;
      (** Candidate-set padding floor: every resolve scores at least this
          many signatures (decoys drawn deterministically from the probe
          hash), so scan size does not reveal how common the probed name
          is.  See docs/FUZZY.md. *)
}

val default_config : seed:int -> config
(** 256-bit 4-hash filters under the given secret, threshold 0.6,
    padding floor 64. *)

type t

val build : config -> Demographic.t array -> t
(** Compile the roster (owner id = array index) into signatures and
    blocking buckets.  @raise Invalid_argument on a threshold outside
    [0, 1], a negative padding floor, bad filter parameters, or a roster
    of 2{^30} entries or more. *)

val config : t -> config
val entries : t -> int

val compatible : t -> Probe.t -> bool
(** Whether the probe's filter geometry matches the resolver's: the same
    [bits] and [hashes], and four filters [bits] long.  Scoring filters
    built under a different geometry would be meaningless. *)

type resolved = {
  owner : int;
  score : float;  (** Weighted Dice in [0, 1], quantized to 1e-4. *)
}

type outcome = {
  candidates : resolved list;  (** Top-k, descending score, owner asc on ties. *)
  scanned : int;  (** Signatures scored, padding included. *)
  buckets_hit : int;  (** Blocking buckets that existed for the probe's keys. *)
}

val resolve : t -> Probe.t -> k:int -> outcome
(** @raise Invalid_argument on [k <= 0] or an incompatible probe (callers
    on a network path must check {!compatible} first and answer a typed
    error instead). *)
