(** A keyed, Bloom-encoded demographic probe — the only form in which a
    fuzzy query ever leaves the client.

    The probe carries four per-field Bloom filters (bigram encodings of
    first name, last name, date of birth and ZIP) plus keyed blocking
    hashes.  A probe that states a first name, a last name and a birth
    date with its year carries four conjunctive keys: one for each pair of
    Soundex(first name), Soundex(last name) and birth year, and one for
    the full date of birth, so any one corrupted field leaves a key
    intact.  Any other probe carries the single-field keys, Soundex of
    the last name and birth year, each when stated.  All hashing is keyed
    by the linkage secret ([params.seed]); the secret itself never appears
    in the probe, only the filter geometry ([bits], [hashes]) does, so a
    wire capture cannot be dictionary-tested without the seed.  See
    docs/FUZZY.md for the full privacy argument.

    Empty fields (an empty name or ZIP, a [(0, 0, 0)] date of birth)
    encode as empty filters and contribute no blocking key; the resolver
    renormalizes its field weights over the non-empty filters, so partial
    probes degrade gracefully instead of dragging every score down. *)

open Eppi_prelude

type t = {
  keys : int array;  (** Keyed blocking hashes (32-bit), possibly empty. *)
  bits : int;  (** Filter geometry shared by the four fields. *)
  hashes : int;
  first : Bitvec.t;
  last : Bitvec.t;
  dob : Bitvec.t;
  zip : Bitvec.t;
}

val of_demographic : Eppi_linkage.Bloom.params -> Eppi_linkage.Demographic.t -> t
(** Encode a (possibly partial) demographic record under the given keyed
    parameters.  Gender is deliberately not encoded — it is too coarse to
    help resolution and would leak a protected attribute.
    @raise Invalid_argument on non-positive [bits] or [hashes]. *)

val signature : Eppi_linkage.Bloom.params -> Eppi_linkage.Demographic.t -> t
(** A roster entry as the resolver files it: the same four filters as
    {!of_demographic}, with [keys] every blocking key the entry states —
    the conjunctive keys whose fields it has, then the single-field keys.
    A probe under either key rule therefore finds the entry.
    @raise Invalid_argument on non-positive [bits] or [hashes]. *)

val keyed_hash : int -> string -> int
(** [keyed_hash seed s]: the 32-bit blocking-key hash of [s] under the
    linkage secret [seed]. *)

val dob_string : int * int * int -> string
(** ["yyyymmdd"], or [""] for the unknown date [(0, 0, 0)]. *)

val routing_hash : t -> int
(** Deterministic non-negative hash of the probe: the resolver seeds its
    candidate-set padding draws from it, so the same probe always scans
    the same decoys.  A pure function of the probe's keys and filters,
    so the client and the daemon agree on it. *)
