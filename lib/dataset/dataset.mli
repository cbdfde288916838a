(** Synthetic information-network datasets.

    The paper's effectiveness experiments run on a distributed document
    collection (TREC-WT10g split into 2,500-25,000 "collections" treated as
    providers, with document source URLs as owner identities).  That corpus
    is not redistributable, and the Section III analysis depends on the
    membership matrix only through each identity's provider frequency
    sigma_j and the provider count m, so this generator produces matrices
    with a controlled frequency profile instead: a Zipf-like tail of rare
    identities, a configurable band of mid-frequency identities and an
    optional planted set of common (near-ubiquitous) identities for the
    common-identity-attack experiments.  See DESIGN.md, "Substitutions". *)

open Eppi_prelude

type t = {
  providers : int;  (** m *)
  owners : int;  (** n *)
  membership : Bitmatrix.t;  (** rows = owners, cols = providers: M^T *)
  epsilons : float array;  (** per-owner privacy degree, length n *)
}

val frequency : t -> int -> int
(** [frequency t j] is the number of providers holding owner [j]'s records
    (sigma_j * m in the paper's notation). *)

val sigma : t -> int -> float
(** Relative frequency sigma_j in [0, 1]. *)

val member : t -> provider:int -> owner:int -> bool

(** Generator configuration. *)
type profile = {
  zipf_exponent : float;  (** Skew of the rare-identity tail. *)
  max_rare_frequency : int;
      (** Cap on the frequency of tail identities (paper Fig. 4a sweeps
          frequencies up to ~500 of 10,000 providers). *)
  common_fraction : float;  (** Fraction of owners planted as common. *)
  common_min_sigma : float;  (** Minimum sigma of a planted common owner. *)
}

val default_profile : profile

val generate : ?profile:profile -> Rng.t -> providers:int -> owners:int -> t
(** Build a network whose identity-frequency profile follows [profile].
    Epsilons are initialized to 0.5; use {!with_epsilons} or the helpers
    below to override. *)

val with_epsilons : t -> float array -> t
(** @raise Invalid_argument on a length mismatch or out-of-range value. *)

val uniform_epsilons : Rng.t -> t -> t
(** Independent uniform draws over [0, 1) — the paper's default. *)

val constant_epsilons : t -> float -> t

val vip_epsilons : Rng.t -> t -> vip_fraction:float -> vip_epsilon:float -> base_epsilon:float -> t
(** A small VIP class (celebrities) with a high privacy degree, everyone else
    at a base degree — the motivating scenario of the introduction. *)

val exact_frequency_owner : t -> frequency:int -> int option
(** An owner whose frequency is exactly the given count, if any (used to
    select sweep points). *)

val stats_summary : t -> string
(** Human-readable dataset statistics (frequency quantiles, density). *)

val to_csv : t -> string
(** One line per (owner, provider) membership pair, plus a header carrying
    dimensions and epsilons. *)

val of_csv : string -> t
(** Inverse of {!to_csv}.
    @raise Failure on malformed input: a bad header or dimensions, or a
    line that is not an [eps] or [m] record with in-range ids and
    numeric fields (["Dataset.of_csv: bad line N"]). *)
