(** Centralized reference construction of an ε-PPI (paper Section III).

    This path computes everything from the plaintext membership matrix — it
    is the functional specification the distributed secure protocol
    ({!Eppi_protocol} in lib/protocol) must agree with, and the engine behind
    the simulation-based effectiveness experiments (Figs. 4-5), mirroring how
    the paper's first experiment set is itself a simulation.

    Pipeline per identity: raw β* from the policy → common iff β* >= 1 →
    ξ = max ε over common identities → λ from Eq. 7 → mixing draw for
    non-common identities (Eq. 6) → randomized publication. *)

open Eppi_prelude

type result = {
  index : Index.t;  (** The published ε-PPI. *)
  betas : float array;  (** Final per-identity β (1.0 for common and mixed). *)
  raw_betas : float array;  (** β* before mixing, +∞ possible. *)
  common : bool array;  (** β* >= 1. *)
  mixed : bool array;  (** Non-common identities exaggerated to β = 1. *)
  lambda : float;
  xi : float;  (** Required decoy fraction: max ε over common identities. *)
}

val run :
  ?mixing:Mixing.mode ->
  ?provider_floors:float array ->
  Rng.t ->
  membership:Bitmatrix.t ->
  epsilons:float array ->
  policy:Policy.t ->
  result
(** Full construction.  The matrix is owner-major (rows = owners, columns =
    providers).  [mixing] defaults to the paper's [Bernoulli] mode
    (see {!Mixing.mode}).  [provider_floors], when given, applies the
    provider-personalized noise extension of
    {!Publish.publish_matrix_with_floors}.
    @raise Invalid_argument on dimension mismatches or epsilons outside
    [0, 1]. *)

val extend :
  Rng.t ->
  previous:result ->
  membership:Bitmatrix.t ->
  epsilons:float array ->
  policy:Policy.t ->
  result
(** Append-only growth — an extension beyond the paper, which treats the
    index as fully static.  [membership]/[epsilons] cover the whole
    population: the first [Index.owners previous.index] rows are the
    existing owners and are republished {i bit-for-bit unchanged} (so the
    intersection attack of {!Attack.intersection_attack} gains nothing on
    them), and only the appended owners are priced, mixed and randomized.
    The mixing ratio for the new arrivals is chosen so the {i overall}
    decoy fraction still meets ξ, counting the decoys already published.
    @raise Invalid_argument if the population shrinks, the provider count
    changes, or an existing owner's memberships changed (a changed row
    cannot be republished without breaking the static-index property —
    rebuild from scratch instead). *)
