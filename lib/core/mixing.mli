(** Identity mixing against the common-identity attack (Section III-B.2).

    A common identity's row cannot be hidden by false positives — its true
    frequency shows.  ε-PPI instead hides {i which} apparently-common
    identities are truly common: each non-common identity is exaggerated to
    β = 1 with probability λ (Eq. 6), so an attacker picking an
    apparently-common identity faces a pool where the fraction of decoys is
    at least ξ (Eq. 7):

    {v λ >= ξ/(1-ξ) · C / (n - C) v}

    with C the number of true common identities, n the identity count and
    ξ the required decoy fraction — we set ξ to the maximum ε among the
    common identities, which bounds the attacker's confidence by 1 - ξ
    exactly as the per-identity guarantee demands. *)

val lambda : xi:float -> n_common:int -> n_total:int -> float
(** Eq. 7, clamped into [0, 1].  Zero when there are no common identities.
    @raise Invalid_argument if [xi] is outside [0, 1), counts are negative,
    or [n_common > n_total]. *)

val decoy_fraction : lambda:float -> n_common:int -> n_total:int -> float
(** Expected fraction of decoys among mixed identities for a given λ — the
    quantity Eq. 7 bounds below by ξ. *)

val mix : Eppi_prelude.Rng.t -> lambda:float -> bool
(** One mixing draw for a non-common identity. *)

(** How decoys are selected among the non-common identities.

    [Bernoulli] is the paper's Eq. 6: each non-common identity is
    independently exaggerated with probability λ, so the ξ decoy-fraction
    guarantee holds {i in expectation} — an unlucky draw can leave the
    common identities under-protected (the mixing ablation in the bench
    makes this visible).  [Exact_count] is this repository's extension: it
    plants exactly ⌈λ(n-C)⌉ decoys chosen uniformly at random, which holds
    the bound on every draw at identical expected search cost. *)
type mode = Bernoulli | Exact_count

val mode_name : mode -> string

val select_decoys :
  Eppi_prelude.Rng.t -> mode:mode -> lambda:float -> candidates:int array -> bool array
(** [select_decoys rng ~mode ~lambda ~candidates] returns, aligned with
    [candidates] (the indices of non-common identities), which of them are
    exaggerated to β = 1. *)

val xi : epsilons:float array -> common:bool array -> float
(** ξ, the required decoy fraction: the maximum ε over the common
    identities (0 when there are none), capped at 0.999 — ξ = 1 would need
    infinitely many decoys. *)

type plan = {
  xi : float;
  lambda : float;  (** Eq. 7 for this ξ and the common count. *)
  mixed : bool array;  (** Non-common identities exaggerated to β = 1. *)
}

val plan :
  Eppi_prelude.Rng.t -> mode:mode -> epsilons:float array -> common:bool array -> plan
(** The whole mixing step from the common flags: {!xi}, then {!lambda},
    then {!select_decoys} over the non-common identities in index order
    (its draws are the only ones made). *)
