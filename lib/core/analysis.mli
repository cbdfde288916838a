(** Fast per-identity success-ratio estimation for the parameter sweeps.

    The Figs. 4-5 experiments ask, for a grid of (frequency, ε, m, policy)
    points, how often randomized publication achieves fp >= ε.  Because each
    negative provider flips independently, the false-positive count is a
    single binomial draw — no matrix needs to be materialized.  These
    estimators are distribution-identical to running {!Construct.run} on a
    matrix and reading {!Metrics.success_ratio} for the same identity (a
    property the test suite checks). *)

open Eppi_prelude

val empirical_success :
  Rng.t -> policy:Policy.t -> frequency:int -> epsilon:float -> m:int -> trials:int -> float
(** Fraction of successful trials with the policy's β (the paper's
    success-ratio metric restricted to one identity class). *)

val empirical_success_with_beta :
  Rng.t -> beta:float -> frequency:int -> epsilon:float -> m:int -> trials:int -> float

val exact_success : beta:float -> frequency:int -> epsilon:float -> m:int -> float
(** Closed-form Pr[fp >= ε]: the binomial upper-tail
    Pr[X >= ceil(f ε / (1-ε))] for X ~ Binomial(m-f, β), computed in
    log-space (no sampling).  Sandwiches the estimators: it upper-bounds
    Theorem 3.1's Chernoff lower bound and matches {!empirical_success}
    within sampling error (both tested). *)

val expected_false_positive_rate : beta:float -> frequency:int -> m:int -> float
(** E[fp] = (m - f)β / ((m - f)β + f): the search-overhead driver. *)

val expected_query_cost : beta:float -> frequency:int -> m:int -> float
(** Expected providers returned by QueryPPI: f + (m - f)β. *)
