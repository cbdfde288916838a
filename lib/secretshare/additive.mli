(** Additive (c,c) secret sharing over Z_q.

    The SecSumShare protocol (paper Section IV-B, Theorem 4.1) rests on this
    scheme: a secret v is split into c shares, the first c-1 drawn uniformly
    from Z_q and the last chosen so the shares sum to v mod q.  Any c-1 shares
    reveal nothing (each missing share uniformly re-randomizes the sum); all c
    recover v exactly.  The scheme is additively homomorphic: summing the
    share vectors of several secrets share-wise yields a sharing of the sum of
    the secrets, which is what lets providers aggregate locally before any
    reconstruction. *)

open Eppi_prelude

type share = int
(** A share is a canonical residue in [0, q). *)

val share : Rng.t -> q:Modarith.modulus -> c:int -> int -> share array
(** [share rng ~q ~c v] splits [v] (reduced mod q) into [c] shares, with
    the draws of {!share_into}.
    @raise Invalid_argument if [c < 1]. *)

val share_into : Rng.t -> q:Modarith.modulus -> int -> into:share array array -> int -> share
(** [share_into rng ~q v ~into j] splits the residue [v] into
    [c = Array.length into] shares without allocating: share [k >= 1] is
    written to [into.(k).(j)] and share 0 is returned ([into.(0)] is not
    touched).  Shares 0 .. c-2 are drawn uniformly in that order, share c-1
    balances the sum: {!share} draws exactly the same stream.
    @raise Invalid_argument if [into] is empty or [v] is not in [0, q). *)

val reconstruct : q:Modarith.modulus -> share array -> int
(** Sum of the shares mod q. *)

val add : q:Modarith.modulus -> share array -> share array -> share array
(** Share-wise sum of two share vectors of equal length (the additive
    homomorphism). *)

val add_into : q:Modarith.modulus -> acc:share array -> share array -> unit
(** In-place accumulating variant of {!add}; both vectors must hold
    canonical residues (one compare-and-subtract per element). *)

val zero_sharing : Rng.t -> q:Modarith.modulus -> c:int -> share array
(** A fresh random sharing of 0, usable to re-randomize another sharing. *)

val rerandomize : Rng.t -> q:Modarith.modulus -> share array -> share array
(** Fresh sharing of the same secret (adds a zero sharing). *)
