(** Additive (c,c) secret sharing over Z_q.

    The SecSumShare protocol (paper Section IV-B, Theorem 4.1) rests on this
    scheme: a secret v is split into c shares, the first c-1 drawn uniformly
    from Z_q and the last chosen so the shares sum to v mod q.  Any c-1 shares
    reveal nothing (each missing share uniformly re-randomizes the sum); all c
    recover v exactly.  The scheme is additively homomorphic: summing the
    share vectors of several secrets share-wise yields a sharing of the sum of
    the secrets, which is what lets providers aggregate locally before any
    reconstruction.

    Scalar sharings are [int array]s; SecSumShare's share vectors are
    {!vector}s of packed residues, split by {!share_bits} and summed by
    {!add_into}.  Both draw through {!Rng.fill_below} in the same order. *)

open Eppi_prelude

type share = int
(** A share is a canonical residue in [0, q). *)

val share : Rng.t -> q:Modarith.modulus -> c:int -> int -> share array
(** [share rng ~q ~c v] splits [v] (reduced mod q) into [c] shares: shares
    0 .. c-2 are one {!Rng.fill_below} fill of c-1 residues, share c-1
    balances the sum.  This is the one draw rule: {!share_bits} draws what
    one [share] call per secret would, in secret order.
    @raise Invalid_argument if [c < 1]. *)

val reconstruct : q:Modarith.modulus -> share array -> int
(** Sum of the shares mod q. *)

val add : q:Modarith.modulus -> share array -> share array -> share array
(** Share-wise sum of two share vectors of equal length (the additive
    homomorphism). *)

val zero_sharing : Rng.t -> q:Modarith.modulus -> c:int -> share array
(** A fresh random sharing of 0, usable to re-randomize another sharing. *)

val rerandomize : Rng.t -> q:Modarith.modulus -> share array -> share array
(** Fresh sharing of the same secret (adds a zero sharing). *)

(** {1 Packed share vectors} *)

type vector
(** n canonical residues of Z_q in one [Bytes.t], {!width}[ q] bytes each:
    2 bytes a residue at q = 1,031 where an [int] takes 8. *)

val width : Modarith.modulus -> int
(** Bytes per packed residue: 2 when [q <= 2^16], else 4. *)

val vector : q:Modarith.modulus -> int -> vector
(** [vector ~q n] is n zero residues. *)

val to_array : q:Modarith.modulus -> vector -> int array
val of_array : q:Modarith.modulus -> int array -> vector
(** @raise Invalid_argument if a value is not in [0, q). *)

val share_bits :
  Rng.t ->
  q:Modarith.modulus ->
  bits:Bytes.t ->
  pos:int ->
  draws:int array ->
  into:vector array ->
  unit
(** [share_bits rng ~q ~bits ~pos ~draws ~into] shares n secret bits among
    [c = Array.length into] vectors of n residues each.  Secret j is bit
    [j mod 8] of byte [pos + j / 8] of [bits] (the {!Bitvec.blit_bytes}
    layout).  One {!Rng.fill_below} call overwrites [draws], the (c-1)·n
    scratch residues, with shares 0 .. c-2 of every secret, secret-major:
    the draws of n {!share} calls in turn.  Share 0 of secret j is added to
    residue j of [into.(0)] (the sharer's running sum); share k >= 1 is
    stored at residue j of [into.(k)].
    @raise Invalid_argument if [c < 2], if the vectors' lengths differ,
    or if [draws] does not hold (c-1)·n slots or [bits] lacks n bits from
    [pos]. *)

val add_into : q:Modarith.modulus -> acc:vector -> vector -> unit
(** [add_into ~q ~acc b] adds [b] into [acc] residue by residue, one
    compare-and-subtract each; both must hold canonical residues.
    @raise Invalid_argument if their lengths differ. *)
