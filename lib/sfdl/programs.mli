(** Canned SFDL programs.

    [count_below] is the comparator the ε-PPI construction runs inside
    generic MPC for each identity (paper Algorithm 2): the c coordinators
    feed their shares of the identity's secure sum, and coordinator 0 also
    feeds the identity's public threshold.  The circuit reconstructs the
    frequency under the additive sharing, classifies it against the
    threshold, and reveals (a) the common/non-common bit and (b) the
    frequency masked to zero for common identities — safe to release
    because non-common frequencies are exactly the ones the paper deems
    non-sensitive.  The number of common identities, which drives the
    mixing ratio λ, is counted from the revealed bits.

    Note the paper's naming wrinkle (see DESIGN.md): Algorithm 2 is called
    CountBelow and counts [S\[j\] < t], while Algorithm 1 uses the result as
    the number of identities {i at or above} the threshold.  We implement the
    semantics Algorithm 1 needs. *)

val count_below : c:int -> q:int -> string
(** SFDL source of the single-identity comparator for [c] coordinators and
    modulus [q]: inputs [s0 … s{c−1}] ([w = bits_for (q − 1)] bits each,
    [si] owned by coordinator i), then the threshold [t] ([w] bits, owned by
    coordinator 0); outputs [common] ([s0 + … + s{c−1} mod q >= t]) and
    [freq] (the sum, or 0 when common).  Coordinator 0's input bits are
    [s0] then [t], so its input word is [s0 lor (t lsl w)].
    @raise Invalid_argument if [c < 2] or [q < 2]. *)

val millionaires : width:int -> string
(** Yao's classic two-party comparison, used by tests and the MPC example. *)

val sum3 : width:int -> string
(** Three parties add their inputs; exercises width growth. *)

val vickrey_auction : width:int -> bidders:int -> string
(** Second-price sealed-bid auction among [bidders] parties: outputs the
    winner index and the price (the second-highest bid).  A stress test for
    the compiler's secret-if merging. *)
