(** Packed bit vectors.

    A provider's local membership vector over n owners, and each row/column of
    the index matrices, are bit vectors; at the paper's scale (10,000 providers
    x thousands of identities) packing is what keeps whole-network experiments
    in memory. *)

type t

val create : int -> t
(** [create len] is an all-zero vector of [len] bits. *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit
val assign : t -> int -> bool -> unit
val count : t -> int
(** Number of set bits, by a popcount per 64-bit word. *)

val copy : t -> t
val equal : t -> t -> bool
val fill : t -> bool -> unit

val union : t -> t -> t
(** Bitwise or; operands must have equal length. *)

val inter : t -> t -> t
(** Bitwise and; operands must have equal length. *)

val diff : t -> t -> t
(** Bits set in the first operand but not the second. *)

val blit_bytes : t -> Bytes.t -> int -> unit
(** [blit_bytes v dst off] copies [v]'s packed form into [dst] from [off]:
    [(length v + 7) / 8] bytes, bit [i] at bit [i mod 8] of byte [i / 8],
    padding bits zero.  Lets a caller lay many vectors out in one buffer.
    @raise Invalid_argument if they do not fit. *)

val iter_set : (int -> unit) -> t -> unit
(** Iterate the indexes of set bits in increasing order.  The scan reads
    a 64-bit word at a time, skips zero words, and finds each set bit
    with {!lowest_bit}: one load per 64 bits plus one step per set bit. *)

val to_index_list : t -> int list
(** The indexes of set bits, ascending (a {!fold_set}). *)

val of_index_list : int -> int list -> t
val fold_set : ('a -> int -> 'a) -> 'a -> t -> 'a
(** Fold over the indexes of set bits in increasing order ({!iter_set}). *)

val lowest_bit : int -> int
(** [lowest_bit x] is the index (0 to 62) of the least significant set
    bit of a nonzero [x], negative [x] included: a count of trailing
    zeros by one multiply and a de Bruijn table lookup.  Unspecified for
    [x = 0]. *)

val pp : Format.formatter -> t -> unit
