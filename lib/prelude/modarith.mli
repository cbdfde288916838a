(** Arithmetic modulo a small modulus q.

    The SecSumShare protocol works in Z_q where q only needs to exceed the
    largest possible secure sum (the provider count m), so everything fits in
    native ints.  Sharing only adds and subtracts residues; [q < 2^31]
    keeps every residue within the 4-byte packed share width. *)

type modulus = private int

val modulus : int -> modulus
(** @raise Invalid_argument unless [2 <= q < 2^31]. *)

val to_int : modulus -> int
val reduce : modulus -> int -> int
(** Canonical representative in [0, q), correct for negative inputs. *)

val add : modulus -> int -> int -> int
val sub : modulus -> int -> int -> int

val is_prime : int -> bool
(** Deterministic trial-division primality test (fine for small q). *)

val next_prime : int -> int
(** Smallest prime strictly greater than the argument. *)
