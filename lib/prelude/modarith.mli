(** Arithmetic modulo a small modulus q.

    The SecSumShare protocol works in Z_q where q only needs to exceed the
    largest possible secure sum (the provider count m), so everything fits in
    native ints.  Multiplication guards against overflow by requiring
    q < 2^31. *)

type modulus = private int

val modulus : int -> modulus
(** @raise Invalid_argument unless [2 <= q < 2^31]. *)

val to_int : modulus -> int
val reduce : modulus -> int -> int
(** Canonical representative in [0, q), correct for negative inputs. *)

val add : modulus -> int -> int -> int
val sub : modulus -> int -> int -> int
val mul : modulus -> int -> int -> int
val neg : modulus -> int -> int

val pow : modulus -> int -> int -> int
(** [pow q b e] for [e >= 0], by binary exponentiation. *)

val inv : modulus -> int -> int
(** Multiplicative inverse via the extended Euclidean algorithm.
    @raise Invalid_argument if the argument is not invertible mod q. *)

val is_prime : int -> bool
(** Deterministic trial-division primality test (fine for small q). *)

val next_prime : int -> int
(** Smallest prime strictly greater than the argument. *)
