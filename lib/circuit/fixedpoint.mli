(** Unsigned fixed-point arithmetic gadgets.

    A Q(f) value represents x = w / 2^f for an unsigned word w.  The pure-MPC
    baseline protocol evaluates the whole β-calculation pipeline (Eq. 3 and
    Eq. 5: reciprocals, products, a square root) inside the circuit — this is
    precisely the "complex floating point computation" the paper's
    MPC-minimizing design pushes out of the secure part, and the reason the
    pure approach scales so poorly.  Fixed point stands in for Fairplay-era
    floating point; the magnitudes involved (σ, ε, β in [0, 1]) fit
    comfortably. *)

type t = {
  word : Word.word;
  frac_bits : int;
}

val constant : Circuit.Builder.t -> width:int -> frac_bits:int -> float -> t
(** Encode a non-negative float (rounded to the nearest representable
    value; saturates at the width). *)

val of_int_word : Circuit.Builder.t -> Word.word -> frac_bits:int -> t
(** Interpret an integer word as a fixed-point value (shift left by f). *)

val to_float : bool array -> frac_bits:int -> float
(** Decode evaluated output bits. *)

val add : Circuit.Builder.t -> t -> t -> t
(** Width grows by one bit; operands must share [frac_bits]. *)

val sub : Circuit.Builder.t -> t -> t -> t
(** Difference at the common width; unsigned semantics require the first
    operand to be at least the second. *)

val double : Circuit.Builder.t -> t -> t
(** Multiply by two (free: a one-bit shift). *)

val mul : Circuit.Builder.t -> t -> t -> width:int -> t
(** Product truncated back to Q(f) with the given result width. *)

val div : Circuit.Builder.t -> t -> t -> width:int -> t
(** Quotient in Q(f): (a << f) / b, truncated to [width] bits.  Division by
    zero saturates (all-ones quotient), matching {!Word.divmod}. *)

val div_by_int : Circuit.Builder.t -> t -> Word.word -> width:int -> t
(** Divide a Q(f) value by a plain integer word. *)

val sqrt : Circuit.Builder.t -> t -> t
(** Square root in Q(f): isqrt(w << f). *)

val ge : Circuit.Builder.t -> t -> t -> Circuit.wire
val output : Circuit.Builder.t -> t -> unit
