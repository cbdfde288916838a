(** Bit-sliced GMW: one circuit evaluated for up to 63 instances (lanes)
    at once, by And layer (docs/PERF.md §3).

    Every wire holds, per party, one [int] whose bit k is that party's XOR
    share in lane k, so Not, Xor and Const are word operations.  An And
    spends a 63-lane Beaver triple (a, b, c): the parties open d = x ⊕ a and
    e = y ⊕ b, and party i's product share is c_i ⊕ (d ∧ b_i) ⊕ (e ∧ a_i),
    plus d ∧ e at party 0.  Opening a layer is the only communication and
    the only part a driver supplies: it XORs every party's {!contribute}
    words and hands the result to {!finish}.  {!deal} draws all the
    randomness first, so it does not depend on the driver.  {!Gmw.execute}
    is the gate-at-a-time reference. *)

open Eppi_prelude
open Eppi_circuit

val max_lanes : int
(** 63: the bits of an OCaml [int]. *)

type schedule
(** A circuit's And layers and, per layer, the local gates waiting on it. *)

val schedule : Circuit.t -> schedule
(** @raise Invalid_argument on an input index of 62 or more. *)

val stats : schedule -> Circuit.stats

type chunk
(** One evaluation of a schedule over 1 to 63 lanes. *)

val deal : Rng.t -> schedule -> inputs:int array array -> pos:int -> lanes:int -> chunk
(** Share the inputs and deal the triples.  Party p's input bit b in lane k
    is bit b of [inputs.(p).(pos + k)]: a chunk's lanes are the consecutive
    instances [pos … pos + lanes − 1].  Draws, all {!Rng.bits63}:
    p − 1 words per input wire in gate order, then per And gate in layer
    order a, b and p − 1 words each of the shares of a, b and a ∧ b.
    @raise Invalid_argument if [lanes] is outside [1, 63] or a party has no
    input vector. *)

val lanes : chunk -> int
val parties : chunk -> int
val depth : chunk -> int
val layer_ands : chunk -> int -> int
(** And gates in a layer; 0 past the last. *)

val outputs : chunk -> int

val contribute : chunk -> party:int -> layer:int -> int array -> unit
(** XOR [party]'s masked words, d then e per And of [layer], into the
    first [2 * layer_ands] words of the buffer.  Earlier layers must be
    finished. *)

val finish : chunk -> layer:int -> int array -> unit
(** Close [layer] with its opened words, laid out as {!contribute}'s. *)

val output_shares : chunk -> party:int -> int array -> unit
(** XOR [party]'s output words into the first [outputs] words of the
    buffer.  Every layer must be finished. *)

val evaluate : chunk -> int array
(** The in-process driver: open every layer by XOR, then the outputs.
    Lane k of output o is bit k of word o. *)

val lane : int -> int -> bool
(** [lane word k] is bit k of [word]. *)
