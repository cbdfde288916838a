(** Deterministic, splittable pseudo-random number generator.

    All randomness in the repository flows through this module so that every
    experiment, protocol run and test is reproducible from a single integer
    seed.  The generator is splitmix64 (Steele, Lea & Flood, OOPSLA'14): a
    64-bit state advanced by a Weyl constant and finalized with a strong
    avalanche mix.  [split] derives an independent child stream, which lets
    concurrent protocol parties draw without interleaving artefacts.  In
    native code [bits63], [int], [fill_below], [bool] and [bernoulli]
    allocate nothing. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives a child generator whose stream is independent of the
    parent's subsequent draws. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits63 : t -> int
(** The low 63 bits of the next {!bits64} output, as an [int]: one draw,
    one uniformly random word.  Allocates nothing in native code. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  Unbiased via rejection
    sampling.  @raise Invalid_argument if [bound <= 0]. *)

val fill_below : t -> int -> int array -> unit
(** [fill_below t bound dst] overwrites every slot of [dst], in index order,
    with a draw uniform on [0, bound): Lemire's multiply-shift over the top
    31 bits of one {!bits64} output per candidate, rejecting the
    [2^31 mod bound] low products that would bias it, so no division per
    draw.  Each candidate is one output, so filling [a] then [b] draws what
    one fill of their concatenation would.  Allocates nothing in native
    code.  @raise Invalid_argument unless [1 <= bound < 2^31]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [0, x). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p] (clamped to [0,1]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> k:int -> n:int -> int array
(** [sample_without_replacement t ~k ~n] draws [k] distinct indexes from
    [0, n), in random order.  @raise Invalid_argument if [k > n] or [k < 0]. *)
