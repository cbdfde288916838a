(** Packed Boolean matrices.

    The paper's membership matrix M and the published index M' map
    (provider, owner) to a bit.  We store one bit vector per owner row --
    all metrics (false-positive rate, frequency, attack confidence) are
    per-owner row scans. *)

type t

val create : rows:int -> cols:int -> t
(** All-zero matrix; by convention rows index owners, columns providers. *)

val budget_error : rows:int -> cols:int -> string option
(** The budget for a matrix sized from input.  A CSV header or a
    republish payload declares its dimensions before any cell, and
    allocating what it declares could take the process down, so every
    loader checks this first.  [None] when a [rows] × [cols] matrix fits
    both budgets: 2{^33} cells (1 GiB of bits, far above any index served
    here), and 2{^27} words (1 GiB) for the [2 * rows + cols + 2] words of
    tables indexed by owner or provider (a row-count array, the serving
    postings' forward and inverse offsets).  Otherwise the reason, naming
    rows as owners and columns as providers.  The product is checked
    without overflow, so the dimensions may come straight from a header.
    @raise Invalid_argument unless both are positive. *)

val rows : t -> int
val cols : t -> int
val get : t -> row:int -> col:int -> bool
val set : t -> row:int -> col:int -> bool -> unit
val row : t -> int -> Bitvec.t
(** The live row vector (not a copy). *)

val row_count : t -> int -> int
(** Number of set bits in a row. *)

val col_count : t -> int -> int
(** Number of set bits in a column. *)

val copy : t -> t
val equal : t -> t -> bool
val map_rows : (int -> Bitvec.t -> Bitvec.t) -> t -> t
(** Build a new matrix by transforming each row; the transform must preserve
    row length. *)
