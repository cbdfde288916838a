(** Read-optimized postings compiled from a published index.

    [Eppi.Index.query] scans a whole Bitmatrix row — O(m) per call no matter
    how sparse the row is.  The online serving path instead compiles the
    index once into two bit-packed posting arrays:

    - forward: owner -> the ascending provider ids of her published row
      (exactly [Eppi.Index.query], the QueryPPI contract);
    - inverse: provider -> the ascending owner ids published at it, opening
      the provider-side audit workload ("which identities does my column
      expose?") that a row-major matrix cannot answer efficiently.

    Each entry is packed at the minimal fixed bit width for its id space, so
    a query decodes only the entries that exist: O(result) instead of O(m),
    and the whole store is two flat buffers plus two offset tables — no
    per-query allocation beyond the result list. *)

type t

(** {2 Compiling}

    One compiler serves every source.  A {!builder} is fed each owner's
    ascending provider ids in owner order; it writes the forward side as
    entries arrive, into slots laid out from the declared row counts, and
    tallies each provider's entries.  {!finish} then fills the inverse side
    in one counting pass over the forward entries.  Nothing is allocated
    per entry: the store is the whole cost. *)

type builder

val builder : providers:int -> int array -> builder
(** [builder ~providers counts] compiles [Array.length counts] owners whose
    rows will hold [counts.(j)] ids each, out of [providers].  It allocates
    the forward offsets and packed entries at once, and one table of
    [providers + 1] words when that costs at most a word per entry or
    32 KB.  Otherwise {!finish} gives the inverse side lists only for the
    providers that occur, so a provider count alone sizes no table. *)

val add : builder -> owner:int -> int -> unit
(** Append a provider id to the owner's row.  Owners come in ascending
    order; a row lists its ids in the order given, so callers pass them
    ascending.  Never writes past a row's declared count.
    @raise Invalid_argument on an id out of range, a row past its count,
    or an owner that starts before the rows ahead of it are full. *)

val finish : builder -> t
(** The compiled store.  @raise Invalid_argument if a row holds fewer ids
    than declared. *)

val of_matrix : Eppi_prelude.Bitmatrix.t -> t
(** Rows are owners, columns providers, as everywhere in the repo. *)

val of_index : Eppi.Index.t -> t

(** {2 Reading} *)

val owners : t -> int
val providers : t -> int

val query : t -> owner:int -> int list
(** Ascending provider ids; identical to [Eppi.Index.query] on the source
    index.  @raise Invalid_argument on an out-of-range owner. *)

val query_count : t -> owner:int -> int
(** O(1): the length of the owner's posting list. *)

val iter_query : t -> owner:int -> (int -> unit) -> unit
(** Allocation-free traversal of the owner's posting list, ascending. *)

val owners_of : t -> provider:int -> int list
(** The inverse postings: ascending owner ids whose published rows list
    [provider].  @raise Invalid_argument on an out-of-range provider. *)

val audit_count : t -> provider:int -> int
(** O(1): how many identities the provider's column exposes. *)

val entry_bits : t -> int * int
(** (forward, inverse) packed bit width per entry. *)

val memory_bytes : t -> int
(** Total bytes held by the packed buffers and offset tables. *)
