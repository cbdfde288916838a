(** The published privacy-preserving index and its query operation.

    Once constructed, the PPI is a static matrix on the third-party locator
    server; QueryPPI(t_j) is a row lookup returning the obscured provider
    list (paper Section II-A). *)

open Eppi_prelude

type t

val of_matrix : Bitmatrix.t -> t
(** Rows are owners, columns providers. *)

val matrix : t -> Bitmatrix.t
val providers : t -> int
val owners : t -> int

val query : t -> owner:int -> int list
(** Provider ids that may hold the owner's records, ascending. *)

val query_count : t -> owner:int -> int
(** Size of the query result — the search-cost driver. *)

val apparent_frequency : t -> owner:int -> int
(** What an observer of the public index sees as the owner's frequency
    (identical to {!query_count}; named for the attack code's vocabulary). *)

val recall_ok : membership:Bitmatrix.t -> t -> owner:int -> bool
(** True iff every true-positive provider appears in the query result —
    the 100%-recall invariant of truthful publication. *)

val to_csv : t -> string
(** Persist the published matrix: a dimension header plus one
    [owner,provider] line per published positive. *)

val output_csv : out_channel -> t -> unit
(** [output_csv oc t] writes {!to_csv}'s bytes to [oc] in 64 KB chunks,
    without holding the whole file in memory (about 1 GB at 25,000
    providers x 4,000 owners). *)

val of_csv : string -> t
(** Inverse of {!to_csv}.  Input is validated: the dimension header must be
    complete and positive, every line must be an in-range [owner,provider]
    pair, and duplicate cells are rejected.  Blank lines are skipped but
    counted.  Lines are parsed one at a time, without a list of them.
    @raise Failure on malformed input, naming the offending line. *)

val input_csv : in_channel -> t
(** [input_csv ic] reads {!of_csv}'s format from [ic] a line at a time,
    the mirror of {!output_csv}: it holds the matrix and one line, never
    the file.  It accepts exactly the input {!of_csv} accepts and fails
    with the same messages (empty input included:
    ["Index.of_csv: bad header"]).
    @raise Failure on malformed input, naming the offending line. *)
