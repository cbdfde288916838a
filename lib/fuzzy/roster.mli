(** The demographic roster the daemon compiles its resolver from: one
    canonical record per owner id (array index = owner id = index row).

    The CSV form is what [eppi generate --roster] writes and
    [eppi serve --roster] reads:
    {v
    owner,first,last,dob,zip,gender
    0,james,smith,1943-06-12,12345,f
    v}
    Owner ids must be the sequential row positions — the roster is a
    dense owner-indexed table, not a sparse mapping. *)

open Eppi_linkage

val generate : Eppi_prelude.Rng.t -> n:int -> Demographic.t array
(** [n] random persons (deterministic in the rng), owner id = index. *)

val to_csv : Demographic.t array -> string

val of_csv : string -> Demographic.t array
(** Blank lines and the header line are skipped (and counted in line
    numbers); lines are parsed one at a time, without a list of them.
    @raise Failure on malformed input: wrong field count, non-sequential
    owner ids, an unparsable date of birth, or an unknown gender code. *)

val input_csv : in_channel -> Demographic.t array
(** {!of_csv} reading a line at a time from a channel: it accepts the same
    input and fails with the same messages, and never holds the file. *)
