(** Query workload generation for the serving bench and CLI.

    Real locator traffic is heavily skewed — a few identities (celebrities,
    common surnames) draw most lookups — so the reference workload draws
    owners from a Zipf distribution over [0, n): owner 0 is the hottest.
    Deterministic from the {!Eppi_prelude.Rng.t}, like everything else in
    the repo. *)

open Eppi_prelude

val zipf :
  ?exponent:float -> ?unknown_fraction:float -> Rng.t -> n:int -> count:int -> int array
(** [zipf rng ~n ~count] draws [count] owner ids Zipf-distributed over
    [0, n) with [exponent] (default 1.1).  A fraction [unknown_fraction]
    (default 0) of requests instead target ids in [n, 2n) — unknown owners,
    answered [Unknown_owner] by the range check.
    @raise Invalid_argument on non-positive [n] or [count], a non-positive
    exponent, or an unknown fraction outside [0, 1]. *)

val uniform : ?unknown_fraction:float -> Rng.t -> n:int -> count:int -> int array
(** The unskewed control workload: every owner equally likely. *)

val fuzzy :
  ?noise:Eppi_linkage.Demographic.noise ->
  ?exponent:float ->
  Rng.t ->
  roster:Eppi_linkage.Demographic.t array ->
  count:int ->
  (int * Eppi_linkage.Demographic.t) array
(** Typo/variant workload for the approximate-identity path: [count]
    pairs [(truth, observed)] where [truth] is a Zipf-drawn owner id in
    the roster and [observed] is that owner's demographics corrupted at
    [noise] rates ({!Eppi_linkage.Demographic.corrupt}, default
    {!Eppi_linkage.Demographic.default_noise}) — what a client who half
    remembers a name would type.  @raise Invalid_argument on an empty
    roster or invalid [count]/[exponent]. *)

(** {2 Trace-driven workloads}

    Next to the synthetic generators, a request log captured from a real
    deployment (or written by {!to_csv_log}) replays as-is — the workload
    realism the serving bench and the RPC replay driver
    ({!Eppi_net.Replay}) consume. *)

val of_csv_log : string -> int array
(** Parse a CSV request log: one request per line, the {e last}
    comma-separated field is the owner id (leading fields — a timestamp, a
    client tag — are ignored).  Blank lines and [#] comments are skipped;
    a non-numeric first line is treated as a column header.
    @raise Failure on any other unparsable line, naming it. *)

val of_jsonl_log : string -> int array
(** Parse a JSONL request log: one JSON object per line carrying an
    integer top-level ["owner"] field (other fields, nested ones
    included, are ignored).  Blank lines and [#] comments are skipped.
    @raise Failure on a line that is not a JSON object with an integer
    ["owner"] of magnitude at most 2{^53}, naming it. *)

val to_csv_log : int array -> string
(** Serialize a workload as a CSV request log ([of_csv_log]'s inverse,
    with an [owner] header line). *)
