(** Aggregate table over a tracing session.

    Groups spans by name (count, total time, bytes, messages, allocation
    deltas), computes the session wall, and carries the last sample of
    every counter series — the "where did the time go" table the CLI
    prints after a traced run.  Parallel phases can legitimately exceed
    100% of wall: totals sum across domain tracks. *)

type row = {
  name : string;
  count : int;
  total_ns : int;  (** Summed across all tracks. *)
  bytes : int;  (** Sum of the spans' [bytes] args. *)
  messages : int;  (** Sum of the spans' [messages] args. *)
  minor_words : int;  (** Sum of the spans' GC minor-allocation deltas. *)
  major_words : int;
}

type t = {
  wall_ns : int;  (** Latest minus earliest event timestamp. *)
  track_count : int;
  dropped : int;  (** Events lost to buffer bounds, all tracks. *)
  rows : row list;  (** Sorted by total time, descending. *)
  counters : (string * int) list;  (** ["name.key"], last sample wins. *)
}

val compute : Trace.track list -> t

val pp : Format.formatter -> t -> unit
(** The bare table (no box); compose with surrounding vertical boxes. *)

val print : Format.formatter -> t -> unit
(** [pp] wrapped in its own vertical box with a trailing newline — what
    the CLI calls. *)
