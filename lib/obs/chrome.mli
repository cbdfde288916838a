(** Chrome trace-event JSON export.

    The output loads in Perfetto ({:https://ui.perfetto.dev}) and
    [chrome://tracing]: one thread track per recording domain, B/E span
    pairs, instant markers and counter tracks.  Timestamps are rebased so
    the earliest event sits at t = 0.  Every event is rendered by
    {!Eppi_prelude.Json.to_string}. *)

val to_json : Trace.track list -> string
(** Render tracks (usually [Trace.tracks ()]) as one JSON document. *)

val write : string -> unit
(** [write path] exports the current session ([Trace.tracks ()]) to
    [path], streaming one event at a time. *)
