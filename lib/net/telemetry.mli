(** Always-on request-stage telemetry for the daemon.

    One {!record} per decoded request, stamped at each step of the
    daemon's single loop:

    {v
    read ── decode ──► decoded ── execute ──► executed ── flush ──► written
    v}

    [execute] covers the handler, the reply's encoding and its append to
    the connection's write buffer; [flush] is the wait until the reply's
    last byte reaches the socket.  The stages telescope, so
    [decode + execute + flush = total] holds exactly in integer
    nanoseconds, per request and therefore over the aggregated sums — the
    conservation law the tests and check.sh assert.  Aggregates are
    cumulative per-stage {!Eppi_prelude.Stats.Log2_histogram}s plus a
    rolling {!Eppi_prelude.Stats.Windowed} per request class (query,
    fuzzy, audit, republish, admin) and a bounded worst-N slow-request
    ring with full stage breakdowns.

    Single-writer: the daemon's loop creates and finishes every record. *)

type record = {
  kind : int;  (** {!Wire.request_tag} of the unwrapped request. *)
  trace_id : int;  (** Propagated trace context, -1 when absent. *)
  t_read : int;  (** Monotonic ns: decode began. *)
  t_decoded : int;  (** The frame was parsed. *)
  t_executed : int;  (** The reply frame was appended to the write buffer. *)
}

type t

val create : ?slow_slots:int -> unit -> t
(** A [slow_slots]-entry slow ring (default 16) and a 10 x 1 s rolling
    window per class.  @raise Invalid_argument when [slow_slots < 1]. *)

val finish : t -> record -> t_written:int -> unit
(** Fold a completed request into every aggregate.  [t_written] is the
    monotonic stamp at which the last byte of the response reached the
    socket; it also drives window rotation. *)

val json : ?extra:(string * Eppi_prelude.Json.t) list -> t -> now_ns:int -> Eppi_prelude.Json.t
(** The snapshot carried by the [Telemetry] wire reply: window summaries
    per class, per-stage histograms with integer sums, the conservation
    check, and the slow ring (slowest first), followed by the [extra]
    fields (the server adds generation, swaps and trace info).  The
    field list with units is in docs/OBSERVABILITY.md. *)

val classes : string array
(** The window classes, in reply order. *)

val stage_names : string array
(** The three stages, in order: [decode], [execute], [flush].  Every
    reader of the stage list ([eppi top], the tests) takes it from here. *)
