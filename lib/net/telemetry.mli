(** Always-on request-stage telemetry for the daemon.

    One {!record} per decoded request, stamped at each pipeline hand-off:

    {v
    read ── decode ──► decoded ── dispatch ──► enqueued ── queue ──►
    worker start ── execute ──► done ── reorder ──► flushed ── flush ──►
    written
    v}

    The stages telescope, so [decode + dispatch + queue + execute +
    reorder + flush = total] holds exactly in integer nanoseconds, per
    request and therefore over the aggregated sums — the conservation law
    the tests and check.sh assert.  Aggregates are cumulative per-stage
    {!Eppi_prelude.Stats.Log2_histogram}s plus a rolling
    {!Eppi_prelude.Stats.Windowed} per request class (query, fuzzy, audit,
    republish, admin) and a bounded worst-N slow-request ring with full
    stage breakdowns.

    Single-writer: the mux domain creates, flushes and finishes records;
    workers stamp [t_started]/[t_done] on records they execute, ordered
    before the mux's reads by the completion stack's release/acquire
    pair. *)

type record = {
  mutable kind : int;  (** {!Wire.request_tag} of the unwrapped request. *)
  mutable trace_id : int;  (** Propagated trace context, -1 when absent. *)
  mutable t_read : int;
  mutable t_decoded : int;
  mutable t_dispatched : int;
  mutable t_started : int;
  mutable t_done : int;
  mutable t_flushed : int;
}

val make : kind:int -> trace_id:int -> t_read:int -> t_decoded:int -> record
(** A fresh record with every later stamp defaulted to [t_decoded], so an
    inline (no-worker) request that never crosses a queue reports zero
    queue/execute time until those stamps are set. *)

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
    fields (the server adds worker, generation and trace info).  The
    field list with units is in docs/OBSERVABILITY.md. *)

val classes : string array
(** The window classes, in reply order. *)

val stage_names : string array
(** The six stages, in pipeline order. *)
