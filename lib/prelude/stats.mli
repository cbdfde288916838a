(** Descriptive statistics used to aggregate experiment samples. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

val mean : float array -> float
(** Arithmetic mean.  @raise Invalid_argument on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singletons. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [0,1], linear interpolation between order
    statistics.  Does not mutate its argument. *)

val median : float array -> float

val summary : float array -> summary
val pp_summary : Format.formatter -> summary -> unit

(** Log-scaled histogram for long-tailed positive samples (latencies).

    Bucket [i] covers [[lo * 2^i, lo * 2^{i+1})]; with the defaults (lo =
    1 ns, 64 buckets) the range spans nanoseconds to centuries, so a serving
    engine can record per-query latencies with one array increment and no
    per-sample allocation, then report p50/p95/p99 within a factor of
    [sqrt 2]. *)
module Log2_histogram : sig
  type t

  val create : ?lo:float -> ?buckets:int -> unit -> t
  (** [lo] defaults to 1e-9 (one nanosecond), [buckets] to 64.
      @raise Invalid_argument on a non-positive [lo] or bucket count. *)

  val add : t -> float -> unit
  (** Record a sample; values at or below [lo] land in bucket 0, values past
      the top bucket are clamped into it. *)

  val total : t -> int
  val mean : t -> float
  (** Exact mean of the recorded samples (0 when empty). *)

  val sum : t -> float
  (** Exact sum of the recorded samples. *)

  val counts : t -> int array

  val clear : t -> unit
  (** Forget every sample, keeping the shape (lo, bucket count). *)

  val merge : t -> t -> t
  (** Pointwise sum, for aggregating per-shard histograms into one snapshot.
      @raise Invalid_argument when the shapes differ. *)

  val quantile : t -> float -> float
  (** [quantile t q] is the geometric midpoint of the bucket holding the
      q-th sample — exact rank, bucket-resolution value.  0 when empty.
      @raise Invalid_argument for [q] outside [0, 1]. *)
end

(** Rolling-window histogram: a ring of {!Log2_histogram} slots, each
    covering a fixed span of wall time, so a live daemon can report
    "p99 over the last ~10 s" instead of since-boot aggregates.

    The caller supplies the clock ([now_ns]) on every operation, which keeps
    rotation deterministic under test.  Slots past the window are cleared
    lazily as the clock advances; a backwards clock step discards the whole
    window (two timelines must not mix); a forward jump larger than the
    window empties it. *)
module Windowed : sig
  type t

  type summary = {
    count : int;
    rate : float;  (** samples per second over the full window span *)
    mean : float;
    p50 : float;
    p99 : float;
    span_s : float;
  }

  val create :
    ?lo:float -> ?hist_buckets:int -> ?slots:int -> ?slot_ns:int -> unit -> t
  (** Defaults: 10 slots of 1 s each (a ~10 s rolling window), sample
      histograms shaped like {!Log2_histogram.create}'s defaults.
      @raise Invalid_argument on non-positive [slots] or [slot_ns]. *)

  val add : t -> now_ns:int -> float -> unit
  (** Record a sample at time [now_ns], rotating stale slots out first. *)

  val snapshot : t -> now_ns:int -> summary
  (** Aggregate over every live slot as of [now_ns]. *)

  val span_s : t -> float
  (** The window's full span in seconds (slots x slot width). *)
end

