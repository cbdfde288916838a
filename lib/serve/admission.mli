(** Admission control for the serving engine: a token-bucket rate limiter.

    The engine owns one bucket; a request either takes a token and proceeds
    or is shed with an explicit outcome (the engine reports every shed —
    nothing is silently dropped). *)

type config = {
  rate : float;  (** Token refill rate per second (> 0). *)
  burst : int;  (** Bucket capacity — the largest admissible burst (>= 1). *)
}

type t

val create : config -> t
(** A full bucket.  @raise Invalid_argument on a non-positive rate or
    burst. *)

val try_admit : t -> now:float -> bool
(** Refill from the elapsed time since the previous call (clamped at
    [burst]), then take one token if available.  [now] is an absolute
    timestamp in seconds; passing a manual clock makes tests deterministic.
    A [now] earlier than the previous call refills nothing. *)

val tokens : t -> float
(** Tokens currently available (before any refill). *)
