(** Monotonic wall clock, nanosecond resolution.

    Latency histograms need to resolve lookups of a few hundred nanoseconds,
    span timestamps must never go backwards, and benchmark walls must not
    jump under NTP; [Unix.gettimeofday] fails all three, so this wraps
    [clock_gettime(CLOCK_MONOTONIC)] directly.  Allocation-free. *)

val monotonic_ns : unit -> int
(** Nanoseconds from an arbitrary fixed origin; never goes backwards. *)

val seconds : unit -> float
(** {!monotonic_ns} scaled to seconds — the default coarse clock. *)

val periodic :
  ?now:(unit -> float) ->
  sleep:(float -> unit) ->
  interval:float ->
  ?iterations:int ->
  (int -> bool) ->
  unit
(** [periodic ~sleep ~interval f] runs [f 1], [f 2], … on a drift-free
    cadence: tick [k] fires at absolute deadline [t0 + (k-1) * interval]
    (measured on [now], default {!seconds}), so the time [f] spends
    working is absorbed by that tick's own sleep instead of accumulating
    — a 0.3 s body on a 1 s interval sleeps 0.7 s, and a tick that
    overruns its slot just skips its sleep.  Stops when [f] returns
    [false] or after [iterations] ticks (default: forever).  [sleep] is a
    parameter (not [Unix.sleepf]) because this library does not link
    unix; pass [Unix.sleepf] from daemons, a fake from tests.
    @raise Invalid_argument on a non-positive [interval] or
    [iterations]. *)
