(** The CountBelow stage: generic MPC among the c coordinators
    (paper Algorithm 2 and Section IV-B.2).

    For every identity, the coordinators feed their SecSumShare outputs,
    and coordinator 0 the identity's public threshold, into one compiled
    {!Eppi_sfdl.Programs.count_below} comparator, which reconstructs the
    frequency {i inside the circuit}, compares it against the threshold,
    and reveals only: the common bit and the frequency of non-common
    identities (deemed non-sensitive by the paper's threat model — high
    frequency is what makes an identity attackable).  The count of common
    identities for the λ computation is counted from the revealed bits.

    The integer thresholds are derived from the β policy so that
    "frequency >= threshold" is {i exactly} "β* >= 1": the protocol and the
    centralized reference classify identities identically (tested). *)

open Eppi_prelude

type result = {
  common : bool array;
  frequencies : int option array;  (** [Some f] for non-common identities. *)
  n_common : int;
  circuit_stats : Eppi_circuit.Circuit.stats;
  comm : Eppi_mpc.Gmw.comm_stats;
  time : float;
      (** Simulated MPC execution time: the cost model's LAN estimate by
          default, or the emergent completion time when running over the
          simulated network (see [transport]). *)
  link : Link.report option;
      (** The reliability accounting of the simulated network run; [None]
          when the in-process engine ran. *)
}

(** [`Cost_model] opens each And layer in process, lane chunks on the pool,
    and prices the run with {!Eppi_mpc.Cost} on {!Eppi_mpc.Cost.lan};
    [`Simnet] opens each layer of every chunk in one broadcast round over
    the simulated network ({!Mpcnet}), so the time emerges from message
    passing. *)
type transport = [ `Cost_model | `Simnet ]

val integer_threshold : policy:Eppi.Policy.t -> epsilon:float -> m:int -> int
(** Smallest frequency count at which the policy's raw β reaches 1; [m + 1]
    when no frequency is common (ε = 0). *)

val run :
  ?transport:transport ->
  ?pool:Pool.t ->
  ?plan:Eppi_simnet.Simnet.fault_plan ->
  Rng.t ->
  shares:int array array ->
  q:Modarith.modulus ->
  thresholds:int array ->
  result
(** [shares] is the c x n coordinator matrix from {!Secsumshare};
    [thresholds.(j)] is the count above which identity j is common (values
    above [q - 1] are clamped to [q - 1], which is unreachable by any sum of
    memberships since q > m).

    One comparator per (c, q), compiled once per process, classifies every
    identity: identities 0 … n − 1 are cut into consecutive 63-lane
    {!Eppi_mpc.Bitslice} chunks, coordinator 0's input word for identity j
    being its share with the threshold above it.  The chunks run on [pool]
    (default {!Pool.sequential}) under [`Cost_model].  A fault [plan]
    implies [`Simnet], with {!Mpcnet}'s reliability layer on.  Each chunk
    draws from its own {!Rng.split} of [rng], so outputs and draws are the
    same for every transport, pool and plan the run completes under.
    [circuit_stats] and [comm] count n comparators, with the comparator's
    And depth as the depth.  A [countbelow.compile] trace span wraps the
    comparator lookup and a [gmw.execute] span the evaluation.
    @raise Invalid_argument on shape violations or zero identities.
    @raise Link.Stalled if the plan stalled the MPC; the report's
    [suspects] are the blamed coordinators. *)
