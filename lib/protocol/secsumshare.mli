(** The SecSumShare protocol (paper Section IV-B, Figure 3).

    Given m providers each holding a private membership bit per identity,
    the protocol produces c share vectors, held by c coordinator providers,
    whose element-wise sum mod q equals the per-identity count of set bits
    — without any party learning anything beyond its own inputs (collusion
    below c reveals nothing; Theorem 4.1).

    The four steps, run over the simulated network with all identities
    batched into one message per edge:

    + {b Generate}: provider i splits each private bit into c additive
      shares, all n·(c-1) draws in one {!Rng.fill_below} call
      ({!Eppi_secretshare.Additive.share_bits});
    + {b Distribute}: the k-th share goes to the k-th ring successor
      p_((i+k) mod m); the 0-th stays local;
    + {b Sum}: each provider adds the shares it received into a
      super-share vector;
    + {b Aggregate}: provider i sends its super-shares to coordinator
      (i mod c); coordinator r accumulates them into the output vector
      s(r, ·).

    Requires m >= c >= 2.

    Share vectors, accumulators, super-shares and the coordinators' sums are
    packed residues ({!Eppi_secretshare.Additive.vector}: 2 bytes each when
    q <= 2^16, else 4), so the per-residue loops run inside {!Additive}
    without a call per residue.  The simulated wire charges a message what
    its vector holds: {!Eppi_secretshare.Additive.width} bytes a residue
    plus a 16-byte envelope.

    Fault handling is an input, not a second protocol: given a
    {!Eppi_simnet.Simnet.fault_plan}, every message goes through the
    {!Link} reliability layer and a timeout failure detector watches the
    ring; without one the run is the bare protocol on a perfect network. *)

open Eppi_prelude

type result = {
  coordinator_shares : int array array;  (** c x n: s(r, ·). *)
  net : Eppi_simnet.Simnet.metrics;
  link : Link.report;
      (** Reliability accounting; its [protocol_time] is the stage's
          completion time. *)
}

val run :
  ?plan:Eppi_simnet.Simnet.fault_plan ->
  Rng.t ->
  membership:Bitmatrix.t ->
  c:int ->
  q:Modarith.modulus ->
  result
(** [membership] is owner-major: provider i's private input is column i,
    one bit per identity (row).  The columns are transposed out once, into
    one packed byte buffer, before the network starts.

    Under a [plan], providers check for missing shares 0.25 s into the run
    and coordinators for missing super-shares at 0.5 s.  A provider short
    of shares blames exactly the ring predecessors whose vectors are
    missing and is reported [stalled]; a coordinator blames the providers
    whose super-share is missing unless they were themselves stalled.  The
    reliability layer resends after 10 ms, backing off x2 up to 80 ms, 25
    times before blaming the destination.  Protocol randomness is split per
    provider before the network starts, so a completed run returns the
    coordinator shares of the fault-free run.
    @raise Invalid_argument if [c < 2], [m < c] or there are no rows.
    @raise Link.Stalled if some coordinator never received every expected
    super-share; the report's [suspects] are the blamed providers. *)

val reconstruct : q:Modarith.modulus -> int array array -> int array
(** Element-wise sum of the coordinator share vectors — the plain sums the
    protocol secretly computes.  Exposed for tests and for the CountBelow
    stage's reference path. *)
