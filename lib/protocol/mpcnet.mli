(** GMW executed over the simulated network, round by round.

    {!Eppi_mpc.Gmw.execute} evaluates the protocol in-process and reports
    closed-form communication statistics; the Fig. 6 experiments then price
    those with the {!Eppi_mpc.Cost} model.  This module instead {i runs} the
    protocol on {!Eppi_simnet.Simnet}: each party is a network node holding
    XOR shares, every AND layer is a broadcast round of masked bits, and the
    execution time {i emerges} from the latency/bandwidth/compute model
    rather than being estimated.  The test suite uses it to validate both
    the functional agreement with the in-process engine and the cost
    model's round structure (measured rounds = AND depth + output round).

    Beaver triples are pre-distributed by the dealer before time zero, as
    in the in-process engine (the offline phase is out of scope).

    Given a {!Eppi_simnet.Simnet.fault_plan}, every protocol message goes
    through the {!Link} reliability layer and a per-round timeout failure
    detector watches the parties; without one the run is the bare protocol
    on a perfect network.  Because the dealer draws all randomness before
    the network exists, a run that completes under a plan produces outputs
    bit-identical to the fault-free run with the same rng. *)

open Eppi_prelude
open Eppi_circuit

type result = {
  outputs : bool array;
  rounds : int;  (** Broadcast rounds: one per AND layer plus the output round. *)
  net : Eppi_simnet.Simnet.metrics;
  link : Link.report;
      (** Reliability accounting; its [protocol_time] is the emergent
          completion time of the protocol. *)
}

val execute :
  ?plan:Eppi_simnet.Simnet.fault_plan -> Rng.t -> Circuit.t -> inputs:bool array array -> result
(** Under a [plan], a party still missing contributions to a round 0.25 s
    after entering it blames the missing parties, and the reliability layer
    resends after 5 ms, backing off x2 up to 80 ms, 12 times before blaming
    the destination.
    @raise Invalid_argument on missing input bits or fewer than 2 parties.
    @raise Link.Stalled if the run could not complete; the report's
    [suspects] are the blamed parties. *)
