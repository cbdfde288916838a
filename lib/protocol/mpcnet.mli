(** The {!Eppi_mpc.Bitslice} engine's network driver (docs/PERF.md §3).
    Each party is a {!Eppi_simnet.Simnet} node.  Round l is one broadcast
    per party of its masked words for layer l of every chunk; a last round
    opens the outputs at party 0.  A round charges every party
    {!Eppi_mpc.Cost}'s [crypto_per_and] per live lane-And ([cpu_per_gate]
    per live lane-output in the last round) and its message carries 2 bits
    per live lane-And (1 per lane-output) plus a 16-byte envelope, so the
    time {i emerges} from the network model.  Under a
    {!Eppi_simnet.Simnet.fault_plan} messages go through {!Link} and a
    per-round deadline blames missing parties; the chunks are dealt before
    the network exists, so a run that completes has the fault-free
    outputs. *)

open Eppi_mpc

type result = {
  outputs : int array array;
      (** Per chunk, one word per circuit output: lane k's value is bit k. *)
  rounds : int;  (** Broadcast rounds: one per And layer plus the output round. *)
  net : Eppi_simnet.Simnet.metrics;
  link : Link.report;
      (** Reliability accounting; its [protocol_time] is the emergent
          completion time of the protocol. *)
}

val execute : ?plan:Eppi_simnet.Simnet.fault_plan -> Bitslice.chunk array -> result
(** Evaluate the chunks together; they must share their number of parties.
    Under a [plan], a party still missing contributions to a round 0.25 s
    after entering it blames the missing parties, and the reliability layer
    resends after 5 ms, backing off x2 up to 80 ms, 12 times before blaming
    the destination.
    @raise Invalid_argument on no chunks, chunks with different numbers of
    parties, or fewer than 2 parties.
    @raise Link.Stalled if the run could not complete; the report's
    [suspects] are the blamed parties. *)
