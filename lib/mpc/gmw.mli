(** Semi-honest multi-party evaluation of Boolean circuits over XOR-shared
    bits (GMW style).

    A gate-at-a-time interpreter over one instance.  The tests check
    {!Bitslice}, the engine CountBelow runs, against it, and the Pure-MPC
    baseline runs on it.  GMW is the repository's stand-in for FairplayMP's
    generic MPC engine (see DESIGN.md).  Every wire value is held
    as an XOR-sharing across the parties.  Not/Xor/Const gates are evaluated
    locally for free; each And gate consumes one Beaver multiplication triple
    and requires every party to broadcast two masked bits, so the
    communication cost is [2 * and_gates * p * (p-1)] bits spread over
    [and_depth] rounds.  Triples are produced by a trusted dealer — the
    simulation artefact standing in for FairplayMP's offline phase; the
    online protocol is the standard one.

    Correctness (output equals plaintext {!Eppi_circuit.Circuit.eval}) and
    secrecy (opened masked bits are uniform and carry no input information)
    are both checked by the test suite. *)

open Eppi_prelude
open Eppi_circuit

type comm_stats = {
  rounds : int;  (** Communication rounds: input + AND layers + output. *)
  messages : int;
  bytes : int;
}

(** What one party saw during the protocol: its own wire shares plus the
    publicly opened masked values.  Used by the secrecy tests.  Shares are
    bit-packed ({!Eppi_prelude.Bitvec}, one bit per wire) so a party's view
    of a wide circuit costs wires/8 bytes rather than a word per wire. *)
type view = {
  party : int;
  wire_shares : Bitvec.t;
  opened : (bool * bool) array;  (** (d, e) openings, one per And gate in gate order. *)
}

type result = {
  outputs : bool array;
  comm : comm_stats;
  views : view array;
}

val execute : Rng.t -> Circuit.t -> inputs:bool array array -> result
(** [execute rng circuit ~inputs] runs the protocol among
    [Circuit.num_parties circuit] parties; [inputs.(p)] holds party [p]'s
    private input bits.  The [rng] drives share and triple sampling only —
    outputs are deterministic given the inputs.
    @raise Invalid_argument if an input vector is shorter than the party's
    declared input width. *)

val comm_estimate : parties:int -> Circuit.stats -> outputs:int -> comm_stats
(** Closed-form communication accounting for a circuit of the given shape,
    identical to what {!execute} reports; usable without running the
    protocol (the benchmark harness extrapolates large instances this
    way). *)
