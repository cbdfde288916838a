(** Execution-time model for the MPC engine.

    The paper justifies its scalability claims through two quantities: the
    compiled circuit size ("the circuit size determines the execution time",
    Section V-B) and the number of parties in the generic-MPC part.  This
    module turns those quantities into simulated seconds so the Fig. 6
    experiments can be regenerated.  The model is

    {v time = setup * p  +  pairwise * p^2            (session setup, keys)
            + cpu_gate * size                          (local evaluation)
            + crypto_and * and_gates * p               (per-gate crypto work)
            + rounds * latency + bytes / bandwidth     (network)            v}

    Constants are calibrated so that a 3-party CountBelow run lands near one
    second, the scale FairplayMP reports; only the *shape* of the resulting
    curves is meant to be compared with the paper (see EXPERIMENTS.md). *)

open Eppi_circuit

type network = { latency : float; bandwidth : float }

val lan : network
(** Emulab-like LAN: 0.5 ms latency, 100 MB/s. *)

type params = {
  setup_per_party : float;
  setup_per_pair : float;
  cpu_per_gate : float;
  crypto_per_and : float;
}

val default_params : params

val estimate :
  ?params:params -> network:network -> parties:int -> outputs:int -> Circuit.stats -> float
(** Simulated wall-clock seconds for one execution of a circuit with the
    given shape among [parties] parties. *)
