open Eppi_circuit

type network = { latency : float; bandwidth : float }

let lan = { latency = 0.0005; bandwidth = 100_000_000.0 }

type params = {
  setup_per_party : float;
  setup_per_pair : float;
  cpu_per_gate : float;
  crypto_per_and : float;
}

(* Calibrated against the magnitudes FairplayMP reports: a 3-party run of a
   ~100-AND circuit costs on the order of a second, dominated by session
   setup and per-gate cryptography rather than raw bandwidth. *)
let default_params =
  {
    setup_per_party = 0.08;
    setup_per_pair = 0.055;
    cpu_per_gate = 0.000002;
    crypto_per_and = 0.0017;
  }

let estimate ?(params = default_params) ~network ~parties ~outputs (stats : Circuit.stats) =
  let p = float_of_int parties in
  let comm = Gmw.comm_estimate ~parties stats ~outputs in
  params.setup_per_party *. p
  +. (params.setup_per_pair *. p *. p)
  +. (params.cpu_per_gate *. float_of_int stats.size *. p)
  +. (params.crypto_per_and *. float_of_int stats.and_gates *. p)
  +. (float_of_int comm.rounds *. network.latency)
  +. (float_of_int comm.bytes /. network.bandwidth)
