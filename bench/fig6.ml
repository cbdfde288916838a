(* Figure 6: performance of the index construction protocol — the
   MPC-reduced e-PPI protocol against the Pure-MPC baseline.

   6a: execution time vs number of parties (3..9), single identity;
   6b: compiled circuit size vs number of parties (3..61), single identity;
   6c: execution time vs number of identities (1..1000), 3-party network.

   Times are simulated seconds from the cost model over an Emulab-like LAN
   (see DESIGN.md); shapes, not absolute values, are the comparison target:
   Pure-MPC grows superlinearly in both parties and identities, e-PPI stays
   flat/slow-growing because its generic-MPC part is pinned to c = 3
   coordinators and a small per-identity circuit. *)

open Eppi_prelude

let epsilon = 0.5
let gamma = 0.9
let c = 3

(* e-PPI beta-phase time measured by actually running the distributed
   protocol (SecSumShare over simnet + CountBelow).  [transport] selects
   the cost-model estimate or the network-emergent MPC time. *)
let eppi_time ?transport ~m ~identities () =
  let rng = Rng.create (100 + m + identities) in
  let freqs = Array.init identities (fun j -> 1 + (j mod m)) in
  let membership = Bench_util.matrix_of_frequencies rng ~m ~freqs in
  let epsilons = Array.make identities epsilon in
  let r =
    Eppi_protocol.Construct.run ?transport (Rng.create 61) ~membership ~epsilons
      ~policy:(Eppi.Policy.Chernoff gamma)
  in
  r.metrics.secsumshare_time +. r.metrics.mpc_time

let fig6a () =
  Bench_util.heading
    "Figure 6a: execution time vs number of parties (single identity, c=3)";
  let table =
    Table.create
      ~header:[ "parties"; "e-PPI (s)"; "e-PPI emergent (s)"; "Pure-MPC (s)" ]
  in
  List.iter
    (fun m ->
      let eppi = eppi_time ~m ~identities:1 () in
      let emergent = eppi_time ~transport:`Simnet ~m ~identities:1 () in
      let pure = Eppi_protocol.Purempc.estimate_time ~m ~identities:1 ~epsilon ~gamma () in
      Table.add_row table
        [
          Table.cell_int m;
          Table.cell_float eppi;
          Table.cell_float emergent;
          Table.cell_float pure;
        ])
    [ 3; 4; 5; 6; 7; 8; 9 ];
  Table.print table;
  Bench_util.note "paper shape: pure-MPC superlinear; e-PPI flat/slow-growing";
  Bench_util.note
    "(the emergent column runs the MPC round-by-round over the simulated LAN)"

(* The comparator CountBelow runs once per identity. *)
let eppi_circuit_size ~m =
  let q = Modarith.to_int (Eppi_protocol.Construct.modulus_for m) in
  let compiled = Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.count_below ~c ~q) in
  (Eppi_circuit.Circuit.stats compiled.circuit).size

let fig6b () =
  Bench_util.heading "Figure 6b: compiled circuit size vs number of parties (single identity)";
  let table = Table.create ~header:[ "parties"; "e-PPI gates"; "Pure-MPC gates" ] in
  List.iter
    (fun m ->
      let eppi = eppi_circuit_size ~m in
      let pure = (Eppi_protocol.Purempc.stats_for ~m ~identities:1 ~epsilon ~gamma).size in
      Table.add_row table [ Table.cell_int m; Table.cell_int eppi; Table.cell_int pure ])
    [ 3; 11; 21; 31; 41; 51; 61 ];
  Table.print table;
  Bench_util.note "paper shape: pure-MPC grows linearly with a large slope; e-PPI's MPC";
  Bench_util.note "is pinned to c=3 coordinators so its circuit grows only with log q"

let fig6c () =
  Bench_util.heading "Figure 6c: execution time vs number of identities (3-party network)";
  let table = Table.create ~header:[ "identities"; "e-PPI (s)"; "Pure-MPC (s)" ] in
  List.iter
    (fun identities ->
      let eppi = eppi_time ~m:3 ~identities () in
      let pure = Eppi_protocol.Purempc.estimate_time ~m:3 ~identities ~epsilon ~gamma () in
      Table.add_row table
        [ Table.cell_int identities; Table.cell_float eppi; Table.cell_float pure ])
    [ 1; 10; 100; 1000 ];
  Table.print table;
  Bench_util.note
    "paper shape: both grow with identities, pure-MPC at a much steeper slope";
  Bench_util.note
    "(its per-identity circuit carries the whole Eq. 5 fixed-point pipeline)"

let run () =
  fig6a ();
  fig6b ();
  fig6c ()
