(* Benches for the layers this repository adds around the paper's core:
   the Crowds searcher-anonymity layer and the garbled-circuit backend
   (Fairplay's own evaluation strategy) compared with GMW on traffic. *)

open Eppi_prelude

let anonymity () =
  Bench_util.heading "Searcher anonymity: Crowds forwarding layer (n=40, c=4 colluders)";
  let table =
    Table.create
      ~header:
        [
          "p_f";
          "mean path";
          "expected path";
          "predecessor confidence";
          "probable innocence?";
        ]
  in
  List.iter
    (fun pf ->
      let config = { Eppi_locator.Anonymity.members = 40; forward_probability = pf } in
      let rng = Rng.create 31 in
      let trials = 1500 in
      let hops = ref 0 in
      for _ = 1 to trials do
        let o = Eppi_locator.Anonymity.simulate_query rng config ~initiator:10 in
        hops := !hops + o.hops
      done;
      let conf =
        Eppi_locator.Anonymity.predecessor_confidence (Rng.create 32) config ~colluders:4
          ~trials:1500
      in
      Table.add_row table
        [
          Table.cell_float pf;
          Table.cell_float (float_of_int !hops /. float_of_int trials);
          Table.cell_float (Eppi_locator.Anonymity.expected_path_length ~forward_probability:pf);
          Table.cell_float conf;
          (if
             Eppi_locator.Anonymity.probable_innocence ~members:40 ~forward_probability:pf
               ~colluders:4
           then "yes"
           else "no");
        ])
    [ 0.0; 0.5; 0.6; 0.75; 0.9 ];
  Table.print table;
  Bench_util.note
    "higher forwarding probability buys lower predecessor confidence at the";
  Bench_util.note "price of longer paths (latency); pf <= 1/2 gives no guarantee at all"

let backends () =
  Bench_util.heading
    "MPC backend comparison: GMW vs garbled circuits (CountBelow, c = 2 coordinators)";
  let table =
    Table.create
      ~header:[ "identities"; "and gates"; "gmw bytes"; "gmw rounds"; "garbled bytes"; "rounds" ]
  in
  let compiled = Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.count_below ~c:2 ~q:1031) in
  let one = Eppi_circuit.Circuit.stats compiled.circuit in
  List.iter
    (fun n ->
      (* n identities: n comparators side by side, opened layer by layer. *)
      let stats : Eppi_circuit.Circuit.stats =
        {
          size = n * one.size;
          and_gates = n * one.and_gates;
          xor_gates = n * one.xor_gates;
          not_gates = n * one.not_gates;
          inputs = n * one.inputs;
          and_depth = one.and_depth;
        }
      in
      let outputs = n * Array.length (Eppi_circuit.Circuit.outputs compiled.circuit) in
      let gmw = Eppi_mpc.Gmw.comm_estimate ~parties:2 stats ~outputs in
      let evaluator_inputs = n * Eppi_circuit.Circuit.input_width compiled.circuit 1 in
      let garbled = Eppi_mpc.Garbled.comm_estimate stats ~evaluator_inputs in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int stats.and_gates;
          Table.cell_int gmw.bytes;
          Table.cell_int gmw.rounds;
          Table.cell_int (garbled.garbled_tables_bytes + garbled.label_transfer_bytes);
          "2";
        ])
    [ 1; 10; 100 ];
  Table.print table;
  Bench_util.note
    "the classic trade-off: garbled circuits ship ~32 bytes per AND but run in";
  Bench_util.note
    "constant rounds; GMW ships bits but pays a round per AND layer - on a WAN";
  Bench_util.note "the garbled (Fairplay) strategy wins, which is what the paper used"

let run () =
  anonymity ();
  backends ()
