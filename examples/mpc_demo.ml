(* The secure construction machinery, end to end and piece by piece:

   1. SecSumShare over the simulated provider network (Figure 3's example);
   2. the CountBelow SFDL program, compiled and run under multi-party GMW;
   3. the full distributed e-PPI construction with its performance metrics;
   4. the pure-MPC baseline for contrast.

   Run with: dune exec examples/mpc_demo.exe *)

open Eppi_prelude

let () =
  print_endline "=== Secure construction demo ===\n";

  (* --- 1. SecSumShare: the paper's Figure 3 worked example. --- *)
  print_endline "[1] SecSumShare (5 providers, c = 3, q = 5, one identity)";
  let q5 = Modarith.modulus 5 in
  (* One identity (row) held by providers 1 and 2 of five (columns). *)
  let membership = Bitmatrix.create ~rows:1 ~cols:5 in
  List.iter (fun col -> Bitmatrix.set membership ~row:0 ~col true) [ 1; 2 ];
  let sss = Eppi_protocol.Secsumshare.run (Rng.create 42) ~membership ~c:3 ~q:q5 in
  Array.iteri
    (fun r vec -> Printf.printf "    coordinator %d holds share vector [%d]\n" r vec.(0))
    sss.coordinator_shares;
  let sums = Eppi_protocol.Secsumshare.reconstruct ~q:q5 sss.coordinator_shares in
  Printf.printf "    reconstructed frequency: %d (true: 2)\n" sums.(0);
  Printf.printf "    network: %d messages, %d bytes, %.2f ms simulated\n\n"
    sss.net.messages_sent sss.net.bytes_sent (sss.net.completion_time *. 1000.0);

  (* --- 2. CountBelow in SFDL, compiled to a circuit, run under GMW. --- *)
  print_endline "[2] CountBelow: SFDL source -> Boolean circuit -> GMW MPC";
  let src = Eppi_sfdl.Programs.count_below ~c:3 ~q:11 in
  print_string (String.concat "\n" (List.map (fun l -> "    | " ^ l)
    (String.split_on_char '\n' (String.trim src))));
  print_newline ();
  let compiled = Eppi_sfdl.Compile.compile_source src in
  let stats = Eppi_circuit.Circuit.stats compiled.circuit in
  Format.printf "    compiled (one identity): %a@." Eppi_circuit.Circuit.pp_stats stats;
  (* Share three secret frequencies among the coordinators and classify
     each against its public threshold, which coordinator 0 feeds. *)
  let rng = Rng.create 7 in
  let q11 = Modarith.modulus 11 in
  let freqs = [| 7; 1; 9 |] and thresholds = [| 5; 2; 9 |] in
  let n_common = ref 0 in
  Array.iteri
    (fun j f ->
      let sh = Eppi_secretshare.Additive.share rng ~q:q11 ~c:3 f in
      let mpc_inputs =
        Eppi_sfdl.Compile.encode_inputs compiled
          [
            ("s0", Eppi_sfdl.Compile.Dint sh.(0));
            ("s1", Eppi_sfdl.Compile.Dint sh.(1));
            ("s2", Eppi_sfdl.Compile.Dint sh.(2));
            ("t", Eppi_sfdl.Compile.Dint thresholds.(j));
          ]
      in
      let mpc = Eppi_mpc.Gmw.execute rng compiled.circuit ~inputs:mpc_inputs in
      match Eppi_sfdl.Compile.decode_outputs compiled mpc.outputs with
      | [ ("common", Dbool c); ("freq", Dint released) ] ->
          if c then incr n_common;
          Printf.printf
            "    identity %d: true freq %d, threshold %d -> common=%b, released=%d \
             (GMW: %d rounds, %d bytes)\n"
            j f thresholds.(j) c released mpc.comm.rounds mpc.comm.bytes
      | _ -> print_endline "    unexpected output shape")
    freqs;
  Printf.printf "    common count (drives lambda): %d\n\n" !n_common;

  (* --- 3. Full distributed construction over the simulated network. --- *)
  print_endline "[3] full distributed e-PPI construction (20 providers, 12 identities)";
  let m = 20 and n = 12 in
  let rng = Rng.create 13 in
  let membership = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    let f = if j = 0 then m else 1 + Rng.int rng 5 in
    let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
    Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen
  done;
  let epsilons = Array.make n 0.5 in
  let r =
    Eppi_protocol.Construct.run (Rng.create 17) ~membership ~epsilons
      ~policy:(Eppi.Policy.Chernoff 0.9)
  in
  Printf.printf "    identity 0 (ubiquitous) flagged common: %b\n" r.common.(0);
  Printf.printf "    lambda = %.4f, xi = %.2f\n" r.lambda r.xi;
  let mt = r.metrics in
  Printf.printf
    "    simulated time: SecSumShare %.4fs + MPC %.4fs + publication %.6fs = %.4fs\n"
    mt.secsumshare_time mt.mpc_time mt.publication_time mt.total_time;
  Printf.printf "    traffic: %d messages, %d bytes; MPC circuit size %d\n\n" mt.messages
    mt.bytes mt.circuit_stats.size;

  (* --- 4. The pure-MPC baseline for contrast. --- *)
  print_endline "[4] pure-MPC baseline (whole beta pipeline inside the circuit)";
  let bits = Array.init 9 (fun i -> i < 3) in
  let pure = Eppi_protocol.Purempc.run (Rng.create 19) ~bits ~epsilon:0.5 ~gamma:0.9 in
  Printf.printf "    9 providers, frequency 3: circuit beta = %.4f (float reference %.4f)\n"
    pure.beta
    (Eppi_protocol.Purempc.reference_beta ~m:9 ~count:3 ~epsilon:0.5 ~gamma:0.9);
  Printf.printf "    per-identity circuit: %d gates (%d AND) vs CountBelow's %d (%d AND)\n"
    pure.circuit_stats.size pure.circuit_stats.and_gates stats.size stats.and_gates;
  (* e-PPI's beta phase over the same 9 providers, run end to end. *)
  let one = Bitmatrix.create ~rows:1 ~cols:9 in
  Array.iteri (fun i b -> if b then Bitmatrix.set one ~row:0 ~col:i true) bits;
  let eppi =
    (Eppi_protocol.Construct.run (Rng.create 23) ~membership:one ~epsilons:[| 0.5 |]
       ~policy:(Eppi.Policy.Chernoff 0.9))
      .metrics
  in
  Printf.printf "    estimated time at 9 parties: %.2fs vs e-PPI's %.2fs\n"
    (Eppi_protocol.Purempc.estimate_time ~m:9 ~identities:1 ~epsilon:0.5 ~gamma:0.9 ())
    (eppi.secsumshare_time +. eppi.mpc_time)
