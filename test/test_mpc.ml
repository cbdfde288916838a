(* Tests for the GMW runtime: agreement with plaintext evaluation (including
   randomized circuits), communication accounting, the secrecy of opened
   values, and the cost model's monotonicity. *)

open Eppi_prelude
open Eppi_circuit
open Eppi_mpc
module B = Circuit.Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let millionaires_compiled width = Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.millionaires ~width)

let test_gmw_matches_plaintext_millionaires () =
  let compiled = millionaires_compiled 8 in
  let rng = Rng.create 1 in
  List.iter
    (fun (a, b) ->
      let inputs =
        Eppi_sfdl.Compile.encode_inputs compiled
          [ ("a", Eppi_sfdl.Compile.Dint a); ("b", Eppi_sfdl.Compile.Dint b) ]
      in
      let plain = Circuit.eval compiled.circuit ~inputs in
      let secure = Gmw.execute rng compiled.circuit ~inputs in
      Alcotest.(check (array bool)) (Printf.sprintf "outputs for (%d, %d)" a b) plain secure.outputs)
    [ (3, 7); (7, 3); (255, 255); (0, 0); (128, 127) ]

let test_gmw_three_party_sum () =
  let compiled = Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.sum3 ~width:8) in
  let rng = Rng.create 2 in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      [
        ("x0", Eppi_sfdl.Compile.Dint 11);
        ("x1", Eppi_sfdl.Compile.Dint 22);
        ("x2", Eppi_sfdl.Compile.Dint 33);
      ]
  in
  let secure = Gmw.execute rng compiled.circuit ~inputs in
  let outputs = Eppi_sfdl.Compile.decode_outputs compiled secure.outputs in
  (match Eppi_sfdl.Compile.lookup_output outputs "total" with
  | Eppi_sfdl.Compile.Dint v -> check_int "sum" 66 v
  | _ -> Alcotest.fail "bad shape")

let random_circuit rng ~parties ~gates =
  (* A random DAG of gates over a few input bits per party. *)
  let b = B.create ~n_parties:parties () in
  let wires = ref [] in
  for p = 0 to parties - 1 do
    for _ = 1 to 3 do
      wires := B.input b ~party:p :: !wires
    done
  done;
  let pick () =
    let l = !wires in
    List.nth l (Rng.int rng (List.length l))
  in
  for _ = 1 to gates do
    let w =
      match Rng.int rng 4 with
      | 0 -> B.and_ b (pick ()) (pick ())
      | 1 -> B.xor_ b (pick ()) (pick ())
      | 2 -> B.or_ b (pick ()) (pick ())
      | _ -> B.not_ b (pick ())
    in
    wires := w :: !wires
  done;
  List.iteri (fun i w -> if i < 8 then B.output b w) !wires;
  B.finish b

let test_gmw_random_circuits () =
  let rng = Rng.create 3 in
  for round = 1 to 25 do
    let parties = 2 + Rng.int rng 4 in
    let circuit = random_circuit rng ~parties ~gates:40 in
    let inputs = Array.init parties (fun _ -> Array.init 3 (fun _ -> Rng.bool rng)) in
    let plain = Circuit.eval circuit ~inputs in
    let secure = Gmw.execute rng circuit ~inputs in
    Alcotest.(check (array bool)) (Printf.sprintf "random circuit %d" round) plain secure.outputs
  done

let test_gmw_missing_input_rejected () =
  let compiled = millionaires_compiled 4 in
  let rng = Rng.create 4 in
  Alcotest.check_raises "short input" (Invalid_argument "Gmw.execute: missing input bit")
    (fun () -> ignore (Gmw.execute rng compiled.circuit ~inputs:[| [| true |]; [| true |] |]))

let test_gmw_comm_accounting () =
  let compiled = millionaires_compiled 8 in
  let rng = Rng.create 5 in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      [ ("a", Eppi_sfdl.Compile.Dint 5); ("b", Eppi_sfdl.Compile.Dint 9) ]
  in
  let result = Gmw.execute rng compiled.circuit ~inputs in
  let stats = Circuit.stats compiled.circuit in
  let estimate =
    Gmw.comm_estimate ~parties:2 stats ~outputs:(Array.length (Circuit.outputs compiled.circuit))
  in
  check_int "rounds agree" estimate.rounds result.comm.rounds;
  check_int "messages agree" estimate.messages result.comm.messages;
  check_int "bytes agree" estimate.bytes result.comm.bytes;
  check_int "rounds = input + layers + output" (stats.and_depth + 2) result.comm.rounds

let test_gmw_comm_scales_with_parties () =
  let stats =
    Circuit.stats
      (let b = B.create ~n_parties:2 () in
       let x = B.input b ~party:0 and y = B.input b ~party:1 in
       B.output b (B.and_ b x y);
       B.finish b)
  in
  let c2 = Gmw.comm_estimate ~parties:2 stats ~outputs:1 in
  let c8 = Gmw.comm_estimate ~parties:8 stats ~outputs:1 in
  check_bool "more parties, more messages" true (c8.messages > c2.messages);
  check_bool "more parties, more bytes" true (c8.bytes > c2.bytes)

(* Input sharing costs one message per ordered party pair, like every
   And layer and the output round, so a circuit with inputs sends
   p(p-1) messages per round; its bits travel packed 8 to a byte.  A
   circuit without inputs has no input round to pay for. *)
let test_gmw_comm_messages_per_round () =
  let stats = Circuit.stats (millionaires_compiled 8).circuit in
  List.iter
    (fun p ->
      let c = Gmw.comm_estimate ~parties:p stats ~outputs:1 in
      check_int
        (Printf.sprintf "%d parties: p(p-1) messages a round" p)
        (p * (p - 1) * (stats.and_depth + 2))
        c.messages;
      check_int
        (Printf.sprintf "%d parties: packed bytes" p)
        (((stats.inputs * (p - 1)) + 7) / 8
        + (((2 * stats.and_gates * p * (p - 1)) + 7) / 8)
        + (p * (p - 1)))
        c.bytes)
    [ 2; 3; 5 ];
  let constant =
    Circuit.stats
      (let b = B.create ~n_parties:3 () in
       B.output b (B.and_ b (B.const b true) (B.const b false));
       B.finish b)
  in
  let c = Gmw.comm_estimate ~parties:3 constant ~outputs:1 in
  check_int "no inputs, no input messages" (6 * (constant.and_depth + 1)) c.messages

let test_gmw_views_shapes () =
  let compiled = millionaires_compiled 4 in
  let rng = Rng.create 6 in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      [ ("a", Eppi_sfdl.Compile.Dint 3); ("b", Eppi_sfdl.Compile.Dint 12) ]
  in
  let result = Gmw.execute rng compiled.circuit ~inputs in
  check_int "one view per party" 2 (Array.length result.views);
  let stats = Circuit.stats compiled.circuit in
  Array.iter
    (fun (v : Gmw.view) ->
      check_int "view covers all wires" (Circuit.num_wires compiled.circuit)
        (Bitvec.length v.wire_shares);
      check_int "one opening pair per and gate" stats.and_gates (Array.length v.opened))
    result.views

let test_gmw_openings_secret_independent () =
  (* The opened (d, e) values are one-time-pad masked: their distribution
     must not depend on the inputs.  Compare the rate of 1s across two very
     different input settings over many runs. *)
  let compiled = millionaires_compiled 6 in
  let ones_rate value =
    let rng = Rng.create 777 in
    let inputs =
      Eppi_sfdl.Compile.encode_inputs compiled
        [ ("a", Eppi_sfdl.Compile.Dint value); ("b", Eppi_sfdl.Compile.Dint (63 - value)) ]
    in
    let total = ref 0 and ones = ref 0 in
    for _ = 1 to 400 do
      let result = Gmw.execute rng compiled.circuit ~inputs in
      Array.iter
        (fun (d, e) ->
          total := !total + 2;
          if d then incr ones;
          if e then incr ones)
        result.views.(0).opened
    done;
    float_of_int !ones /. float_of_int !total
  in
  let r0 = ones_rate 0 and r63 = ones_rate 63 in
  check_bool "opened bits ~uniform (all zeros input)" true (Float.abs (r0 -. 0.5) < 0.02);
  check_bool "opened bits ~uniform (all ones input)" true (Float.abs (r63 -. 0.5) < 0.02);
  check_bool "distributions agree across inputs" true (Float.abs (r0 -. r63) < 0.03)

let test_gmw_output_deterministic_across_randomness () =
  (* Different protocol randomness must never change the function value. *)
  let compiled = millionaires_compiled 8 in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      [ ("a", Eppi_sfdl.Compile.Dint 200); ("b", Eppi_sfdl.Compile.Dint 100) ]
  in
  let reference = (Gmw.execute (Rng.create 1) compiled.circuit ~inputs).outputs in
  for seed = 2 to 40 do
    let result = Gmw.execute (Rng.create seed) compiled.circuit ~inputs in
    Alcotest.(check (array bool)) (Printf.sprintf "seed %d" seed) reference result.outputs
  done

(* ---------- bit-sliced engine ---------- *)

(* Open every layer of a chunk in process, handing each layer's opened
   words to [see] before closing it: the engine's local driver, unrolled. *)
let open_all ~see chunk =
  for l = 0 to Bitslice.depth chunk - 1 do
    let opened = Array.make (2 * Bitslice.layer_ands chunk l) 0 in
    for i = 0 to Bitslice.parties chunk - 1 do
      Bitslice.contribute chunk ~party:i ~layer:l opened
    done;
    see opened;
    Bitslice.finish chunk ~layer:l opened
  done

let test_bitslice_random_circuits () =
  (* Random circuits over 2-5 parties, 63 lanes of random 3-bit inputs:
     every lane's outputs equal plaintext evaluation and Gmw.execute. *)
  let rng = Rng.create 3 in
  for round = 1 to 25 do
    let parties = 2 + Rng.int rng 4 in
    let circuit = random_circuit rng ~parties ~gates:40 in
    let lanes = Bitslice.max_lanes in
    let values = Array.init parties (fun _ -> Array.init lanes (fun _ -> Rng.int rng 8)) in
    let chunk =
      Bitslice.deal rng (Bitslice.schedule circuit) ~inputs:values ~pos:0 ~lanes
    in
    let out = Bitslice.evaluate chunk in
    for k = 0 to lanes - 1 do
      let inputs =
        Array.init parties (fun p -> Array.init 3 (fun b -> (values.(p).(k) lsr b) land 1 = 1))
      in
      let plain = Circuit.eval circuit ~inputs in
      let what = Printf.sprintf "random circuit %d, lane %d" round k in
      Alcotest.(check (array bool)) what plain (Array.map (fun w -> Bitslice.lane w k) out);
      Alcotest.(check (array bool)) what (Gmw.execute rng circuit ~inputs).outputs plain
    done
  done

let test_bitslice_openings_secret_independent () =
  (* The opened (d, e) words are one-time-pad masked lane by lane.  In
     chunks whose even lanes compare (0, 63) and odd lanes (63, 0), both
     kinds of lane open ~uniform bits at the same rate. *)
  let compiled = millionaires_compiled 6 in
  let sched = Bitslice.schedule compiled.circuit in
  let lanes = Bitslice.max_lanes in
  let a = Array.init lanes (fun k -> if k mod 2 = 0 then 0 else 63) in
  let values = [| a; Array.map (fun v -> 63 - v) a |] in
  let ones = Array.make 2 0 and total = Array.make 2 0 in
  let rng = Rng.create 777 in
  for _ = 1 to 40 do
    open_all
      ~see:
        (Array.iter (fun w ->
             for k = 0 to lanes - 1 do
               total.(k mod 2) <- total.(k mod 2) + 1;
               if Bitslice.lane w k then ones.(k mod 2) <- ones.(k mod 2) + 1
             done))
      (Bitslice.deal rng sched ~inputs:values ~pos:0 ~lanes)
  done;
  let rate k = float_of_int ones.(k) /. float_of_int total.(k) in
  check_bool "opened bits ~uniform (lanes comparing 0, 63)" true (Float.abs (rate 0 -. 0.5) < 0.02);
  check_bool "opened bits ~uniform (lanes comparing 63, 0)" true (Float.abs (rate 1 -. 0.5) < 0.02);
  check_bool "distributions agree across inputs" true (Float.abs (rate 0 -. rate 1) < 0.03)

(* ---------- garbled circuits ---------- *)

let test_garbled_matches_plaintext () =
  let compiled = millionaires_compiled 8 in
  let rng = Rng.create 61 in
  List.iter
    (fun (a, b) ->
      let inputs =
        Eppi_sfdl.Compile.encode_inputs compiled
          [ ("a", Eppi_sfdl.Compile.Dint a); ("b", Eppi_sfdl.Compile.Dint b) ]
      in
      let plain = Circuit.eval compiled.circuit ~inputs in
      let garbled = Garbled.execute rng compiled.circuit ~inputs in
      Alcotest.(check (array bool)) (Printf.sprintf "(%d, %d)" a b) plain garbled.outputs)
    [ (3, 7); (7, 3); (255, 255); (0, 0); (128, 127); (1, 0) ]

let test_garbled_matches_gmw () =
  (* The two MPC backends must compute the same function. *)
  let compiled = Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.count_below ~c:2 ~q:13) in
  let rng = Rng.create 62 in
  let q = Eppi_prelude.Modarith.modulus 13 in
  for _ = 1 to 60 do
    let shares = Eppi_secretshare.Additive.share rng ~q ~c:2 (Rng.int rng 13) in
    let inputs =
      Eppi_sfdl.Compile.encode_inputs compiled
        [
          ("s0", Eppi_sfdl.Compile.Dint shares.(0));
          ("s1", Eppi_sfdl.Compile.Dint shares.(1));
          ("t", Eppi_sfdl.Compile.Dint (Rng.int rng 13));
        ]
    in
    let garbled = Garbled.execute rng compiled.circuit ~inputs in
    let gmw = Gmw.execute rng compiled.circuit ~inputs in
    Alcotest.(check (array bool)) "backends agree" gmw.outputs garbled.outputs
  done

let test_garbled_random_circuits () =
  let rng = Rng.create 63 in
  for round = 1 to 25 do
    let circuit = random_circuit rng ~parties:2 ~gates:40 in
    let inputs = Array.init 2 (fun _ -> Array.init 3 (fun _ -> Rng.bool rng)) in
    let plain = Circuit.eval circuit ~inputs in
    let garbled = Garbled.execute rng circuit ~inputs in
    Alcotest.(check (array bool)) (Printf.sprintf "random circuit %d" round) plain garbled.outputs
  done

let test_garbled_rejects_many_parties () =
  let compiled = Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.sum3 ~width:4) in
  let rng = Rng.create 64 in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      [
        ("x0", Eppi_sfdl.Compile.Dint 1);
        ("x1", Eppi_sfdl.Compile.Dint 2);
        ("x2", Eppi_sfdl.Compile.Dint 3);
      ]
  in
  Alcotest.check_raises "3 parties rejected"
    (Invalid_argument "Garbled.execute: at most two parties (garbler and evaluator)")
    (fun () -> ignore (Garbled.execute rng compiled.circuit ~inputs))

let test_garbled_comm_accounting () =
  let compiled = millionaires_compiled 8 in
  let rng = Rng.create 65 in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      [ ("a", Eppi_sfdl.Compile.Dint 3); ("b", Eppi_sfdl.Compile.Dint 5) ]
  in
  let r = Garbled.execute rng compiled.circuit ~inputs in
  let stats = Circuit.stats compiled.circuit in
  let estimate = Garbled.comm_estimate stats ~evaluator_inputs:8 in
  check_int "tables" estimate.garbled_tables_bytes r.comm.garbled_tables_bytes;
  check_int "labels" estimate.label_transfer_bytes r.comm.label_transfer_bytes;
  check_int "ot per evaluator bit" 8 r.comm.ot_count;
  check_int "4 rows per and gate" (4 * 8 * stats.and_gates) r.comm.garbled_tables_bytes

let test_garbled_labels_hide_garbler_input () =
  (* The evaluator's view (active labels) must be distributed independently
     of the garbler's input: compare the mean low-bit rate across two
     opposite garbler inputs over many garblings. *)
  let compiled = millionaires_compiled 6 in
  let rate a_value =
    let rng = Rng.create 777 in
    let inputs =
      Eppi_sfdl.Compile.encode_inputs compiled
        [ ("a", Eppi_sfdl.Compile.Dint a_value); ("b", Eppi_sfdl.Compile.Dint 21) ]
    in
    let ones = ref 0 and total = ref 0 in
    for _ = 1 to 300 do
      let r = Garbled.execute rng compiled.circuit ~inputs in
      Array.iter
        (fun label ->
          incr total;
          if Int64.logand label 1L = 1L then incr ones)
        r.evaluator_labels
    done;
    float_of_int !ones /. float_of_int !total
  in
  let r0 = rate 0 and r63 = rate 63 in
  check_bool "labels ~uniform" true (Float.abs (r0 -. 0.5) < 0.02);
  check_bool "distribution input-independent" true (Float.abs (r0 -. r63) < 0.03)

let test_garbled_deterministic_function () =
  (* Different garbling randomness never changes the computed outputs. *)
  let compiled = millionaires_compiled 8 in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      [ ("a", Eppi_sfdl.Compile.Dint 100); ("b", Eppi_sfdl.Compile.Dint 200) ]
  in
  let reference = (Garbled.execute (Rng.create 1) compiled.circuit ~inputs).outputs in
  for seed = 2 to 30 do
    let r = Garbled.execute (Rng.create seed) compiled.circuit ~inputs in
    Alcotest.(check (array bool)) (Printf.sprintf "seed %d" seed) reference r.outputs
  done

(* ---------- cost model ---------- *)

let count_below_stats ~c ~q =
  let compiled = Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.count_below ~c ~q) in
  (Circuit.stats compiled.circuit, Array.length (Circuit.outputs compiled.circuit))

let test_cost_monotone_in_parties () =
  let stats, outputs = count_below_stats ~c:3 ~q:11 in
  let t3 = Cost.estimate ~network:Cost.lan ~parties:3 ~outputs stats in
  let t9 = Cost.estimate ~network:Cost.lan ~parties:9 ~outputs stats in
  check_bool "positive" true (t3 > 0.0);
  check_bool "monotone in parties" true (t9 > t3)

let test_cost_monotone_in_circuit () =
  (* A wider modulus compiles a wider comparator. *)
  let s1, o1 = count_below_stats ~c:3 ~q:11 in
  let s2, o2 = count_below_stats ~c:3 ~q:1031 in
  check_bool "wider comparator, more gates" true (s2.and_gates > s1.and_gates);
  let t1 = Cost.estimate ~network:Cost.lan ~parties:3 ~outputs:o1 s1 in
  let t2 = Cost.estimate ~network:Cost.lan ~parties:3 ~outputs:o2 s2 in
  check_bool "bigger circuit costs more" true (t2 > t1)

let test_cost_network_sensitivity () =
  let stats, outputs = count_below_stats ~c:3 ~q:11 in
  let lan = Cost.estimate ~network:Cost.lan ~parties:3 ~outputs stats in
  let wan =
    Cost.estimate ~network:{ latency = 0.05; bandwidth = 1_000_000.0 } ~parties:3 ~outputs stats
  in
  check_bool "slower network costs more" true (wan > lan)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"gmw agrees with plaintext on random millionaires" ~count:60
      (triple small_int (int_range 0 255) (int_range 0 255))
      (fun (seed, a, b) ->
        let compiled = millionaires_compiled 8 in
        let inputs =
          Eppi_sfdl.Compile.encode_inputs compiled
            [ ("a", Eppi_sfdl.Compile.Dint a); ("b", Eppi_sfdl.Compile.Dint b) ]
        in
        let rng = Rng.create seed in
        (Gmw.execute rng compiled.circuit ~inputs).outputs
        = Circuit.eval compiled.circuit ~inputs);
  ]

let () =
  Alcotest.run "mpc"
    [
      ( "gmw",
        [
          Alcotest.test_case "matches plaintext (millionaires)" `Quick
            test_gmw_matches_plaintext_millionaires;
          Alcotest.test_case "three-party sum" `Quick test_gmw_three_party_sum;
          Alcotest.test_case "random circuits" `Quick test_gmw_random_circuits;
          Alcotest.test_case "missing input rejected" `Quick test_gmw_missing_input_rejected;
          Alcotest.test_case "comm accounting" `Quick test_gmw_comm_accounting;
          Alcotest.test_case "comm scales with parties" `Quick test_gmw_comm_scales_with_parties;
          Alcotest.test_case "comm messages per round" `Quick test_gmw_comm_messages_per_round;
          Alcotest.test_case "views shapes" `Quick test_gmw_views_shapes;
          Alcotest.test_case "openings secret-independent" `Quick
            test_gmw_openings_secret_independent;
          Alcotest.test_case "output deterministic across randomness" `Quick
            test_gmw_output_deterministic_across_randomness;
        ] );
      ( "bitslice",
        [
          Alcotest.test_case "random circuits" `Quick test_bitslice_random_circuits;
          Alcotest.test_case "openings secret-independent" `Quick
            test_bitslice_openings_secret_independent;
        ] );
      ( "garbled",
        [
          Alcotest.test_case "matches plaintext" `Quick test_garbled_matches_plaintext;
          Alcotest.test_case "matches gmw" `Quick test_garbled_matches_gmw;
          Alcotest.test_case "random circuits" `Quick test_garbled_random_circuits;
          Alcotest.test_case "rejects many parties" `Quick test_garbled_rejects_many_parties;
          Alcotest.test_case "comm accounting" `Quick test_garbled_comm_accounting;
          Alcotest.test_case "labels hide garbler input" `Quick
            test_garbled_labels_hide_garbler_input;
          Alcotest.test_case "function deterministic" `Quick
            test_garbled_deterministic_function;
        ] );
      ( "cost",
        [
          Alcotest.test_case "monotone in parties" `Quick test_cost_monotone_in_parties;
          Alcotest.test_case "monotone in circuit size" `Quick test_cost_monotone_in_circuit;
          Alcotest.test_case "network sensitivity" `Quick test_cost_network_sensitivity;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
