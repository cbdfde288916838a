(* Cross-library integration tests: full pipelines from dataset generation
   through secure construction, attack evaluation, and search. *)

open Eppi_prelude

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The full effectiveness pipeline at laptop scale: generate a network,
   construct with each policy, evaluate the paper's success-ratio metric. *)
let test_dataset_to_success_ratio () =
  let rng = Rng.create 1 in
  let dataset = Eppi_dataset.Dataset.generate rng ~providers:2000 ~owners:300 in
  let dataset = Eppi_dataset.Dataset.uniform_epsilons rng dataset in
  List.iter
    (fun (policy, minimum) ->
      let r =
        Eppi.Construct.run (Rng.create 2) ~membership:dataset.membership
          ~epsilons:dataset.epsilons ~policy
      in
      let ratio =
        Eppi.Metrics.success_ratio ~membership:dataset.membership
          ~published:(Eppi.Index.matrix r.index) ~epsilons:dataset.epsilons
      in
      check_bool
        (Printf.sprintf "%s ratio %f >= %f" (Eppi.Policy.name policy) ratio minimum)
        true (ratio >= minimum))
    [ (Eppi.Policy.Chernoff 0.9, 0.9); (Eppi.Policy.Inc_exp 0.01, 0.5) ]

(* Non-grouping beats grouping on the same dataset (the Fig. 4 claim). *)
let test_eppi_beats_grouping () =
  let rng = Rng.create 3 in
  let dataset = Eppi_dataset.Dataset.generate rng ~providers:1000 ~owners:200 in
  let dataset = Eppi_dataset.Dataset.constant_epsilons dataset 0.8 in
  let eppi =
    Eppi.Construct.run (Rng.create 4) ~membership:dataset.membership
      ~epsilons:dataset.epsilons ~policy:(Eppi.Policy.Chernoff 0.9)
  in
  let eppi_ratio =
    Eppi.Metrics.success_ratio ~membership:dataset.membership
      ~published:(Eppi.Index.matrix eppi.index) ~epsilons:dataset.epsilons
  in
  let _, grouping_index =
    Eppi_grouping.Grouping.construct (Rng.create 5) ~membership:dataset.membership ~groups:200
  in
  let grouping_ratio =
    Eppi.Metrics.success_ratio ~membership:dataset.membership
      ~published:(Eppi.Index.matrix grouping_index) ~epsilons:dataset.epsilons
  in
  check_bool
    (Printf.sprintf "eppi %f > grouping %f" eppi_ratio grouping_ratio)
    true (eppi_ratio > grouping_ratio)

(* Distributed construction produces an index with the same statistical
   privacy as the centralized one. *)
let test_secure_path_statistical_agreement () =
  let m = 40 and n = 20 in
  let rng = Rng.create 6 in
  let membership = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    let f = 1 + Rng.int rng 10 in
    let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
    Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen
  done;
  let epsilons = Array.init n (fun _ -> Rng.float rng 0.8) in
  let policy = Eppi.Policy.Chernoff 0.9 in
  let secure = Eppi_protocol.Construct.run (Rng.create 7) ~membership ~epsilons ~policy in
  let central = Eppi.Construct.run (Rng.create 8) ~membership ~epsilons ~policy in
  Alcotest.(check (array bool)) "same common sets" central.common secure.common;
  for j = 0 to n - 1 do
    check_bool "secure recall" true (Eppi.Index.recall_ok ~membership secure.index ~owner:j);
    check_bool "central recall" true (Eppi.Index.recall_ok ~membership central.index ~owner:j)
  done

(* Common-identity attack end-to-end: e-PPI with mixing bounds the
   attacker's confidence; a frequency-revealing baseline does not. *)
let test_common_identity_attack_end_to_end () =
  let m = 40 in
  let n_rare = 200 in
  let membership = Bitmatrix.create ~rows:(n_rare + 1) ~cols:m in
  for p = 0 to m - 1 do
    Bitmatrix.set membership ~row:0 ~col:p true
  done;
  let rng = Rng.create 9 in
  for j = 1 to n_rare do
    Bitmatrix.set membership ~row:j ~col:(Rng.int rng m) true
  done;
  let epsilons = Array.make (n_rare + 1) 0.75 in
  let r =
    Eppi.Construct.run (Rng.create 10) ~membership ~epsilons ~policy:Eppi.Policy.Basic
  in
  let threshold = Eppi.Policy.sigma_threshold Eppi.Policy.Basic ~epsilon:0.75 ~m in
  let attack =
    Eppi.Attack.common_identity_attack ~membership
      ~published:(Eppi.Index.matrix r.index) ~sigma_threshold:threshold
  in
  (* Mixing targets attacker confidence <= 1 - xi = 0.25; allow statistical
     slack since lambda draws are random. *)
  check_bool
    (Printf.sprintf "confidence %f bounded" attack.confidence)
    true (attack.confidence <= 0.45);
  check_bool "suspects include decoys" true (List.length attack.suspected > 1)

(* The full HIE story: locator service over a generated network, search with
   authorization, 100% recall, bounded attacker confidence. *)
let test_locator_end_to_end () =
  let providers = 30 and owners = 10 in
  let t = Eppi_locator.Locator.create ~providers ~owners in
  let rng = Rng.create 11 in
  let truth = Array.make_matrix owners providers false in
  for owner = 0 to owners - 1 do
    let visits = 1 + Rng.int rng 4 in
    let chosen = Rng.sample_without_replacement rng ~k:visits ~n:providers in
    Array.iter
      (fun p ->
        truth.(owner).(p) <- true;
        Eppi_locator.Locator.delegate t ~owner ~epsilon:0.6 ~provider:p
          ~body:(Printf.sprintf "owner%d@provider%d" owner p))
      chosen
  done;
  Eppi_locator.Locator.construct_ppi t ~policy:(Eppi.Policy.Chernoff 0.9);
  for owner = 0 to owners - 1 do
    let outcome =
      Eppi_locator.Locator.search t ~searcher:(Printf.sprintf "owner:%d" owner) ~owner
    in
    let found = List.map fst outcome.records |> List.sort compare in
    let expected =
      List.init providers Fun.id |> List.filter (fun p -> truth.(owner).(p))
    in
    Alcotest.(check (list int)) (Printf.sprintf "owner %d finds all records" owner) expected found
  done

(* MPC stack consistency: the SFDL-compiled CountBelow evaluated under GMW
   inside the protocol equals a direct plaintext computation of the same
   classification. *)
let test_mpc_stack_consistency () =
  let m = 15 and n = 8 in
  let rng = Rng.create 12 in
  let membership = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    let f = Rng.int rng (m + 1) in
    let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
    Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen
  done;
  let epsilons = Array.init n (fun j -> 0.1 +. (0.8 *. float_of_int j /. float_of_int n)) in
  let policy = Eppi.Policy.Inc_exp 0.02 in
  let secure = Eppi_protocol.Construct.run (Rng.create 13) ~membership ~epsilons ~policy in
  for j = 0 to n - 1 do
    let f = Bitmatrix.row_count membership j in
    let expected =
      Eppi.Policy.is_common policy
        ~sigma:(float_of_int f /. float_of_int m)
        ~epsilon:epsilons.(j) ~m
    in
    check_bool (Printf.sprintf "identity %d classified correctly" j) expected secure.common.(j)
  done

(* Search-cost growth with epsilon (the tech-report experiment, in vitro). *)
let test_search_cost_grows_with_epsilon () =
  let cost epsilon =
    let t = Eppi_locator.Locator.create ~providers:400 ~owners:1 in
    Eppi_locator.Locator.delegate t ~owner:0 ~epsilon ~provider:3 ~body:"r";
    Eppi_locator.Locator.construct_ppi ~seed:21 t ~policy:(Eppi.Policy.Chernoff 0.9);
    match Eppi_locator.Locator.query_ppi_result t ~owner:0 with
    | Ok providers -> List.length providers
    | Error Eppi_locator.Locator.No_index -> Alcotest.fail "index just constructed"
  in
  let c_low = cost 0.1 and c_high = cost 0.9 in
  check_bool (Printf.sprintf "cost %d < %d" c_low c_high) true (c_low < c_high)

(* Dataset CSV roundtrip feeding construction: persistence workflow. *)
let test_persistence_workflow () =
  let rng = Rng.create 14 in
  let dataset = Eppi_dataset.Dataset.generate rng ~providers:100 ~owners:50 in
  let dataset = Eppi_dataset.Dataset.uniform_epsilons rng dataset in
  let csv = Eppi_dataset.Dataset.to_csv dataset in
  let reloaded = Eppi_dataset.Dataset.of_csv csv in
  let a =
    Eppi.Construct.run (Rng.create 15) ~membership:dataset.membership
      ~epsilons:dataset.epsilons ~policy:Eppi.Policy.Basic
  in
  let b =
    Eppi.Construct.run (Rng.create 15) ~membership:reloaded.membership
      ~epsilons:reloaded.epsilons ~policy:Eppi.Policy.Basic
  in
  check_bool "identical construction after roundtrip" true
    (Bitmatrix.equal (Eppi.Index.matrix a.index) (Eppi.Index.matrix b.index));
  check_int "same commons"
    (Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 a.common)
    (Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 b.common)

(* End-to-end secure construction over a LOSSY network: the reliability
   layer keeps the index correct. *)
let test_secure_construction_over_lossy_network () =
  let m = 15 and n = 6 in
  let rng = Rng.create 20 in
  let membership = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    let f = 1 + Rng.int rng 6 in
    let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
    Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen
  done;
  let epsilons = Array.make n 0.5 in
  let sss_plan =
    {
      Eppi_simnet.Simnet.no_faults with
      fault_seed = 11;
      default_link = { Eppi_simnet.Simnet.perfect_link with drop = 0.25 };
    }
  in
  let r =
    match
      Eppi_protocol.Construct.run_ft ~sss_plan (Rng.create 21) ~membership ~epsilons
        ~policy:Eppi.Policy.Basic
    with
    | Complete (r, rep) ->
        check_bool "loss was injected" true (rep.sss_retransmissions > 0);
        r
    | Degraded _ | Failed _ -> Alcotest.fail "loss alone must be masked"
  in
  for j = 0 to n - 1 do
    check_bool "recall despite loss" true (Eppi.Index.recall_ok ~membership r.index ~owner:j);
    let f = Bitmatrix.row_count membership j in
    let expected =
      Eppi.Policy.is_common Eppi.Policy.Basic
        ~sigma:(float_of_int f /. float_of_int m)
        ~epsilon:0.5 ~m
    in
    check_bool "classification exact despite loss" true (r.common.(j) = expected)
  done

(* PIR via SFDL secret indexing, executed under the garbled-circuit backend:
   the full front-to-back stack for a two-party private lookup. *)
let test_garbled_pir_roundtrip () =
  let pir_src =
    {|program pir;
party server;
party client;
input table : uint<8>[8] of server;
input want : uint<4> of client;
output value : uint<8>;
main { value = table[want]; }
|}
  in
  let compiled = Eppi_sfdl.Compile.compile_source pir_src in
  let table = Array.init 8 (fun i -> (i * 31) mod 256) in
  for want = 0 to 9 do
    let values =
      [ ("table", Eppi_sfdl.Compile.Dints table); ("want", Eppi_sfdl.Compile.Dint want) ]
    in
    let inputs = Eppi_sfdl.Compile.encode_inputs compiled values in
    let garbled = Eppi_mpc.Garbled.execute (Rng.create (want + 1)) compiled.circuit ~inputs in
    let interp = Eppi_sfdl.Interp.run_source pir_src ~inputs:values in
    (match
       ( Eppi_sfdl.Compile.decode_outputs compiled garbled.outputs,
         Eppi_sfdl.Compile.lookup_output interp "value" )
     with
    | [ ("value", Eppi_sfdl.Compile.Dint got) ], Eppi_sfdl.Compile.Dint expected ->
        check_int (Printf.sprintf "pir[%d]" want) expected got;
        check_int "semantics" (if want < 8 then table.(want) else 0) got
    | _ -> Alcotest.fail "bad shapes")
  done

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "dataset to success ratio" `Slow test_dataset_to_success_ratio;
          Alcotest.test_case "eppi beats grouping" `Slow test_eppi_beats_grouping;
          Alcotest.test_case "secure path agreement" `Quick
            test_secure_path_statistical_agreement;
          Alcotest.test_case "common-identity attack end to end" `Quick
            test_common_identity_attack_end_to_end;
          Alcotest.test_case "locator end to end" `Quick test_locator_end_to_end;
          Alcotest.test_case "mpc stack consistency" `Quick test_mpc_stack_consistency;
          Alcotest.test_case "search cost grows with epsilon" `Quick
            test_search_cost_grows_with_epsilon;
          Alcotest.test_case "persistence workflow" `Quick test_persistence_workflow;
          Alcotest.test_case "secure construction over lossy network" `Quick
            test_secure_construction_over_lossy_network;
          Alcotest.test_case "garbled PIR roundtrip" `Quick test_garbled_pir_roundtrip;
        ] );
    ]
