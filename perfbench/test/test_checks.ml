(* Each benchmark check must fire on the input it exists to reject: a
   wrong row, a reply whose generation does not match its content, and a
   broken conservation identity. *)

open Eppi_prelude
module Checks = Perfbench.Checks
module Serve = Eppi_serve.Serve

let index_of rows ~m =
  let b = Bitmatrix.create ~rows:(Array.length rows) ~cols:m in
  Array.iteri (fun j ps -> List.iter (fun p -> Bitmatrix.set b ~row:j ~col:p true) ps) rows;
  Eppi.Index.of_matrix b

(* Two generations whose owner 1 differs. *)
let gen_a = index_of [| [ 0; 2 ]; [ 1; 3; 4 ]; [] |] ~m:6
let gen_b = index_of [| [ 0; 2 ]; [ 1; 5 ]; [ 4 ] |] ~m:6

let gens () =
  let g = Checks.Generations.create () in
  Checks.Generations.add g 1 (Checks.Expect.of_index gen_a);
  Checks.Generations.add g 2 (Checks.Expect.of_index gen_b);
  g

let is_correct = function Checks.Correct -> true | _ -> false
let is_wrong = function Checks.Wrong _ -> true | _ -> false
let is_failed = function Checks.Failed _ -> true | _ -> false

let exact g ~owner ~generation reply = Checks.check_exact g ~owner ~generation reply

let test_row_ok () =
  let e = Checks.Expect.of_index gen_a in
  Alcotest.(check bool) "exact row" true (Checks.Expect.row_ok e ~owner:1 [ 1; 3; 4 ]);
  Alcotest.(check bool) "missing provider" false (Checks.Expect.row_ok e ~owner:1 [ 1; 3 ]);
  Alcotest.(check bool) "extra provider" false (Checks.Expect.row_ok e ~owner:1 [ 1; 2; 3; 4 ]);
  Alcotest.(check bool) "swapped provider" false (Checks.Expect.row_ok e ~owner:1 [ 1; 3; 5 ]);
  Alcotest.(check bool) "unsorted" false (Checks.Expect.row_ok e ~owner:1 [ 3; 1; 4 ]);
  Alcotest.(check bool) "duplicate" false (Checks.Expect.row_ok e ~owner:1 [ 1; 1; 3 ]);
  Alcotest.(check bool) "empty row" true (Checks.Expect.row_ok e ~owner:2 [])

let test_wrong_row () =
  let g = gens () in
  Alcotest.(check bool) "right row" true
    (is_correct (exact g ~owner:1 ~generation:1 (Serve.Providers [ 1; 3; 4 ])));
  Alcotest.(check bool) "wrong row" true
    (is_wrong (exact g ~owner:1 ~generation:1 (Serve.Providers [ 1; 3 ])))

let test_generation_mismatch () =
  let g = gens () in
  (* Generation 2's row, labelled generation 1. *)
  Alcotest.(check bool) "content of another generation" true
    (is_wrong (exact g ~owner:1 ~generation:1 (Serve.Providers [ 1; 5 ])));
  Alcotest.(check bool) "same content, right label" true
    (is_correct (exact g ~owner:1 ~generation:2 (Serve.Providers [ 1; 5 ])));
  Alcotest.(check bool) "never-published generation" true
    (is_wrong (exact g ~owner:0 ~generation:7 (Serve.Providers [ 0; 2 ])))

let test_unknown_and_shed () =
  let g = gens () in
  Alcotest.(check bool) "unknown owner is unknown" true
    (is_correct (exact g ~owner:3 ~generation:1 Serve.Unknown_owner));
  Alcotest.(check bool) "in-range owner reported unknown" true
    (is_failed (exact g ~owner:2 ~generation:1 Serve.Unknown_owner));
  Alcotest.(check bool) "rows for an unknown owner" true
    (is_wrong (exact g ~owner:3 ~generation:1 (Serve.Providers [])));
  Alcotest.(check bool) "shed" true
    (is_failed (exact g ~owner:0 ~generation:1 Serve.Shed_rate_limit))

let test_fuzzy () =
  let g = gens () in
  let candidates cs =
    Serve.Candidates
      (List.map (fun (owner, providers) -> { Serve.owner; score = 0.9; providers }) cs)
  in
  let fuzzy ~generation ~truth reply = Checks.check_fuzzy g ~generation ~truth reply in
  let verdict, hit = fuzzy ~generation:2 ~truth:1 (candidates [ (1, [ 1; 5 ]); (0, [ 0; 2 ]) ]) in
  Alcotest.(check bool) "right candidates" true (is_correct verdict && hit);
  let verdict, hit = fuzzy ~generation:2 ~truth:2 (candidates [ (0, [ 0; 2 ]) ]) in
  Alcotest.(check bool) "recall miss is no error" true (is_correct verdict && not hit);
  let verdict, _ = fuzzy ~generation:1 ~truth:1 (candidates [ (1, [ 1; 5 ]) ]) in
  Alcotest.(check bool) "candidate row of another generation" true (is_wrong verdict);
  let verdict, _ = fuzzy ~generation:1 ~truth:1 Serve.No_resolver in
  Alcotest.(check bool) "reject" true (is_failed verdict)

let test_codec_roundtrip () =
  Alcotest.(check bool) "round trip" true (Checks.codec_roundtrip_ok gen_b)

let counts ~queries ~served =
  {
    Checks.queries;
    served;
    unknown = 2;
    shed = 1;
    fuzzy_queries = 5;
    fuzzy_answered = 4;
    fuzzy_rejected = 1;
    fuzzy_shed = 0;
  }

let all_hold = List.for_all Checks.holds

let test_replica_conservation () =
  Alcotest.(check bool) "balanced" true
    (all_hold (Checks.replica_identities "r" (counts ~queries:10 ~served:7)));
  Alcotest.(check bool) "a lost query" false
    (all_hold (Checks.replica_identities "r" (counts ~queries:10 ~served:6)))

let test_cluster_conservation () =
  let c = [ counts ~queries:10 ~served:7; counts ~queries:4 ~served:1 ] in
  Alcotest.(check bool) "sent = received" true
    (all_hold (Checks.cluster_identities ~exact_sent:14 ~fuzzy_sent:10 ~failovers:0 c));
  Alcotest.(check bool) "one query unaccounted" false
    (all_hold (Checks.cluster_identities ~exact_sent:15 ~fuzzy_sent:10 ~failovers:0 c));
  Alcotest.(check int) "not asserted across a failover" 0
    (List.length (Checks.cluster_identities ~exact_sent:15 ~fuzzy_sent:10 ~failovers:1 c))

let test_stage_and_layer_conservation () =
  Alcotest.(check bool) "stages telescope" true
    (Checks.holds (Checks.stage_identity "s" ~stage_sum_ns:1000 ~total_ns:1000));
  Alcotest.(check bool) "a nanosecond missing" false
    (Checks.holds (Checks.stage_identity "s" ~stage_sum_ns:999 ~total_ns:1000));
  Alcotest.(check bool) "layers within tolerance" true
    (Checks.holds (Checks.layer_identity "e" ~wall:1.0 ~parts:[ 0.5; 0.48 ] ~tolerance:0.05));
  Alcotest.(check bool) "a layer missing" false
    (Checks.holds (Checks.layer_identity "e" ~wall:1.0 ~parts:[ 0.5; 0.3 ] ~tolerance:0.05))

let test_stats_reply () =
  let m = Eppi_serve.Metrics.create () in
  List.iter (fun f -> f m)
    Eppi_serve.Metrics.[ incr_queries; incr_served; incr_queries; incr_unknown ];
  let json = Json.parse_exn (Eppi_serve.Metrics.to_json (Eppi_serve.Metrics.snapshot [ m ])) in
  let c = Checks.replica_counts_of_stats json in
  Alcotest.(check (list int)) "fields" [ 2; 1; 1; 0 ] [ c.queries; c.served; c.unknown; c.shed ];
  Alcotest.(check bool) "balanced" true (all_hold (Checks.replica_identities "r" c))

let () =
  Alcotest.run "perfbench"
    [
      ( "oracle",
        [
          Alcotest.test_case "row check" `Quick test_row_ok;
          Alcotest.test_case "wrong row rejected" `Quick test_wrong_row;
          Alcotest.test_case "generation/content mismatch rejected" `Quick test_generation_mismatch;
          Alcotest.test_case "unknown owners and shed" `Quick test_unknown_and_shed;
          Alcotest.test_case "fuzzy candidates" `Quick test_fuzzy;
          Alcotest.test_case "codec round trip" `Quick test_codec_roundtrip;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "per replica" `Quick test_replica_conservation;
          Alcotest.test_case "over the cluster" `Quick test_cluster_conservation;
          Alcotest.test_case "stages and layers" `Quick test_stage_and_layer_conservation;
          Alcotest.test_case "stats reply" `Quick test_stats_reply;
        ] );
    ]
