(* Tests for the synthetic information-network generator. *)

open Eppi_prelude
open Eppi_dataset

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_dataset seed = Dataset.generate (Rng.create seed) ~providers:200 ~owners:100

let test_dimensions () =
  let d = small_dataset 1 in
  check_int "providers" 200 d.providers;
  check_int "owners" 100 d.owners;
  check_int "matrix rows" 100 (Bitmatrix.rows d.membership);
  check_int "matrix cols" 200 (Bitmatrix.cols d.membership);
  check_int "epsilons" 100 (Array.length d.epsilons)

let test_every_owner_present () =
  let d = small_dataset 2 in
  for j = 0 to d.owners - 1 do
    check_bool (Printf.sprintf "owner %d has records" j) true (Dataset.frequency d j >= 1)
  done

let test_frequency_cap () =
  let profile = { Dataset.default_profile with max_rare_frequency = 10 } in
  let d = Dataset.generate ~profile (Rng.create 3) ~providers:500 ~owners:200 in
  for j = 0 to d.owners - 1 do
    check_bool "within cap" true (Dataset.frequency d j <= 10)
  done

let test_zipf_shape () =
  (* Frequency 1 must be the modal frequency of a Zipf profile, with a
     substantial share of all owners. *)
  let d = Dataset.generate (Rng.create 4) ~providers:1000 ~owners:2000 in
  let counts = Hashtbl.create 64 in
  for j = 0 to d.owners - 1 do
    let f = Dataset.frequency d j in
    Hashtbl.replace counts f (1 + Option.value ~default:0 (Hashtbl.find_opt counts f))
  done;
  let singletons = Option.value ~default:0 (Hashtbl.find_opt counts 1) in
  check_bool "singleton share substantial" true (float_of_int singletons /. 2000.0 > 0.12);
  Hashtbl.iter
    (fun f c ->
      if f <> 1 then
        check_bool (Printf.sprintf "frequency 1 modal vs %d" f) true (c <= singletons))
    counts

let test_planted_commons () =
  let profile =
    { Dataset.default_profile with common_fraction = 0.05; common_min_sigma = 0.9 }
  in
  let d = Dataset.generate ~profile (Rng.create 5) ~providers:100 ~owners:100 in
  (* The first 5% of owners are planted common. *)
  for j = 0 to 4 do
    check_bool (Printf.sprintf "owner %d common" j) true (Dataset.sigma d j >= 0.9)
  done;
  check_bool "tail owners are rare" true (Dataset.sigma d 50 < 0.9)

let test_sigma_consistency () =
  let d = small_dataset 6 in
  for j = 0 to 20 do
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "sigma %d" j)
      (float_of_int (Dataset.frequency d j) /. 200.0)
      (Dataset.sigma d j)
  done

let test_member_agrees_with_matrix () =
  let d = small_dataset 7 in
  let count = ref 0 in
  for j = 0 to d.owners - 1 do
    for p = 0 to d.providers - 1 do
      if Dataset.member d ~provider:p ~owner:j then incr count
    done
  done;
  let total = Array.init d.owners (fun j -> Dataset.frequency d j) |> Array.fold_left ( + ) 0 in
  check_int "member matches frequency totals" total !count

let test_epsilon_helpers () =
  let d = small_dataset 8 in
  let u = Dataset.uniform_epsilons (Rng.create 9) d in
  Array.iter (fun e -> check_bool "uniform in range" true (e >= 0.0 && e < 1.0)) u.epsilons;
  let c = Dataset.constant_epsilons d 0.8 in
  Array.iter (fun e -> check_bool "constant" true (e = 0.8)) c.epsilons;
  let v = Dataset.vip_epsilons (Rng.create 10) d ~vip_fraction:0.1 ~vip_epsilon:0.95 ~base_epsilon:0.3 in
  let vips = Array.fold_left (fun acc e -> if e = 0.95 then acc + 1 else acc) 0 v.epsilons in
  check_int "vip count" 10 vips;
  Alcotest.check_raises "bad epsilon" (Invalid_argument "Dataset: epsilon out of [0, 1]")
    (fun () -> ignore (Dataset.with_epsilons d (Array.make d.owners 1.5)))

let test_with_epsilons_copies () =
  let d = small_dataset 11 in
  let eps = Array.make d.owners 0.25 in
  let d2 = Dataset.with_epsilons d eps in
  eps.(0) <- 0.9;
  Alcotest.(check (float 0.0)) "defensive copy" 0.25 d2.epsilons.(0)

let test_exact_frequency_owner () =
  let d = small_dataset 12 in
  (match Dataset.exact_frequency_owner d ~frequency:1 with
  | Some j -> check_int "found owner has that frequency" 1 (Dataset.frequency d j)
  | None -> Alcotest.fail "a Zipf dataset always has singletons");
  check_bool "impossible frequency" true (Dataset.exact_frequency_owner d ~frequency:9999 = None)

let test_csv_roundtrip () =
  let d =
    Dataset.with_epsilons (small_dataset 13)
      (Array.init 100 (fun j -> float_of_int j /. 100.0))
  in
  let d2 = Dataset.of_csv (Dataset.to_csv d) in
  check_int "providers" d.providers d2.providers;
  check_int "owners" d.owners d2.owners;
  check_bool "membership equal" true (Bitmatrix.equal d.membership d2.membership);
  Array.iteri
    (fun j e -> check_bool (Printf.sprintf "eps %d" j) true (Float.abs (e -. d2.epsilons.(j)) < 1e-6))
    d.epsilons

let test_csv_rejects_garbage () =
  Alcotest.check_raises "empty" (Failure "Dataset.of_csv: bad header") (fun () ->
      ignore (Dataset.of_csv "nonsense"))

(* A header past the matrix budget fails before anything is allocated,
   and a paper-scale header (25,000 providers x 4,000 owners) loads. *)
let test_csv_budget () =
  let before = Gc.allocated_bytes () in
  Alcotest.check_raises "10^9 x 10^9"
    (Failure "Dataset.of_csv: matrix 1000000000x1000000000 exceeds 8589934592 cells") (fun () ->
      ignore (Dataset.of_csv "# providers=1000000000 owners=1000000000\nm,0,0\n"));
  let bytes = Gc.allocated_bytes () -. before in
  check_bool (Printf.sprintf "allocated %.0f bytes" bytes) true (bytes < 65536.0);
  let d = Dataset.of_csv "# providers=25000 owners=4000\nm,3999,24999\n" in
  check_int "paper-scale owners" 4000 d.owners;
  check_bool "paper-scale cell" true (Dataset.member d ~provider:24999 ~owner:3999)

let test_stats_summary_runs () =
  let d = small_dataset 14 in
  check_bool "non-empty summary" true (String.length (Dataset.stats_summary d) > 10)

let test_generation_deterministic () =
  let a = small_dataset 15 and b = small_dataset 15 in
  check_bool "same seed, same matrix" true (Bitmatrix.equal a.membership b.membership)

let test_validation () =
  Alcotest.check_raises "empty network" (Invalid_argument "Dataset.generate: empty network")
    (fun () -> ignore (Dataset.generate (Rng.create 1) ~providers:0 ~owners:5))

let () =
  Alcotest.run "dataset"
    [
      ( "generate",
        [
          Alcotest.test_case "dimensions" `Quick test_dimensions;
          Alcotest.test_case "every owner present" `Quick test_every_owner_present;
          Alcotest.test_case "frequency cap" `Quick test_frequency_cap;
          Alcotest.test_case "zipf shape" `Quick test_zipf_shape;
          Alcotest.test_case "planted commons" `Quick test_planted_commons;
          Alcotest.test_case "sigma consistency" `Quick test_sigma_consistency;
          Alcotest.test_case "member agrees with matrix" `Quick test_member_agrees_with_matrix;
          Alcotest.test_case "deterministic" `Quick test_generation_deterministic;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "epsilons",
        [
          Alcotest.test_case "helpers" `Quick test_epsilon_helpers;
          Alcotest.test_case "defensive copies" `Quick test_with_epsilons_copies;
        ] );
      ( "tools",
        [
          Alcotest.test_case "exact frequency lookup" `Quick test_exact_frequency_owner;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv rejects garbage" `Quick test_csv_rejects_garbage;
          Alcotest.test_case "csv header budget checked first" `Quick test_csv_budget;
          Alcotest.test_case "stats summary" `Quick test_stats_summary_runs;
        ] );
    ]
