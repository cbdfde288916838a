(* Bechamel micro-benchmarks of the hot primitives: one Test.make per
   operation, reported as estimated ns/run by OLS over monotonic-clock
   samples. *)

open Bechamel
open Toolkit
open Eppi_prelude

let publish_row_test =
  let rng = Rng.create 1 in
  let row = Bitvec.create 10_000 in
  let chosen = Rng.sample_without_replacement rng ~k:100 ~n:10_000 in
  Array.iter (fun p -> Bitvec.set row p) chosen;
  Test.make ~name:"publish_row m=10000 beta=0.1"
    (Staged.stage (fun () -> ignore (Eppi.Publish.publish_row rng ~beta:0.1 row)))

let share_test =
  let rng = Rng.create 2 in
  let q = Modarith.modulus 10_007 in
  Test.make ~name:"additive share c=3"
    (Staged.stage (fun () -> ignore (Eppi_secretshare.Additive.share rng ~q ~c:3 1)))

let beta_test =
  Test.make ~name:"chernoff beta"
    (Staged.stage (fun () ->
         ignore
           (Eppi.Policy.beta (Eppi.Policy.Chernoff 0.9) ~sigma:0.01 ~epsilon:0.5 ~m:10_000)))

let binomial_test =
  let rng = Rng.create 3 in
  Test.make ~name:"binomial n=10000 p=0.1"
    (Staged.stage (fun () -> ignore (Sampling.binomial rng ~n:10_000 ~p:0.1)))

let circuit_eval_test =
  let compiled = Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.count_below ~c:3 ~q:1031) in
  let rng = Rng.create 4 in
  let q = Modarith.modulus 1031 in
  let shares = Eppi_secretshare.Additive.share rng ~q ~c:3 (Rng.int rng 1031) in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      [
        ("s0", Eppi_sfdl.Compile.Dint shares.(0));
        ("s1", Eppi_sfdl.Compile.Dint shares.(1));
        ("s2", Eppi_sfdl.Compile.Dint shares.(2));
        ("t", Eppi_sfdl.Compile.Dint 500);
      ]
  in
  Test.make ~name:"count_below comparator eval"
    (Staged.stage (fun () -> ignore (Eppi_circuit.Circuit.eval compiled.circuit ~inputs)))

let gmw_test =
  let compiled = Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.millionaires ~width:16) in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      [ ("a", Eppi_sfdl.Compile.Dint 12345); ("b", Eppi_sfdl.Compile.Dint 54321) ]
  in
  let rng = Rng.create 5 in
  Test.make ~name:"gmw millionaires 16-bit"
    (Staged.stage (fun () -> ignore (Eppi_mpc.Gmw.execute rng compiled.circuit ~inputs)))

let run () =
  Bench_util.heading "Micro-benchmarks (bechamel, ns/run via OLS)";
  let tests =
    Test.make_grouped ~name:"eppi"
      [ publish_row_test; share_test; beta_test; binomial_test; circuit_eval_test; gmw_test ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows = Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) tbl [] in
      List.iter
        (fun (name, ols_result) ->
          match Analyze.OLS.estimates ols_result with
          | Some (estimate :: _) -> Printf.printf "  %-45s %14.1f ns/run\n" name estimate
          | Some [] | None -> Printf.printf "  %-45s (no estimate)\n" name)
        (List.sort compare rows))
    merged
