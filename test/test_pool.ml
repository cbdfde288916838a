(* Tests for the domain work pool and for the determinism contract of the
   multicore construction pipeline: every pool size — and the sharded vs.
   monolithic CountBelow strategies — must produce bit-identical protocol
   output. *)

open Eppi_prelude
open Eppi_protocol

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Pool.parallel_map / parallel_iter ---------- *)

let test_map_matches_sequential () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          List.iter
            (fun n ->
              let rng = Rng.create (size + (1000 * n)) in
              let arr = Array.init n (fun _ -> Rng.int rng 1_000_000) in
              let f x = (x * 31) lxor (x lsr 3) in
              Alcotest.(check (array int))
                (Printf.sprintf "size %d, n %d" size n)
                (Array.map f arr)
                (Pool.parallel_map pool f arr))
            [ 0; 1; 2; 7; 64; 1001 ]))
    [ 1; 2; 3; 4 ]

let test_map_heterogeneous_cost () =
  (* Uneven per-item work exercises chunk stealing; results must still be
     index-exact. *)
  Pool.with_pool ~size:4 (fun pool ->
      let arr = Array.init 200 (fun i -> i) in
      let f i =
        let acc = ref 0 in
        for k = 0 to (i mod 17) * 100 do
          acc := !acc + (k land i)
        done;
        !acc
      in
      Alcotest.(check (array int)) "heterogeneous" (Array.map f arr) (Pool.parallel_map pool f arr))

let test_iter_covers_all_indices () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let n = 500 in
          let hits = Array.make n 0 in
          (* Each index is written by exactly one chunk, so no two domains
             ever touch the same slot. *)
          Pool.parallel_iter pool (fun i -> hits.(i) <- hits.(i) + 1) (Array.init n Fun.id);
          Array.iteri (fun i h -> check_int (Printf.sprintf "index %d hit once" i) 1 h) hits))
    [ 1; 2; 4 ]

let test_exception_propagates () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          match
            Pool.parallel_map pool
              (fun i -> if i = 37 then failwith "boom" else i)
              (Array.init 100 Fun.id)
          with
          | _ -> Alcotest.fail "expected failure"
          | exception Failure m -> check_bool "message" true (m = "boom")))
    [ 1; 4 ]

let test_pool_reuse_and_shutdown () =
  let pool = Pool.create ~size:3 () in
  check_int "size" 3 (Pool.size pool);
  let a = Pool.parallel_map pool (fun x -> x + 1) (Array.init 50 Fun.id) in
  let b = Pool.parallel_map pool (fun x -> x * 2) (Array.init 50 Fun.id) in
  Alcotest.(check (array int)) "first job" (Array.init 50 (fun i -> i + 1)) a;
  Alcotest.(check (array int)) "second job" (Array.init 50 (fun i -> i * 2)) b;
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* After shutdown the pool degrades to inline execution. *)
  let c = Pool.parallel_map pool (fun x -> x - 1) (Array.init 10 Fun.id) in
  Alcotest.(check (array int)) "after shutdown" (Array.init 10 (fun i -> i - 1)) c

let test_exception_leaves_pool_reusable () =
  (* A raising job must leave every worker parked and the pool fully
     usable: the error is latched in the chunk loop, all domains drain
     their remaining chunks, and only then does the caller re-raise. *)
  Pool.with_pool ~size:4 (fun pool ->
      for round = 1 to 3 do
        (match
           Pool.parallel_map pool
             (fun i -> if i mod 13 = 5 then failwith "boom" else i)
             (Array.init 300 Fun.id)
         with
        | _ -> Alcotest.fail "expected failure"
        | exception Failure m -> check_bool "message" true (m = "boom"));
        (* The very next job on the same pool must run to completion. *)
        let expect = Array.init 200 (fun i -> i * round) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d reuse" round)
          expect
          (Pool.parallel_map pool (fun x -> x * round) (Array.init 200 Fun.id))
      done;
      (* parallel_iter's exception path too. *)
      (match
         Pool.parallel_iter pool (fun i -> if i = 77 then failwith "iter-boom")
           (Array.init 200 Fun.id)
       with
      | () -> Alcotest.fail "expected iter failure"
      | exception Failure m -> check_bool "iter message" true (m = "iter-boom"));
      Alcotest.(check (array int))
        "reuse after iter failure"
        (Array.init 50 (fun i -> i + 9))
        (Pool.parallel_map pool (fun x -> x + 9) (Array.init 50 Fun.id)))

let test_stats_accounting () =
  (* One slot per domain (slot 0 = caller); jobs and busy time only grow,
     and parallel work must be visible in at least one worker slot. *)
  Pool.with_pool ~size:3 (fun pool ->
      let s0 = Pool.stats pool in
      check_int "slot count" 3 (Array.length s0);
      Array.iter
        (fun (st : Pool.worker_stat) ->
          check_int "fresh jobs" 0 st.jobs;
          check_int "fresh busy" 0 st.busy_ns)
        s0;
      let work x =
        let acc = ref x in
        for k = 1 to 20_000 do
          acc := (!acc * 31) lxor k
        done;
        !acc
      in
      ignore (Pool.parallel_map pool work (Array.init 4000 Fun.id));
      let s1 = Pool.stats pool in
      let total_jobs = Array.fold_left (fun acc (st : Pool.worker_stat) -> acc + st.jobs) 0 s1 in
      check_int "one charged job per domain" 3 total_jobs;
      check_bool "caller slot charged" true (s1.(0).jobs = 1 && s1.(0).busy_ns >= 0);
      Array.iteri
        (fun i (st : Pool.worker_stat) ->
          check_bool (Printf.sprintf "slot %d monotone" i) true
            (st.jobs >= s0.(i).jobs && st.busy_ns >= s0.(i).busy_ns))
        s1;
      ignore (Pool.parallel_map pool work (Array.init 4000 Fun.id));
      let s2 = Pool.stats pool in
      Array.iteri
        (fun i (st : Pool.worker_stat) ->
          check_int (Printf.sprintf "slot %d second job" i) (s1.(i).jobs + 1) st.jobs)
        s2);
  (* The sequential fallback (size 1, or tiny input) charges slot 0. *)
  Pool.with_pool ~size:1 (fun pool ->
      ignore (Pool.parallel_map pool (fun x -> x + 1) (Array.init 100 Fun.id));
      let s = Pool.stats pool in
      check_int "sequential slots" 1 (Array.length s);
      check_int "sequential job count" 1 s.(0).jobs)

let test_create_rejects_zero () =
  Alcotest.check_raises "size 0" (Invalid_argument "Pool.create: size must be >= 1") (fun () ->
      ignore (Pool.create ~size:0 ()))

(* ---------- CountBelow determinism across drivers and pool sizes ---------- *)

let make_shares rng ~c ~q ~freqs =
  let n = Array.length freqs in
  let shares = Array.init c (fun _ -> Array.make n 0) in
  Array.iteri
    (fun j f ->
      let s = Eppi_secretshare.Additive.share rng ~q ~c f in
      Array.iteri (fun k v -> shares.(k).(j) <- v) s)
    freqs;
  shares

let countbelow_result = Alcotest.testable (fun ppf (r : Countbelow.result) ->
    Format.fprintf ppf "n_common=%d" r.n_common)
    (fun a b ->
      a.common = b.common && a.frequencies = b.frequencies && a.n_common = b.n_common)

let test_countbelow_drivers_agree () =
  (* 140 identities over a handful of thresholds span three lane chunks,
     the last partial. *)
  let rng = Rng.create 301 in
  let m = 60 in
  let q = Construct.modulus_for m in
  let n = 140 in
  let freqs = Array.init n (fun _ -> Rng.int rng (m + 1)) in
  let levels = [| 3; 20; 41; m + 1 |] in
  let thresholds = Array.init n (fun _ -> levels.(Rng.int rng (Array.length levels))) in
  let shares = make_shares rng ~c:3 ~q ~freqs in
  let run ?transport pool =
    Countbelow.run ?transport ~pool (Rng.create 302) ~shares ~q ~thresholds
  in
  let seq = run Pool.sequential in
  let par2 = Pool.with_pool ~size:2 run in
  let par4 = Pool.with_pool ~size:4 run in
  let emergent = run ~transport:`Simnet Pool.sequential in
  Alcotest.check countbelow_result "2 domains = 1 domain" seq par2;
  Alcotest.check countbelow_result "4 domains = 1 domain" seq par4;
  Alcotest.check countbelow_result "simnet = cost model" seq emergent;
  (* The cost-model accounting is self-identical across pool sizes. *)
  List.iter
    (fun (what, (r : Countbelow.result)) ->
      check_bool (what ^ ": same aggregated stats") true (seq.circuit_stats = r.circuit_stats);
      check_bool (what ^ ": same comm accounting") true (seq.comm = r.comm);
      check_bool (what ^ ": same cost-model time") true (seq.time = r.time))
    [ ("2 domains", par2); ("4 domains", par4) ]

let test_countbelow_classification_reference () =
  (* Against the plain integer reference: common iff frequency >= threshold. *)
  let rng = Rng.create 303 in
  let m = 30 in
  let q = Construct.modulus_for m in
  let n = 25 in
  let freqs = Array.init n (fun _ -> Rng.int rng (m + 1)) in
  let thresholds = Array.init n (fun _ -> Rng.int rng (m + 2)) in
  let shares = make_shares rng ~c:3 ~q ~freqs in
  let r =
    Pool.with_pool ~size:2 (fun pool -> Countbelow.run ~pool (Rng.create 304) ~shares ~q ~thresholds)
  in
  Array.iteri
    (fun j f ->
      let qi = Modarith.to_int q in
      let t = max 0 (min thresholds.(j) (qi - 1)) in
      check_bool (Printf.sprintf "identity %d" j) (f >= t) r.common.(j);
      match r.frequencies.(j) with
      | Some released -> check_int (Printf.sprintf "freq %d" j) f released
      | None -> check_bool (Printf.sprintf "freq %d withheld iff common" j) true r.common.(j))
    freqs

(* ---------- full Construct.run determinism ---------- *)

let make_matrix ~m ~freqs =
  let membership = Bitmatrix.create ~rows:(Array.length freqs) ~cols:m in
  let rng = Rng.create 777 in
  Array.iteri
    (fun j f ->
      let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
      Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen)
    freqs;
  membership

let construct_equal (a : Construct.result) (b : Construct.result) =
  a.common = b.common && a.mixed = b.mixed && a.betas = b.betas
  && a.lambda = b.lambda && a.xi = b.xi
  && Bitmatrix.equal (Eppi.Index.matrix a.index) (Eppi.Index.matrix b.index)

let test_construct_identical_across_domains () =
  let m = 35 in
  let rng = Rng.create 305 in
  let n = 30 in
  let freqs = Array.init n (fun _ -> 1 + Rng.int rng m) in
  let membership = make_matrix ~m ~freqs in
  let epsilons = Array.init n (fun _ -> Rng.float rng 1.0) in
  let policy = Eppi.Policy.Chernoff 0.9 in
  let run ?transport pool =
    Construct.run ?transport ~pool (Rng.create 306) ~membership ~epsilons ~policy
  in
  let seq = run Pool.sequential in
  let par2 = Pool.with_pool ~size:2 run in
  let par4 = Pool.with_pool ~size:4 run in
  let emergent = run ~transport:`Simnet Pool.sequential in
  check_bool "2 domains = 1 domain" true (construct_equal seq par2);
  check_bool "4 domains = 1 domain" true (construct_equal seq par4);
  check_bool "simnet = cost model" true (construct_equal seq emergent);
  check_bool "same metrics at every pool size" true
    (seq.metrics = par2.metrics && seq.metrics = par4.metrics)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "heterogeneous cost" `Quick test_map_heterogeneous_cost;
          Alcotest.test_case "iter covers all indices" `Quick test_iter_covers_all_indices;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "exception leaves pool reusable" `Quick
            test_exception_leaves_pool_reusable;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "reuse and shutdown" `Quick test_pool_reuse_and_shutdown;
          Alcotest.test_case "rejects size 0" `Quick test_create_rejects_zero;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "countbelow drivers agree" `Quick test_countbelow_drivers_agree;
          Alcotest.test_case "countbelow matches integer reference" `Quick
            test_countbelow_classification_reference;
          Alcotest.test_case "construct identical across domains" `Quick
            test_construct_identical_across_domains;
        ] );
    ]
