(* Tests for the distributed construction protocol: SecSumShare correctness
   and traffic shape, the CountBelow MPC stage, the pure-MPC baseline's
   fixed-point pipeline, and agreement between the secure path and the
   centralized reference. *)

open Eppi_prelude
open Eppi_protocol
module Simnet = Eppi_simnet.Simnet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let q97 = Modarith.modulus 97

(* A random owner-major membership matrix: provider i's private input is
   column i, one fair bit per identity (row). *)
let random_membership rng ~m ~n =
  let membership = Bitmatrix.create ~rows:n ~cols:m in
  for row = 0 to n - 1 do
    for col = 0 to m - 1 do
      if Rng.bool rng then Bitmatrix.set membership ~row ~col true
    done
  done;
  membership

(* One identity, held by the providers whose entry is 1. *)
let one_identity bits =
  let membership = Bitmatrix.create ~rows:1 ~cols:(Array.length bits) in
  Array.iteri (fun col b -> if b = 1 then Bitmatrix.set membership ~row:0 ~col true) bits;
  membership

let drop_plan ?(seed = 21) drop =
  { Simnet.no_faults with fault_seed = seed; default_link = { Simnet.perfect_link with drop } }

(* ---------- SecSumShare ---------- *)

let test_secsumshare_sums () =
  let rng = Rng.create 1 in
  let m = 12 and n = 7 in
  let membership = random_membership rng ~m ~n in
  let r = Secsumshare.run rng ~membership ~c:3 ~q:q97 in
  check_int "three share vectors" 3 (Array.length r.coordinator_shares);
  let sums = Secsumshare.reconstruct ~q:q97 r.coordinator_shares in
  for j = 0 to n - 1 do
    check_int (Printf.sprintf "identity %d" j) (Bitmatrix.row_count membership j) sums.(j)
  done

let test_secsumshare_figure3_scale () =
  (* The paper's worked example: 5 providers, c = 3, q = 5, one identity
     with bits 0,1,1,0,0 -> frequency 2. *)
  let rng = Rng.create 2 in
  let membership = one_identity [| 0; 1; 1; 0; 0 |] in
  let r = Secsumshare.run rng ~membership ~c:3 ~q:(Modarith.modulus 5) in
  let sums = Secsumshare.reconstruct ~q:(Modarith.modulus 5) r.coordinator_shares in
  check_int "frequency 2" 2 sums.(0)

let test_secsumshare_share_ranges () =
  let rng = Rng.create 3 in
  let membership = random_membership rng ~m:8 ~n:4 in
  let r = Secsumshare.run rng ~membership ~c:4 ~q:q97 in
  Array.iter
    (Array.iter (fun s -> check_bool "canonical residue" true (s >= 0 && s < 97)))
    r.coordinator_shares

let test_secsumshare_message_count () =
  (* Each provider sends c-1 share messages plus one super-share. *)
  let rng = Rng.create 4 in
  let m = 10 and c = 3 in
  let membership = random_membership rng ~m ~n:5 in
  let r = Secsumshare.run rng ~membership ~c ~q:q97 in
  check_int "messages = m * c" (m * c) r.net.messages_sent;
  check_bool "nonzero completion time" true (r.net.completion_time > 0.0)

let test_secsumshare_constant_rounds_scaling () =
  (* Completion time must grow slowly (not linearly) with m: the protocol
     runs in constant rounds. *)
  let time m =
    let rng = Rng.create 5 in
    let membership = random_membership rng ~m ~n:3 in
    (Secsumshare.run rng ~membership ~c:3 ~q:q97).net.completion_time
  in
  let t10 = time 10 and t100 = time 100 in
  check_bool
    (Printf.sprintf "t100 %f < 3 * t10 %f" t100 t10)
    true
    (t100 < 3.0 *. t10)

let test_secsumshare_coordinator_shares_look_random () =
  (* A single coordinator's shares must carry no information about the sums:
     rerunning with different protocol randomness decorrelates them, and
     their empirical distribution is near-uniform over Z_q. *)
  let q = Modarith.modulus 11 in
  let membership = one_identity [| 1; 1; 1; 0; 0 |] in
  let counts = Array.make 11 0 in
  let runs = 4000 in
  for seed = 1 to runs do
    let rng = Rng.create seed in
    let r = Secsumshare.run rng ~membership ~c:3 ~q in
    counts.(r.coordinator_shares.(0).(0)) <- counts.(r.coordinator_shares.(0).(0)) + 1
  done;
  let expected = float_of_int runs /. 11.0 in
  Array.iteri
    (fun v c ->
      check_bool
        (Printf.sprintf "share value %d near uniform (%d)" v c)
        true
        (Float.abs (float_of_int c -. expected) < 6.0 *. sqrt expected))
    counts

let test_secsumshare_lossy_fails_fast () =
  (* Loss the reliability layer cannot mask must fail loudly — a stall that
     names suspects — never return a corrupted sum. *)
  let rng = Rng.create 50 in
  let membership = random_membership rng ~m:10 ~n:4 in
  match Secsumshare.run ~plan:(drop_plan ~seed:5 1.0) rng ~membership ~c:3 ~q:q97 with
  | _ -> Alcotest.fail "expected a stall on a network that drops everything"
  | exception Link.Stalled r -> check_bool "suspects named" true (r.suspects <> [])

let test_secsumshare_reliable_on_lossy_network () =
  (* With acks + retransmission the sums are exact despite 30% loss. *)
  let rng = Rng.create 51 in
  let m = 12 and n = 6 in
  let membership = random_membership rng ~m ~n in
  let r = Secsumshare.run ~plan:(drop_plan ~seed:7 0.3) rng ~membership ~c:3 ~q:q97 in
  let sums = Secsumshare.reconstruct ~q:q97 r.coordinator_shares in
  for j = 0 to n - 1 do
    check_int
      (Printf.sprintf "identity %d survives loss" j)
      (Bitmatrix.row_count membership j) sums.(j)
  done;
  check_bool "retransmissions happened" true (r.link.retransmissions > 0)

let test_secsumshare_reliable_no_loss_no_retransmit () =
  (* A plan engages the acks; a fault-free plan needs no resend.  Without a
     plan there are no acks at all: m * c messages. *)
  let rng = Rng.create 52 in
  let membership = random_membership rng ~m:9 ~n:3 in
  let r = Secsumshare.run ~plan:Simnet.no_faults rng ~membership ~c:3 ~q:q97 in
  check_int "no retransmissions on a clean network" 0 r.link.retransmissions;
  check_int "every data message acked" (2 * 9 * 3) r.net.messages_sent;
  let bare = Secsumshare.run (Rng.create 52) ~membership ~c:3 ~q:q97 in
  check_int "no acks without a plan" (9 * 3) bare.net.messages_sent

(* SecSumShare's coordinator shares, rebuilt outside the protocol: one
   [Rng.split] per provider in provider order, one [Additive.share] per
   identity from that provider's stream, share k to the k-th ring
   successor, then each provider's held sum to coordinator (i mod c). *)
let secsumshare_reference rng ~membership ~c ~q =
  let m = Bitmatrix.cols membership and n = Bitmatrix.rows membership in
  let provider_rngs = Array.init m (fun _ -> Rng.split rng) in
  let held = Array.init m (fun _ -> Array.make n 0) in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let v = if Bitmatrix.get membership ~row:j ~col:i then 1 else 0 in
      Array.iteri
        (fun k s ->
          let p = (i + k) mod m in
          held.(p).(j) <- Modarith.add q held.(p).(j) s)
        (Eppi_secretshare.Additive.share provider_rngs.(i) ~q ~c v)
    done
  done;
  let coordinators = Array.init c (fun _ -> Array.make n 0) in
  Array.iteri
    (fun p sums ->
      let r = p mod c in
      Array.iteri (fun j x -> coordinators.(r).(j) <- Modarith.add q coordinators.(r).(j) x) sums)
    held;
  coordinators

(* Both residue widths: q <= 2^16 packs 2 bytes a residue, larger q 4. *)
let test_secsumshare_matches_reference () =
  let inputs_rng = Rng.create 77 in
  List.iter
    (fun qi ->
      let q = Modarith.modulus qi in
      for c = 2 to 5 do
        for m = c to 12 do
          for n = 1 to 16 do
            let membership = random_membership inputs_rng ~m ~n in
            let seed = (qi * 1_000_000) + (c * 10_000) + (m * 100) + n in
            let expected = secsumshare_reference (Rng.create seed) ~membership ~c ~q in
            let shape = Printf.sprintf "q=%d c=%d m=%d n=%d" qi c m n in
            let bare = Secsumshare.run (Rng.create seed) ~membership ~c ~q in
            if bare.coordinator_shares <> expected then
              Alcotest.failf "%s: shares differ from the reference" shape;
            let planned =
              Secsumshare.run ~plan:Simnet.no_faults (Rng.create seed) ~membership ~c ~q
            in
            if planned.coordinator_shares <> expected then
              Alcotest.failf "%s: shares under a fault-free plan differ from the reference" shape
          done
        done
      done)
    [ 2; 3; 97; 1031; 65_537; 1_000_003 ]

let test_secsumshare_reliable_across_seeds () =
  (* Determinized stress: several loss seeds, all must converge exactly. *)
  for seed = 1 to 10 do
    let rng = Rng.create (100 + seed) in
    let m = 8 and n = 3 in
    let membership = random_membership rng ~m ~n in
    let r = Secsumshare.run ~plan:(drop_plan ~seed 0.25) rng ~membership ~c:3 ~q:q97 in
    let sums = Secsumshare.reconstruct ~q:q97 r.coordinator_shares in
    for j = 0 to n - 1 do
      check_int
        (Printf.sprintf "seed %d identity %d" seed j)
        (Bitmatrix.row_count membership j) sums.(j)
    done
  done

let test_secsumshare_crashed_provider_fails_fast () =
  (* A crashed provider never contributes: the protocol must fail loudly
     rather than deliver a silently-wrong sum, and blame the dead. *)
  let rng = Rng.create 53 in
  let membership = random_membership rng ~m:8 ~n:3 in
  let plan = { Simnet.no_faults with crashes = [ (0.0, 5) ] } in
  match Secsumshare.run ~plan rng ~membership ~c:3 ~q:q97 with
  | _ -> Alcotest.fail "expected failure"
  | exception Link.Stalled r -> Alcotest.(check (list int)) "blames provider 5" [ 5 ] r.suspects

let test_secsumshare_validation () =
  let rng = Rng.create 6 in
  Alcotest.check_raises "m < c" (Invalid_argument "Secsumshare.run: need at least c providers")
    (fun () -> ignore (Secsumshare.run rng ~membership:(one_identity [| 1; 0 |]) ~c:3 ~q:q97));
  Alcotest.check_raises "n = 0" (Invalid_argument "Secsumshare.run: empty input vectors")
    (fun () ->
      ignore (Secsumshare.run rng ~membership:(Bitmatrix.create ~rows:0 ~cols:3) ~c:2 ~q:q97));
  Alcotest.check_raises "c < 2" (Invalid_argument "Secsumshare.run: need c >= 2") (fun () ->
      ignore (Secsumshare.run rng ~membership:(one_identity [| 1; 0; 1 |]) ~c:1 ~q:q97))

(* The packed loops read and write without bounds checks, so each checks
   its vectors' lengths once first. *)
let test_secsumshare_vector_lengths () =
  let module A = Eppi_secretshare.Additive in
  List.iter
    (fun qi ->
      let q = Modarith.modulus qi in
      let raises name message f =
        Alcotest.check_raises (Printf.sprintf "q=%d %s" qi name) (Invalid_argument message) f
      in
      raises "add_into" "Additive.add_into: length mismatch" (fun () ->
          A.add_into ~q ~acc:(A.vector ~q 4) (A.vector ~q 5));
      let mismatch name f = raises name "Additive.share_bits: length mismatch" f in
      let bits = Bytes.make 1 '\255' and draws = Array.make 8 0 in
      let into n = [| A.vector ~q 4; A.vector ~q 4; A.vector ~q n |] in
      let share ?(bits = bits) ?(pos = 0) ?(draws = draws) into =
        A.share_bits (Rng.create 1) ~q ~bits ~pos ~draws ~into
      in
      share (into 4);
      mismatch "short share vector" (fun () -> share (into 3));
      mismatch "long share vector" (fun () -> share (into 5));
      mismatch "draws" (fun () -> share ~draws:(Array.make 7 0) (into 4));
      mismatch "bits" (fun () -> share ~pos:1 (into 4));
      mismatch "bits before 0" (fun () -> share ~pos:(-1) (into 4)))
    [ 97; 1_000_003 ]

(* No allocation per residue: the share vectors are major-heap [Bytes], the
   draws land in one reused scratch array, so a fault-free run allocates per
   provider and per message only (a few hundred words each) — a boxed
   [int64] per draw would add about 24,000 per provider at this n.
   Bytecode boxes more, so the bound holds in native code only. *)
let test_secsumshare_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let m = 32 and n = 4000 in
    let membership = random_membership (Rng.create 93) ~m ~n in
    let q = Construct.modulus_for 1024 in
    let run () = ignore (Secsumshare.run (Rng.create 94) ~membership ~c:3 ~q) in
    run ();
    let before = Gc.minor_words () in
    run ();
    let per_provider = (Gc.minor_words () -. before) /. float_of_int m in
    check_bool
      (Printf.sprintf "%.0f minor words per provider" per_provider)
      true (per_provider < 1000.0)
  end

(* ---------- CountBelow ---------- *)

let test_integer_threshold_exact () =
  let m = 1000 in
  List.iter
    (fun (policy, epsilon) ->
      let t = Countbelow.integer_threshold ~policy ~epsilon ~m in
      if t <= m then begin
        check_bool "t is common" true
          (Eppi.Policy.is_common policy ~sigma:(float_of_int t /. float_of_int m) ~epsilon ~m);
        if t > 0 then
          check_bool "t-1 is not" false
            (Eppi.Policy.is_common policy
               ~sigma:(float_of_int (t - 1) /. float_of_int m)
               ~epsilon ~m)
      end)
    [
      (Eppi.Policy.Basic, 0.5);
      (Eppi.Policy.Basic, 0.9);
      (Eppi.Policy.Inc_exp 0.02, 0.5);
      (Eppi.Policy.Chernoff 0.9, 0.5);
      (Eppi.Policy.Chernoff 0.9, 0.8);
    ]

let test_integer_threshold_eps_zero () =
  check_int "never common" 101 (Countbelow.integer_threshold ~policy:Eppi.Policy.Basic ~epsilon:0.0 ~m:100)

let test_countbelow_classification () =
  let rng = Rng.create 7 in
  let m = 50 in
  let q = Construct.modulus_for m in
  let freqs = [| 0; 10; 45; 25; 50 |] in
  let thresholds = [| 5; 11; 40; 25; 51 |] in
  let shares =
    Array.init 3 (fun _ -> Array.make 5 0)
  in
  Array.iteri
    (fun j f ->
      let s = Eppi_secretshare.Additive.share rng ~q ~c:3 f in
      Array.iteri (fun k v -> shares.(k).(j) <- v) s)
    freqs;
  let r = Countbelow.run rng ~shares ~q ~thresholds in
  Alcotest.(check (array bool)) "commons" [| false; false; true; true; false |] r.common;
  check_int "count" 2 r.n_common;
  (* Frequencies released only for non-common identities. *)
  Alcotest.(check (array (option int)))
    "frequencies"
    [| Some 0; Some 10; None; None; Some 50 |]
    r.frequencies;
  check_bool "positive simulated time" true (r.time > 0.0);
  (* Five identities are five comparators, opened layer by layer together. *)
  let one =
    Eppi_circuit.Circuit.stats
      (Eppi_sfdl.Compile.compile_source
         (Eppi_sfdl.Programs.count_below ~c:3 ~q:(Modarith.to_int q)))
        .circuit
  in
  Alcotest.(check (list int))
    "circuit stats = 5 comparators"
    [ 5 * one.size; 5 * one.and_gates; 5 * one.xor_gates; 5 * one.not_gates; 5 * one.inputs;
      one.and_depth ]
    (let s = r.circuit_stats in
     [ s.size; s.and_gates; s.xor_gates; s.not_gates; s.inputs; s.and_depth ])

(* ---------- network-executed GMW ---------- *)

module Bitslice = Eppi_mpc.Bitslice
module Compile = Eppi_sfdl.Compile

(* Lane chunks of one schedule over [values.(party).(lane)], 63 lanes at a
   time, each dealt from its own split of [rng]. *)
let deal_chunks rng sched values =
  let n = Array.length values.(0) in
  Array.init
    ((n + Bitslice.max_lanes - 1) / Bitslice.max_lanes)
    (fun k ->
      let pos = k * Bitslice.max_lanes in
      Bitslice.deal (Rng.split rng) sched ~inputs:values ~pos
        ~lanes:(min Bitslice.max_lanes (n - pos)))

(* Lane j's output bits out of per-chunk output words. *)
let lane_bits outputs j =
  Array.map
    (fun w -> Bitslice.lane w (j mod Bitslice.max_lanes))
    outputs.(j / Bitslice.max_lanes)

let millionaires = Compile.compile_source (Eppi_sfdl.Programs.millionaires ~width:8)

let millionaires_inputs a b = Compile.encode_inputs millionaires [ ("a", Dint a); ("b", Dint b) ]

let comparator ~c ~q = Compile.compile_source (Eppi_sfdl.Programs.count_below ~c ~q)

(* The comparator's input words for identities 0 … n − 1: coordinator i's
   shares, with each identity's threshold above coordinator 0's share. *)
let comparator_words ~q values thresholds =
  let w = Eppi_circuit.Word.bits_for (q - 1) in
  Array.mapi
    (fun i v -> if i > 0 then v else Array.mapi (fun j s -> s lor (thresholds.(j) lsl w)) v)
    values

(* Two identities, frequencies 7 and 3 against thresholds 5 and 9 (c = 3,
   q = 13): one two-lane chunk of the comparator, dealt from [seed]. *)
let countbelow_chunks seed =
  let rng = Rng.create seed in
  let qm = Modarith.modulus 13 in
  let shares = Array.map (Eppi_secretshare.Additive.share rng ~q:qm ~c:3) [| 7; 3 |] in
  let values = Array.init 3 (fun i -> Array.map (fun s -> s.(i)) shares) in
  deal_chunks rng
    (Bitslice.schedule (comparator ~c:3 ~q:13).circuit)
    (comparator_words ~q:13 values [| 5; 9 |])

(* "common" is the comparator's first output. *)
let classification (r : Mpcnet.result) = Array.init 2 (fun j -> (lane_bits r.outputs j).(0))

let test_mpcnet_matches_inprocess () =
  let sched = Bitslice.schedule millionaires.circuit in
  let pairs = [| (5, 9); (9, 5); (200, 200); (0, 255) |] in
  let values = [| Array.map fst pairs; Array.map snd pairs |] in
  let networked = Mpcnet.execute (deal_chunks (Rng.create 70) sched values) in
  let inprocess = Array.map Bitslice.evaluate (deal_chunks (Rng.create 71) sched values) in
  Array.iteri
    (fun j (a, b) ->
      let inputs = millionaires_inputs a b in
      let plain = Eppi_circuit.Circuit.eval millionaires.circuit ~inputs in
      let gmw = Eppi_mpc.Gmw.execute (Rng.create 72) millionaires.circuit ~inputs in
      let net = lane_bits networked.outputs j in
      Alcotest.(check (array bool)) "net = plain" plain net;
      Alcotest.(check (array bool)) "net = in-process" (lane_bits inprocess j) net;
      Alcotest.(check (array bool)) "net = gate-at-a-time" gmw.outputs net)
    pairs

let test_mpcnet_countbelow () =
  Alcotest.(check (array bool))
    "classification" [| true; false |]
    (classification (Mpcnet.execute (countbelow_chunks 72)))

let test_mpcnet_round_structure () =
  let sched = Bitslice.schedule millionaires.circuit in
  let r = Mpcnet.execute (deal_chunks (Rng.create 73) sched [| [| 1 |]; [| 2 |] |]) in
  let stats = Bitslice.stats sched in
  check_int "rounds = and depth + output" (stats.and_depth + 1) r.rounds;
  (* Broadcast traffic: p(p-1) messages per round (p = 2 here). *)
  check_int "messages" (r.rounds * 2 * 1) r.net.messages_sent;
  check_bool "emergent time positive" true (r.net.completion_time > 0.0)

let test_mpcnet_time_tracks_cost_model () =
  (* The emergent simulated time and the closed-form estimate must agree
     within an order of magnitude (the model is calibrated, not fitted):
     four identities, four lanes of one comparator. *)
  let compiled = comparator ~c:3 ~q:1031 in
  let rng = Rng.create 74 in
  let qm = Modarith.modulus 1031 in
  let shares =
    Array.init 4 (fun _ -> Eppi_secretshare.Additive.share rng ~q:qm ~c:3 (Rng.int rng 1031))
  in
  let sched = Bitslice.schedule compiled.circuit in
  let values = Array.init 3 (fun k -> Array.map (fun s -> s.(k)) shares) in
  let words = comparator_words ~q:1031 values (Array.make 4 500) in
  let r = Mpcnet.execute (deal_chunks rng sched words) in
  let s = Bitslice.stats sched in
  let stats =
    {
      s with
      size = 4 * s.size;
      and_gates = 4 * s.and_gates;
      xor_gates = 4 * s.xor_gates;
      not_gates = 4 * s.not_gates;
      inputs = 4 * s.inputs;
    }
  in
  let outputs = 4 * Array.length (Eppi_circuit.Circuit.outputs compiled.circuit) in
  let estimate = Eppi_mpc.Cost.estimate ~network:Eppi_mpc.Cost.lan ~parties:3 ~outputs stats in
  let ratio = estimate /. r.net.completion_time in
  check_bool
    (Printf.sprintf "estimate %f vs emergent %f (ratio %f)" estimate r.net.completion_time ratio)
    true
    (ratio > 0.1 && ratio < 20.0)

let test_countbelow_simnet_transport () =
  (* The network transport must classify identically to the cost-model
     transport and report an emergent (smaller, setup-free) time. *)
  let rng = Rng.create 80 in
  let m = 20 in
  let q = Construct.modulus_for m in
  let freqs = [| 3; 18; 9 |] in
  let thresholds = [| 5; 10; 20 |] in
  let shares = Array.init 3 (fun _ -> Array.make 3 0) in
  Array.iteri
    (fun j f ->
      let s = Eppi_secretshare.Additive.share rng ~q ~c:3 f in
      Array.iteri (fun k v -> shares.(k).(j) <- v) s)
    freqs;
  let model = Countbelow.run (Rng.create 81) ~shares ~q ~thresholds in
  let networked =
    Countbelow.run ~transport:`Simnet (Rng.create 82) ~shares ~q ~thresholds
  in
  Alcotest.(check (array bool)) "same classification" model.common networked.common;
  Alcotest.(check (array (option int))) "same released frequencies" model.frequencies
    networked.frequencies;
  check_bool "both times positive" true (model.time > 0.0 && networked.time > 0.0)

(* A run allocates per lane chunk and for its result, not per gate: under
   25 minor words per identity at the epoch shape (c = 3, q = 1031, 7
   thresholds) once the comparator is memoised.  A per-gate Gmw.execute
   of each identity's comparator, with its input encoding and output
   decoding, allocates about 1,200.  Bytecode boxes more, so the bound
   holds in native code only. *)
let test_countbelow_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let rng = Rng.create 90 in
    let n = 2000 in
    let q = Construct.modulus_for 1024 in
    let thresholds = Array.init n (fun j -> 100 + (120 * (j mod 7))) in
    let shares = Array.init 3 (fun _ -> Array.init n (fun _ -> Rng.int rng (Modarith.to_int q))) in
    let run () = ignore (Countbelow.run (Rng.create 91) ~shares ~q ~thresholds) in
    run ();
    let before = Gc.minor_words () in
    run ();
    let per_identity = (Gc.minor_words () -. before) /. float_of_int n in
    check_bool
      (Printf.sprintf "%.1f minor words per identity" per_identity)
      true (per_identity < 25.0)
  end

(* ---------- Pure MPC baseline ---------- *)

let test_purempc_matches_reference () =
  let rng = Rng.create 8 in
  let m = 12 in
  List.iter
    (fun count ->
      let bits = Array.init m (fun i -> i < count) in
      let r = Purempc.run rng ~bits ~epsilon:0.5 ~gamma:0.9 in
      let reference = Purempc.reference_beta ~m ~count ~epsilon:0.5 ~gamma:0.9 in
      if reference < 1.0 then begin
        check_bool
          (Printf.sprintf "count %d: circuit %f vs float %f" count r.beta reference)
          true
          (Float.abs (r.beta -. reference) < 0.05);
        check_bool "not common" false r.common
      end
      else check_bool (Printf.sprintf "count %d common" count) true r.common)
    [ 1; 3; 6; 11 ]

let test_purempc_sigma_zero () =
  (* No member anywhere: division saturates but the identity must not be
     classified common. *)
  let rng = Rng.create 9 in
  let r = Purempc.run rng ~bits:(Array.make 8 false) ~epsilon:0.5 ~gamma:0.9 in
  check_bool "zero frequency not common" false r.common

let test_purempc_circuit_grows_with_m () =
  let s8 = Purempc.stats_for ~m:8 ~identities:1 ~epsilon:0.5 ~gamma:0.9 in
  let s32 = Purempc.stats_for ~m:32 ~identities:1 ~epsilon:0.5 ~gamma:0.9 in
  check_bool "more providers, more gates" true (s32.size > s8.size)

let test_purempc_much_bigger_than_countbelow () =
  (* The whole point of the paper's design: the per-identity pure-MPC
     circuit dwarfs the CountBelow circuit. *)
  let pure = Purempc.stats_for ~m:9 ~identities:1 ~epsilon:0.5 ~gamma:0.9 in
  let compiled = Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.count_below ~c:3 ~q:11) in
  let reduced = Eppi_circuit.Circuit.stats compiled.circuit in
  check_bool
    (Printf.sprintf "pure %d >> reduced %d" pure.and_gates reduced.and_gates)
    true
    (pure.and_gates > 5 * reduced.and_gates)

let test_purempc_time_scales_superlinearly () =
  let t3 = Purempc.estimate_time ~m:3 ~identities:1 ~epsilon:0.5 ~gamma:0.9 () in
  let t9 = Purempc.estimate_time ~m:9 ~identities:1 ~epsilon:0.5 ~gamma:0.9 () in
  check_bool "superlinear growth" true (t9 > 3.0 *. t3)

let test_purempc_identity_scaling () =
  let t1 = Purempc.estimate_time ~m:3 ~identities:1 ~epsilon:0.5 ~gamma:0.9 () in
  let t100 = Purempc.estimate_time ~m:3 ~identities:100 ~epsilon:0.5 ~gamma:0.9 () in
  check_bool "identities scale cost" true (t100 > 50.0 *. t1)

(* ---------- End-to-end distributed construction ---------- *)

let make_matrix ~m ~freqs =
  let membership = Bitmatrix.create ~rows:(Array.length freqs) ~cols:m in
  let rng = Rng.create 999 in
  Array.iteri
    (fun j f ->
      let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
      Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen)
    freqs;
  membership

let test_construct_agrees_with_centralized () =
  let m = 30 in
  let freqs = [| 2; 28; 9; 15; 1 |] in
  let epsilons = [| 0.5; 0.6; 0.3; 0.8; 0.9 |] in
  let membership = make_matrix ~m ~freqs in
  let policy = Eppi.Policy.Chernoff 0.9 in
  let secure = Construct.run (Rng.create 10) ~membership ~epsilons ~policy in
  let reference = Eppi.Construct.run (Rng.create 11) ~membership ~epsilons ~policy in
  Alcotest.(check (array bool)) "same common classification" reference.common secure.common;
  (* Non-common, non-mixed betas must agree exactly (same released
     frequency, same float computation). *)
  Array.iteri
    (fun j common ->
      if (not common) && (not secure.mixed.(j)) && not reference.mixed.(j) then
        Alcotest.(check (float 1e-12))
          (Printf.sprintf "beta %d" j)
          reference.betas.(j) secure.betas.(j))
    secure.common

let test_construct_recall () =
  let m = 25 in
  let membership = make_matrix ~m ~freqs:[| 3; 12; 24 |] in
  let r =
    Construct.run (Rng.create 12) ~membership ~epsilons:[| 0.5; 0.5; 0.5 |]
      ~policy:Eppi.Policy.Basic
  in
  for j = 0 to 2 do
    check_bool (Printf.sprintf "recall %d" j) true
      (Eppi.Index.recall_ok ~membership r.index ~owner:j)
  done

let test_construct_metrics_populated () =
  let m = 20 in
  let membership = make_matrix ~m ~freqs:[| 5; 10 |] in
  let r =
    Construct.run (Rng.create 13) ~membership ~epsilons:[| 0.5; 0.5 |]
      ~policy:(Eppi.Policy.Chernoff 0.9)
  in
  let mt = r.metrics in
  check_bool "secsumshare time" true (mt.secsumshare_time > 0.0);
  check_bool "mpc time" true (mt.mpc_time > 0.0);
  check_bool "total covers parts" true
    (mt.total_time >= mt.secsumshare_time +. mt.mpc_time);
  check_bool "messages counted" true (mt.messages > 0);
  check_bool "bytes counted" true (mt.bytes > 0);
  check_bool "circuit stats" true (mt.circuit_stats.size > 0)

let test_construct_common_handling_end_to_end () =
  (* One ubiquitous identity: it must be flagged common and published
     everywhere; lambda must be positive so decoys are possible. *)
  let m = 20 in
  let membership = make_matrix ~m ~freqs:(Array.append [| 20 |] (Array.make 30 1)) in
  let epsilons = Array.make 31 0.5 in
  let r = Construct.run (Rng.create 14) ~membership ~epsilons ~policy:Eppi.Policy.Basic in
  check_bool "flagged common" true r.common.(0);
  check_int "published everywhere" m (Eppi.Index.query_count r.index ~owner:0);
  check_bool "lambda positive" true (r.lambda > 0.0)

let test_construct_epsilon_grid_consistency () =
  (* The protocol's integer thresholds must classify exactly like the
     centralized path across an epsilon grid. *)
  let m = 40 in
  List.iter
    (fun epsilon ->
      List.iter
        (fun f ->
          let membership = make_matrix ~m ~freqs:[| f |] in
          let secure =
            Construct.run (Rng.create 15) ~membership ~epsilons:[| epsilon |]
              ~policy:Eppi.Policy.Basic
          in
          let expected =
            Eppi.Policy.is_common Eppi.Policy.Basic
              ~sigma:(float_of_int f /. float_of_int m)
              ~epsilon ~m
          in
          check_bool (Printf.sprintf "eps %.2f freq %d" epsilon f) expected secure.common.(0))
        [ 1; 10; 20; 30; 39 ])
    [ 0.2; 0.5; 0.8 ]

(* A digest of everything [Construct.run] publishes, independent of the
   in-memory representation: the index CSV, the exact betas, the flags, λ
   and ξ. *)
let construct_digest (r : Construct.result) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Eppi.Index.to_csv r.index);
  Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h;" x)) r.betas;
  let flags = Array.iter (fun x -> Buffer.add_char b (if x then '1' else '0')) in
  flags r.common;
  flags r.mixed;
  Buffer.add_string b (Printf.sprintf "%h;%h" r.lambda r.xi);
  Digest.to_hex (Digest.string (Buffer.contents b))

let metrics_testable =
  Alcotest.testable
    (fun ppf (mt : Construct.metrics) ->
      let s = mt.circuit_stats and c = mt.mpc_comm in
      Format.fprintf ppf
        "sss %h mpc %h pub %h total %h msgs %d bytes %d circuit %d/%d/%d/%d/%d/%d comm %d/%d/%d"
        mt.secsumshare_time mt.mpc_time mt.publication_time mt.total_time mt.messages mt.bytes
        s.size s.and_gates s.xor_gates s.not_gates s.inputs s.and_depth c.rounds c.messages
        c.bytes)
    ( = )

let test_construct_pinned () =
  (* A fixed construction's output digest and full metrics, pinned: the
     fault-free path must keep doing exactly this work — the same messages,
     bytes, circuit and simulated times — on both transports. *)
  let membership = make_matrix ~m:9 ~freqs:[| 9; 1; 4; 2; 2; 3; 3; 1; 5; 1; 2; 8 |] in
  let epsilons = [| 0.5; 0.3; 0.4; 0.4; 0.5; 0.5; 0.2; 0.6; 0.3; 0.5; 0.4; 0.4 |] in
  let run ?transport () =
    Construct.run ?transport (Rng.create 2024) ~membership ~epsilons ~policy:Eppi.Policy.Basic
  in
  let digest = "d42470e60a74e0b77ea9c20d5060503b" in
  let model = run () in
  Alcotest.(check string) "cost-model digest" digest (construct_digest model);
  Alcotest.(check (float 0.0)) "lambda strictly between 0 and 1" 0x1.999999999999ap-3 model.lambda;
  Alcotest.check metrics_testable "cost-model metrics"
    {
      secsumshare_time = 0x1.06db666d9d3c7p-10;
      mpc_time = 0x1.ffe3608d0891ap+1;
      publication_time = 0x1.01b2b29a4692cp-22;
      total_time = 0x1.00021efe9dd54p+2;
      messages = 141;
      bytes = 2130;
      circuit_stats =
        { size = 1836; and_gates = 636; xor_gates = 984; not_gates = 216; inputs = 192; and_depth = 17 };
      mpc_comm = { rounds = 19; messages = 114; bytes = 1050 };
    }
    model.metrics;
  let emergent = run ~transport:`Simnet () in
  Alcotest.(check string) "simnet digest" digest (construct_digest emergent);
  (* The same per-identity circuits and accounting as the cost model; only
     the MPC time emerges from the simulated network. *)
  Alcotest.check metrics_testable "simnet metrics"
    {
      model.metrics with
      mpc_time = 0x1.14ea4e92e016ep+0;
      total_time = 0x1.152c09734648ap+0;
    }
    emergent.metrics

let test_beta_phase_estimate_monotone () =
  (* The simulated construction time Fig. 6 reads grows with the
     identities: 5 and 50 identities over 10 providers. *)
  let total_time n =
    let membership = make_matrix ~m:10 ~freqs:(Array.init n (fun j -> 1 + (j mod 10))) in
    (Construct.run (Rng.create 16) ~membership ~epsilons:(Array.make n 0.5)
       ~policy:(Eppi.Policy.Chernoff 0.9))
      .metrics
      .total_time
  in
  let t_small = total_time 5 and t_many_ids = total_time 50 in
  check_bool "identities increase cost" true (t_many_ids > t_small);
  check_bool "positive" true (t_small > 0.0)

(* ---------- Fault tolerance: reliable transport + degradation ---------- *)

let test_mpcnet_reliable_matches_lossless () =
  (* 10% loss on every link: the run must complete with outputs bit-identical
     to the fault-free run, paid for in retransmissions. *)
  let lossless = Mpcnet.execute (countbelow_chunks 72) in
  match Mpcnet.execute ~plan:(drop_plan 0.1) (countbelow_chunks 72) with
  | exception Link.Stalled r ->
      Alcotest.failf "stalled, blamed %s" (String.concat "," (List.map string_of_int r.suspects))
  | r ->
      Alcotest.(check (array (array int))) "bit-identical outputs" lossless.outputs r.outputs;
      check_bool "paid in retransmissions" true (r.link.retransmissions > 0);
      check_bool "some rounds retried" true (r.link.retried_rounds > 0)

let test_mpcnet_reliable_crash_detected () =
  let plan = { Simnet.no_faults with crashes = [ (0.001, 1) ] } in
  match Mpcnet.execute ~plan (countbelow_chunks 72) with
  | _ -> Alcotest.fail "completed despite a crashed party"
  | exception Link.Stalled r -> Alcotest.(check (list int)) "blames exactly party 1" [ 1 ] r.suspects

let test_mpcnet_reliable_duplicates_suppressed () =
  let lossless = Mpcnet.execute (countbelow_chunks 72) in
  let plan =
    { Simnet.no_faults with
      fault_seed = 5;
      default_link = { Simnet.perfect_link with duplicate = 0.5; reorder = 0.3 };
    }
  in
  match Mpcnet.execute ~plan (countbelow_chunks 72) with
  | exception Link.Stalled _ -> Alcotest.fail "duplication must not stall the run"
  | r ->
      Alcotest.(check (array (array int))) "unperturbed" lossless.outputs r.outputs;
      check_bool "duplicates suppressed" true (r.link.duplicates > 0)

let test_mpcnet_reliable_deterministic () =
  (* Same fault-plan seed => identical traffic, retransmission schedule and
     outputs, event for event. *)
  let go () = Mpcnet.execute ~plan:(drop_plan ~seed:9 0.15) (countbelow_chunks 72) in
  let a = go () and b = go () in
  check_int "same retransmissions" a.link.retransmissions b.link.retransmissions;
  check_int "same duplicates" a.link.duplicates b.link.duplicates;
  check_int "same messages" a.net.messages_sent b.net.messages_sent;
  check_int "same drops" a.net.messages_dropped b.net.messages_dropped;
  Alcotest.(check (float 0.0)) "same protocol time" a.link.protocol_time b.link.protocol_time;
  Alcotest.(check (array (array int))) "same outputs" a.outputs b.outputs

let test_secsumshare_ft_complete_under_loss () =
  let rng = Rng.create 31 in
  let m = 10 and n = 6 in
  let membership = random_membership rng ~m ~n in
  match Secsumshare.run ~plan:(drop_plan 0.1) rng ~membership ~c:3 ~q:q97 with
  | exception Link.Stalled _ -> Alcotest.fail "10% loss must be survivable"
  | r ->
      let sums = Secsumshare.reconstruct ~q:q97 r.coordinator_shares in
      for j = 0 to n - 1 do
        check_int (Printf.sprintf "identity %d" j) (Bitmatrix.row_count membership j) sums.(j)
      done;
      check_bool "retransmitted" true (r.link.retransmissions > 0);
      Alcotest.(check (list int)) "no suspects" [] r.link.suspects

let test_secsumshare_ft_crash_blames_only_the_dead () =
  (* Provider 4 dead from the start: its ring successors (5 and 6 at c = 3)
     stall for lack of its shares.  The detector must blame exactly 4 and
     must NOT suspect the stalled victims. *)
  let rng = Rng.create 32 in
  let m = 8 and n = 4 in
  let membership = random_membership rng ~m ~n in
  let plan = { Simnet.no_faults with crashes = [ (0.0, 4) ] } in
  match Secsumshare.run ~plan rng ~membership ~c:3 ~q:q97 with
  | _ -> Alcotest.fail "completed despite a dead provider"
  | exception Link.Stalled r ->
      Alcotest.(check (list int)) "blames exactly provider 4" [ 4 ] r.suspects;
      Alcotest.(check (list int)) "successors stalled, not suspected" [ 5; 6 ] r.stalled

let ft_epsilons = [| 0.5; 0.6; 0.3; 0.8; 0.9 |]
let ft_freqs = [| 2; 28; 9; 15; 1 |]

let test_construct_ft_clean_is_complete () =
  let m = 30 in
  let membership = make_matrix ~m ~freqs:ft_freqs in
  let policy = Eppi.Policy.Chernoff 0.9 in
  match Construct.run_ft (Rng.create 40) ~membership ~epsilons:ft_epsilons ~policy with
  | Construct.Degraded _ -> Alcotest.fail "no faults, no degradation"
  | Construct.Failed (reason, _) -> Alcotest.failf "failed: %s" reason
  | Construct.Complete (r, rep) ->
      check_int "one attempt" 1 rep.attempts;
      Alcotest.(check (list int)) "nobody excluded" [] rep.excluded;
      check_int "all providers" m (Eppi.Index.providers r.index);
      (* Classification agrees with the centralized reference. *)
      let reference =
        Eppi.Construct.run (Rng.create 41) ~membership ~epsilons:ft_epsilons ~policy
      in
      Alcotest.(check (array bool)) "same common classification" reference.common r.common

let test_construct_ft_loss_bit_identical () =
  (* The acceptance invariant: 10% loss in both phases, same construction
     seed => the published index is bit-identical to the fault-free run. *)
  let m = 12 in
  let membership = make_matrix ~m ~freqs:[| 2; 10; 5 |] in
  let epsilons = [| 0.5; 0.4; 0.7 |] in
  let policy = Eppi.Policy.Basic in
  let clean = Construct.run_ft (Rng.create 42) ~membership ~epsilons ~policy in
  let lossy =
    Construct.run_ft ~sss_plan:(drop_plan 0.1) ~mpc_plan:(drop_plan ~seed:23 0.1)
      (Rng.create 42) ~membership ~epsilons ~policy
  in
  match (clean, lossy) with
  | Construct.Complete (a, _), Construct.Complete (b, rep) ->
      check_bool "loss was injected and survived"
        true (rep.sss_retransmissions > 0 || rep.mpc_retransmissions > 0);
      Alcotest.(check (array (float 0.0))) "same betas" a.betas b.betas;
      check_bool "bit-identical index" true
        (Bitmatrix.equal (Eppi.Index.matrix a.index) (Eppi.Index.matrix b.index))
  | _ -> Alcotest.fail "both runs must complete"

let test_construct_ft_crash_degrades () =
  (* Provider 7 crashes before sending anything: the construction must
     return Degraded, exclude exactly 7, and republish over the 9
     survivors with thresholds recomputed for m' = 9. *)
  let m = 10 in
  let membership = make_matrix ~m ~freqs:[| 3; 9; 6 |] in
  let epsilons = [| 0.5; 0.4; 0.7 |] in
  let policy = Eppi.Policy.Basic in
  let sss_plan = { Simnet.no_faults with crashes = [ (0.0, 7) ] } in
  match Construct.run_ft ~sss_plan (Rng.create 43) ~membership ~epsilons ~policy with
  | Construct.Complete _ -> Alcotest.fail "a crash must degrade the outcome"
  | Construct.Failed (reason, _) -> Alcotest.failf "failed: %s" reason
  | Construct.Degraded (r, rep) ->
      Alcotest.(check (list int)) "excludes exactly provider 7" [ 7 ] rep.excluded;
      Alcotest.(check (list int)) "survivors in order" [ 0; 1; 2; 3; 4; 5; 6; 8; 9 ] rep.survivors;
      check_int "two attempts" 2 rep.attempts;
      check_int "index spans survivors" (m - 1) (Eppi.Index.providers r.index);
      (* The survivor-set classification matches the centralized reference
         over m' = 9 with the survivors' frequencies. *)
      let m' = m - 1 in
      let freqs' =
        Array.init 3 (fun j ->
            Bitmatrix.row_count membership j
            - if Bitmatrix.get membership ~row:j ~col:7 then 1 else 0)
      in
      Array.iteri
        (fun j expected_f ->
          let expected =
            Eppi.Policy.is_common policy
              ~sigma:(float_of_int expected_f /. float_of_int m')
              ~epsilon:epsilons.(j) ~m:m'
          in
          check_bool (Printf.sprintf "common %d over survivors" j) expected r.common.(j))
        freqs';
      (* Recall against the survivor submatrix: every surviving true
         positive is published. *)
      let sub = Bitmatrix.create ~rows:3 ~cols:m' in
      List.iteri
        (fun k p ->
          for j = 0 to 2 do
            if Bitmatrix.get membership ~row:j ~col:p then Bitmatrix.set sub ~row:j ~col:k true
          done)
        rep.survivors;
      for j = 0 to 2 do
        check_bool (Printf.sprintf "recall %d" j) true
          (Eppi.Index.recall_ok ~membership:sub r.index ~owner:j)
      done

let test_construct_ft_mpc_crash_degrades () =
  (* A coordinator dies mid-GMW: the failure detector catches it, the
     retry excludes it, and the remaining providers finish. *)
  let m = 10 in
  let membership = make_matrix ~m ~freqs:[| 3; 9 |] in
  let epsilons = [| 0.5; 0.4 |] in
  let mpc_plan = { Simnet.no_faults with crashes = [ (0.002, 1) ] } in
  match
    Construct.run_ft ~mpc_plan (Rng.create 44) ~membership ~epsilons ~policy:Eppi.Policy.Basic
  with
  | Construct.Complete _ -> Alcotest.fail "a coordinator crash must degrade the outcome"
  | Construct.Failed (reason, _) -> Alcotest.failf "failed: %s" reason
  | Construct.Degraded (r, rep) ->
      Alcotest.(check (list int)) "excludes the dead coordinator" [ 1 ] rep.excluded;
      check_int "index spans survivors" (m - 1) (Eppi.Index.providers r.index)

let test_construct_ft_too_few_survivors_fails () =
  let m = 4 in
  let membership = make_matrix ~m ~freqs:[| 2; 3 |] in
  let epsilons = [| 0.5; 0.5 |] in
  let sss_plan = { Simnet.no_faults with crashes = [ (0.0, 0); (0.0, 2) ] } in
  match
    Construct.run_ft ~sss_plan (Rng.create 45) ~membership ~epsilons ~policy:Eppi.Policy.Basic
  with
  | Construct.Failed (_, rep) ->
      check_bool "both dead providers excluded" true
        (List.mem 0 rep.excluded && List.mem 2 rep.excluded)
  | _ -> Alcotest.fail "2 of 4 providers dead cannot sustain c = 3"

(* The lane counts at the edges of 63-lane chunks. *)
let chunk_edges = [| 62; 63; 64; 126; 127 |]

(* Random CountBelow instances: c from 2 to 5, a small prime q, and n
   identities (unless given: half the time a chunk edge, else 1-130), each
   with a threshold in [0, q + 2] (CountBelow clamps those at or above q to
   q - 1).  The comparator's lane chunks over consecutive identities are
   dealt anew from [seed] for each driver. *)
let bitslice_instance ?n seed =
  let rng = Rng.create seed in
  let c = 2 + Rng.int rng 4 in
  let q = [| 2; 3; 5; 7; 11; 13; 31; 97 |].(Rng.int rng 8) in
  let n =
    match n with
    | Some n -> n
    | None -> if Rng.bool rng then chunk_edges.(Rng.int rng 5) else 1 + Rng.int rng 130
  in
  let thresholds = Array.init n (fun _ -> Rng.int rng (q + 3)) in
  let values = Array.init c (fun _ -> Array.init n (fun _ -> Rng.int rng q)) in
  let cmp = comparator ~c ~q in
  let clamped = Array.map (fun t -> min t (q - 1)) thresholds in
  let deal () =
    deal_chunks (Rng.create (seed + 1)) (Bitslice.schedule cmp.circuit)
      (comparator_words ~q values clamped)
  in
  (c, q, cmp, thresholds, clamped, values, deal)

(* Identity j's comparator inputs: coordinator i's share is values.(i).(j),
   and coordinator 0 also feeds the threshold. *)
let comparator_inputs (cmp : Compile.compiled) ~c values t j =
  Compile.encode_inputs cmp
    (("t", Compile.Dint t)
    :: List.init c (fun i -> (Printf.sprintf "s%d" i, Compile.Dint values.(i).(j))))

(* Both bit-sliced drivers, lane by lane, against plaintext evaluation and
   a per-gate Gmw.execute of the comparator. *)
let drivers_agree ?n seed =
  let c, _, cmp, _, clamped, values, deal = bitslice_instance ?n seed in
  let local = Array.map Bitslice.evaluate (deal ()) in
  let net = (Mpcnet.execute (deal ())).outputs in
  Array.for_all Fun.id
    (Array.mapi
       (fun j t ->
         let inputs = comparator_inputs cmp ~c values t j in
         let plain = Eppi_circuit.Circuit.eval cmp.circuit ~inputs in
         let gmw = (Eppi_mpc.Gmw.execute (Rng.create j) cmp.circuit ~inputs).outputs in
         plain = gmw && lane_bits local j = plain && lane_bits net j = plain)
       clamped)

(* Countbelow.run on both transports, given the unclamped thresholds,
   against each identity's decoded per-gate Gmw.execute. *)
let countbelow_matches_reference ?n seed =
  let c, q, cmp, thresholds, clamped, values, _ = bitslice_instance ?n seed in
  let expected =
    Array.mapi
      (fun j t ->
        let inputs = comparator_inputs cmp ~c values t j in
        let gmw = Eppi_mpc.Gmw.execute (Rng.create j) cmp.circuit ~inputs in
        let outputs = Compile.decode_outputs cmp gmw.outputs in
        let output = Compile.lookup_output outputs in
        match (output "common", output "freq") with
        | Dbool common, Dint f -> (common, if common then None else Some f)
        | _ -> Alcotest.fail "bad comparator output shape")
      clamped
  in
  List.for_all
    (fun transport ->
      let r =
        Countbelow.run ~transport (Rng.create seed) ~shares:values ~q:(Modarith.modulus q)
          ~thresholds
      in
      r.common = Array.map fst expected && r.frequencies = Array.map snd expected)
    [ `Cost_model; `Simnet ]

let test_countbelow_chunk_edges () =
  Array.iteri
    (fun k n ->
      check_bool (Printf.sprintf "drivers agree, %d lanes" n) true (drivers_agree ~n (k + 1));
      check_bool
        (Printf.sprintf "countbelow equals the reference, %d identities" n)
        true
        (countbelow_matches_reference ~n (k + 1)))
    chunk_edges

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"bit-sliced drivers agree with plaintext and per-gate GMW" ~count:30
      (int_range 1 1_000_000) drivers_agree;
    Test.make ~name:"countbelow equals the per-gate reference on random instances" ~count:30
      (int_range 1 1_000_000) countbelow_matches_reference;
    Test.make ~name:"secure and centralized paths classify identically" ~count:40
      (triple (int_range 1 1000) (int_range 5 25) (int_range 1 8))
      (fun (seed, m, n) ->
        let rng = Rng.create seed in
        let membership = Bitmatrix.create ~rows:n ~cols:m in
        for j = 0 to n - 1 do
          let f = 1 + Rng.int rng m in
          let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
          Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen
        done;
        let epsilons = Array.init n (fun _ -> Rng.float rng 1.0) in
        let policy = Eppi.Policy.Basic in
        let secure =
          Construct.run (Rng.create (seed + 1)) ~membership ~epsilons ~policy
        in
        let expected =
          Array.init n (fun j ->
              Eppi.Policy.is_common policy
                ~sigma:(float_of_int (Bitmatrix.row_count membership j) /. float_of_int m)
                ~epsilon:epsilons.(j) ~m)
        in
        secure.common = expected);
    Test.make ~name:"fault-free and lossy run_ft equal run" ~count:20
      (triple (int_range 1 1000) (int_range 3 12) (int_range 1 6))
      (fun (seed, m, n) ->
        let rng = Rng.create seed in
        let membership = Bitmatrix.create ~rows:n ~cols:m in
        for j = 0 to n - 1 do
          let f = 1 + Rng.int rng m in
          let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
          Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen
        done;
        let epsilons = Array.init n (fun _ -> Rng.float rng 1.0) in
        let policy = Eppi.Policy.Basic in
        let expected = Construct.run (Rng.create (seed + 1)) ~membership ~epsilons ~policy in
        let equals_run = function
          | Construct.Complete (r, _) ->
              Bitmatrix.equal (Eppi.Index.matrix r.index) (Eppi.Index.matrix expected.index)
              && r.common = expected.common && r.betas = expected.betas
              && r.mixed = expected.mixed && r.lambda = expected.lambda && r.xi = expected.xi
          | Construct.Degraded _ | Construct.Failed _ -> false
        in
        let plan = drop_plan ~seed 0.05 in
        equals_run (Construct.run_ft (Rng.create (seed + 1)) ~membership ~epsilons ~policy)
        && equals_run
             (Construct.run_ft ~sss_plan:plan ~mpc_plan:plan (Rng.create (seed + 1)) ~membership
                ~epsilons ~policy));
    Test.make ~name:"secure path preserves recall" ~count:30
      (pair (int_range 1 1000) (int_range 5 20))
      (fun (seed, m) ->
        let rng = Rng.create seed in
        let n = 5 in
        let membership = Bitmatrix.create ~rows:n ~cols:m in
        for j = 0 to n - 1 do
          let f = 1 + Rng.int rng m in
          let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
          Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen
        done;
        let epsilons = Array.make n 0.5 in
        let r =
          Construct.run (Rng.create (seed * 3)) ~membership ~epsilons
            ~policy:(Eppi.Policy.Chernoff 0.9)
        in
        List.for_all
          (fun j -> Eppi.Index.recall_ok ~membership r.index ~owner:j)
          (List.init n Fun.id));
  ]

let () =
  Alcotest.run "protocol"
    [
      ( "secsumshare",
        [
          Alcotest.test_case "sums" `Quick test_secsumshare_sums;
          Alcotest.test_case "figure 3 example" `Quick test_secsumshare_figure3_scale;
          Alcotest.test_case "share ranges" `Quick test_secsumshare_share_ranges;
          Alcotest.test_case "message count" `Quick test_secsumshare_message_count;
          Alcotest.test_case "constant rounds scaling" `Quick
            test_secsumshare_constant_rounds_scaling;
          Alcotest.test_case "coordinator shares look random" `Quick
            test_secsumshare_coordinator_shares_look_random;
          Alcotest.test_case "lossy network fails fast" `Quick
            test_secsumshare_lossy_fails_fast;
          Alcotest.test_case "reliable over lossy network" `Quick
            test_secsumshare_reliable_on_lossy_network;
          Alcotest.test_case "no loss, no retransmit" `Quick
            test_secsumshare_reliable_no_loss_no_retransmit;
          Alcotest.test_case "reliable across seeds" `Quick
            test_secsumshare_reliable_across_seeds;
          Alcotest.test_case "dead provider fails fast" `Quick
            test_secsumshare_crashed_provider_fails_fast;
          Alcotest.test_case "validation" `Quick test_secsumshare_validation;
          Alcotest.test_case "share vector lengths" `Quick test_secsumshare_vector_lengths;
          Alcotest.test_case "allocation per provider" `Quick test_secsumshare_allocation;
          Alcotest.test_case "coordinator shares match the reference" `Quick
            test_secsumshare_matches_reference;
        ] );
      ( "countbelow",
        [
          Alcotest.test_case "integer threshold exact" `Quick test_integer_threshold_exact;
          Alcotest.test_case "threshold at eps 0" `Quick test_integer_threshold_eps_zero;
          Alcotest.test_case "classification" `Quick test_countbelow_classification;
          Alcotest.test_case "simnet transport" `Quick test_countbelow_simnet_transport;
          Alcotest.test_case "allocation per identity" `Quick test_countbelow_allocation;
          Alcotest.test_case "chunk edges" `Quick test_countbelow_chunk_edges;
        ] );
      ( "mpcnet",
        [
          Alcotest.test_case "matches in-process engine" `Quick test_mpcnet_matches_inprocess;
          Alcotest.test_case "count_below over the network" `Quick test_mpcnet_countbelow;
          Alcotest.test_case "round structure" `Quick test_mpcnet_round_structure;
          Alcotest.test_case "time tracks cost model" `Quick test_mpcnet_time_tracks_cost_model;
        ] );
      ( "purempc",
        [
          Alcotest.test_case "matches float reference" `Quick test_purempc_matches_reference;
          Alcotest.test_case "sigma zero" `Quick test_purempc_sigma_zero;
          Alcotest.test_case "circuit grows with m" `Quick test_purempc_circuit_grows_with_m;
          Alcotest.test_case "dwarfs countbelow" `Quick test_purempc_much_bigger_than_countbelow;
          Alcotest.test_case "superlinear time" `Quick test_purempc_time_scales_superlinearly;
          Alcotest.test_case "identity scaling" `Quick test_purempc_identity_scaling;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "construct",
        [
          Alcotest.test_case "agrees with centralized" `Quick
            test_construct_agrees_with_centralized;
          Alcotest.test_case "recall" `Quick test_construct_recall;
          Alcotest.test_case "metrics populated" `Quick test_construct_metrics_populated;
          Alcotest.test_case "common handling end to end" `Quick
            test_construct_common_handling_end_to_end;
          Alcotest.test_case "epsilon grid consistency" `Quick
            test_construct_epsilon_grid_consistency;
          Alcotest.test_case "phase estimate monotone" `Quick test_beta_phase_estimate_monotone;
          Alcotest.test_case "pinned output and metrics" `Quick test_construct_pinned;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "mpcnet reliable matches lossless at 10% drop" `Quick
            test_mpcnet_reliable_matches_lossless;
          Alcotest.test_case "mpcnet detects a crashed party" `Quick
            test_mpcnet_reliable_crash_detected;
          Alcotest.test_case "mpcnet suppresses duplicates" `Quick
            test_mpcnet_reliable_duplicates_suppressed;
          Alcotest.test_case "mpcnet retransmit schedule deterministic" `Quick
            test_mpcnet_reliable_deterministic;
          Alcotest.test_case "secsumshare ft survives loss" `Quick
            test_secsumshare_ft_complete_under_loss;
          Alcotest.test_case "secsumshare ft blames only the dead" `Quick
            test_secsumshare_ft_crash_blames_only_the_dead;
          Alcotest.test_case "construct ft clean run is Complete" `Quick
            test_construct_ft_clean_is_complete;
          Alcotest.test_case "construct ft loss is bit-identical" `Quick
            test_construct_ft_loss_bit_identical;
          Alcotest.test_case "construct ft crash degrades" `Quick
            test_construct_ft_crash_degrades;
          Alcotest.test_case "construct ft coordinator crash degrades" `Quick
            test_construct_ft_mpc_crash_degrades;
          Alcotest.test_case "construct ft too few survivors fails" `Quick
            test_construct_ft_too_few_survivors_fails;
        ] );
    ]
