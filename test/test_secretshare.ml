(* Tests for additive (c,c) secret sharing: Theorem 4.1's recoverability
   and secrecy, plus the additive homomorphism SecSumShare relies on. *)

open Eppi_prelude
open Eppi_secretshare

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let q101 = Modarith.modulus 101

let test_additive_roundtrip () =
  let rng = Rng.create 1 in
  for v = 0 to 100 do
    let shares = Additive.share rng ~q:q101 ~c:5 v in
    check_int "share count" 5 (Array.length shares);
    check_int (Printf.sprintf "reconstruct %d" v) v (Additive.reconstruct ~q:q101 shares)
  done

let test_additive_single_share () =
  let rng = Rng.create 2 in
  let shares = Additive.share rng ~q:q101 ~c:1 42 in
  check_int "degenerate c=1" 42 (Additive.reconstruct ~q:q101 shares)

let test_additive_share_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let shares = Additive.share rng ~q:q101 ~c:3 55 in
    Array.iter (fun s -> check_bool "canonical residue" true (s >= 0 && s < 101)) shares
  done

let test_additive_rejects_bad_c () =
  let rng = Rng.create 4 in
  Alcotest.check_raises "c=0" (Invalid_argument "Additive.share: need at least one share")
    (fun () -> ignore (Additive.share rng ~q:q101 ~c:0 5))

(* The draw order every seeded construction replays: shares 0 .. c-2 are
   consecutive [Rng.int q] draws, the last balances the sum.  [share_into]
   writes the same shares in place and returns share 0. *)
let test_additive_draw_order () =
  for c = 1 to 5 do
    for v = 0 to 100 do
      let seed = (c * 1000) + v in
      let raw = Rng.create seed in
      let drawn = Array.init (c - 1) (fun _ -> Rng.int raw 101) in
      let last = Modarith.sub q101 v (Array.fold_left (Modarith.add q101) 0 drawn) in
      let expected = Array.append drawn [| last |] in
      let shares = Additive.share (Rng.create seed) ~q:q101 ~c v in
      Alcotest.(check (array int)) (Printf.sprintf "share c=%d v=%d" c v) expected shares;
      let into = Array.init c (fun _ -> Array.make 3 (-1)) in
      let own = Additive.share_into (Rng.create seed) ~q:q101 v ~into 1 in
      let placed = Array.mapi (fun k vector -> if k = 0 then own else vector.(1)) into in
      Alcotest.(check (array int)) (Printf.sprintf "share_into c=%d v=%d" c v) expected placed;
      check_bool "writes only slot 1 of vectors 1 .. c-1" true
        (Array.for_all (fun vector -> vector.(0) = -1 && vector.(2) = -1) into
        && into.(0).(1) = -1)
    done
  done;
  Alcotest.check_raises "secret out of range"
    (Invalid_argument "Additive.share_into: secret out of [0, q)") (fun () ->
      ignore (Additive.share_into (Rng.create 1) ~q:q101 101 ~into:[| [| 0 |]; [| 0 |] |] 0))

let test_additive_homomorphism () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let a = Rng.int rng 101 and b = Rng.int rng 101 in
    let sa = Additive.share rng ~q:q101 ~c:4 a in
    let sb = Additive.share rng ~q:q101 ~c:4 b in
    let sum = Additive.add ~q:q101 sa sb in
    check_int "share-wise add = sum" (Modarith.add q101 a b) (Additive.reconstruct ~q:q101 sum)
  done

let test_additive_add_into () =
  let rng = Rng.create 6 in
  let acc = Additive.share rng ~q:q101 ~c:3 10 in
  let other = Additive.share rng ~q:q101 ~c:3 20 in
  Additive.add_into ~q:q101 ~acc other;
  check_int "in-place accumulate" 30 (Additive.reconstruct ~q:q101 acc)

let test_additive_rerandomize () =
  let rng = Rng.create 7 in
  let shares = Additive.share rng ~q:q101 ~c:3 77 in
  let fresh = Additive.rerandomize rng ~q:q101 shares in
  check_int "same secret" 77 (Additive.reconstruct ~q:q101 fresh);
  check_bool "shares actually changed" true (fresh <> shares)

let test_additive_secrecy_distribution () =
  (* Knowing c-1 shares must leave the secret uniform: for a fixed secret the
     first share is uniform over Z_q regardless of the secret's value. *)
  let q = Modarith.modulus 11 in
  let trials = 40_000 in
  let histogram secret =
    let rng = Rng.create 97 in
    let counts = Array.make 11 0 in
    for _ = 1 to trials do
      let shares = Additive.share rng ~q ~c:3 secret in
      counts.(shares.(0)) <- counts.(shares.(0)) + 1
    done;
    counts
  in
  let h0 = histogram 0 and h7 = histogram 7 in
  let expected = float_of_int trials /. 11.0 in
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "uniform bucket %d (secret 0)" i)
        true
        (Float.abs (float_of_int c -. expected) < 6.0 *. sqrt expected);
      check_bool
        (Printf.sprintf "uniform bucket %d (secret 7)" i)
        true
        (Float.abs (float_of_int h7.(i) -. expected) < 6.0 *. sqrt expected))
    h0

let test_additive_partial_sum_independent_of_secret () =
  (* The sum of any c-1 shares is also uniform: its distribution cannot
     depend on the secret (Theorem 4.1 secrecy). Compare first moments. *)
  let q = Modarith.modulus 13 in
  let trials = 30_000 in
  let mean_partial secret =
    let rng = Rng.create 31 in
    let acc = ref 0 in
    for _ = 1 to trials do
      let shares = Additive.share rng ~q ~c:4 secret in
      acc := !acc + Modarith.add q shares.(1) (Modarith.add q shares.(2) shares.(3))
    done;
    float_of_int !acc /. float_of_int trials
  in
  let m0 = mean_partial 0 and m9 = mean_partial 9 in
  check_bool "partial-view means agree across secrets" true (Float.abs (m0 -. m9) < 0.15)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"additive reconstruct inverse of share" ~count:500
      (quad small_int (int_range 2 4001) (int_range 1 10) int)
      (fun (seed, q, c, v) ->
        let q = Modarith.modulus q in
        let rng = Rng.create seed in
        let v = Modarith.reduce q v in
        Additive.reconstruct ~q (Additive.share rng ~q ~c v) = v);
    Test.make ~name:"additive homomorphism" ~count:300
      (quad small_int (int_range 2 4001) int int)
      (fun (seed, q, a, b) ->
        let q = Modarith.modulus q in
        let rng = Rng.create seed in
        let a = Modarith.reduce q a and b = Modarith.reduce q b in
        let sum = Additive.add ~q (Additive.share rng ~q ~c:3 a) (Additive.share rng ~q ~c:3 b) in
        Additive.reconstruct ~q sum = Modarith.add q a b);
  ]

let () =
  Alcotest.run "secretshare"
    [
      ( "additive",
        [
          Alcotest.test_case "roundtrip" `Quick test_additive_roundtrip;
          Alcotest.test_case "single share" `Quick test_additive_single_share;
          Alcotest.test_case "share range" `Quick test_additive_share_range;
          Alcotest.test_case "rejects bad c" `Quick test_additive_rejects_bad_c;
          Alcotest.test_case "draw order" `Quick test_additive_draw_order;
          Alcotest.test_case "homomorphism" `Quick test_additive_homomorphism;
          Alcotest.test_case "add_into" `Quick test_additive_add_into;
          Alcotest.test_case "rerandomize" `Quick test_additive_rerandomize;
          Alcotest.test_case "secrecy distribution" `Quick test_additive_secrecy_distribution;
          Alcotest.test_case "partial sums secret-independent" `Quick
            test_additive_partial_sum_independent_of_secret;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
