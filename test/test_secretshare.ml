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

(* The draw order every seeded construction replays: shares 0 .. c-2 are one
   [Rng.fill_below q] fill of c-1 residues, the last balances the sum. *)
let test_additive_draw_order () =
  for c = 1 to 5 do
    for v = 0 to 100 do
      let seed = (c * 1000) + v in
      let drawn = Array.make (c - 1) 0 in
      Rng.fill_below (Rng.create seed) 101 drawn;
      let last = Modarith.sub q101 v (Array.fold_left (Modarith.add q101) 0 drawn) in
      let expected = Array.append drawn [| last |] in
      let shares = Additive.share (Rng.create seed) ~q:q101 ~c v in
      Alcotest.(check (array int)) (Printf.sprintf "share c=%d v=%d" c v) expected shares
    done
  done

(* [share_bits] draws what one [share] per secret bit would, in secret
   order: share 0 lands on top of the first vector's running sums, share k
   in vector k.  2^16 is the widest modulus with 2-byte residues. *)
let test_additive_share_bits () =
  List.iter
    (fun qi ->
      let q = Modarith.modulus qi in
      for c = 2 to 5 do
        let n = 21 and pos = 1 in
        let rng = Rng.create (qi + c) in
        let secrets = Array.init n (fun _ -> Rng.int rng 2) in
        let bits = Bytes.make (pos + 3) '\000' in
        Array.iteri
          (fun j b ->
            let o = pos + (j / 8) in
            if b = 1 then
              Bytes.set bits o (Char.chr (Char.code (Bytes.get bits o) lor (1 lsl (j mod 8)))))
          secrets;
        let running = Array.init n (fun _ -> Rng.int rng qi) in
        let into =
          Array.init c (fun k ->
              if k = 0 then Additive.of_array ~q running else Additive.vector ~q n)
        in
        Additive.share_bits (Rng.create c) ~q ~bits ~pos ~draws:(Array.make ((c - 1) * n) 0)
          ~into;
        let one_by_one = Rng.create c in
        let expected = Array.init c (fun _ -> Array.make n 0) in
        Array.iteri
          (fun j v ->
            Array.iteri (fun k s -> expected.(k).(j) <- s) (Additive.share one_by_one ~q ~c v))
          secrets;
        expected.(0) <- Array.map2 (Modarith.add q) running expected.(0);
        Alcotest.(check (array (array int)))
          (Printf.sprintf "q=%d c=%d" qi c)
          expected
          (Array.map (Additive.to_array ~q) into)
      done)
    [ 101; 65_536; 65_537; 1_000_003 ]

let test_additive_homomorphism () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let a = Rng.int rng 101 and b = Rng.int rng 101 in
    let sa = Additive.share rng ~q:q101 ~c:4 a in
    let sb = Additive.share rng ~q:q101 ~c:4 b in
    let sum = Additive.add ~q:q101 sa sb in
    check_int "share-wise add = sum" (Modarith.add q101 a b) (Additive.reconstruct ~q:q101 sum)
  done

(* Packed accumulation at both residue widths, wrap-around included. *)
let test_additive_add_into () =
  let rng = Rng.create 6 in
  List.iter
    (fun (qi, width) ->
      let q = Modarith.modulus qi in
      check_int (Printf.sprintf "q=%d width" qi) width (Additive.width q);
      let a = Array.append [| qi - 1; 0 |] (Array.init 50 (fun _ -> Rng.int rng qi)) in
      let b = Array.append [| qi - 1; qi - 1 |] (Array.init 50 (fun _ -> Rng.int rng qi)) in
      let acc = Additive.of_array ~q a in
      Additive.add_into ~q ~acc (Additive.of_array ~q b);
      Alcotest.(check (array int))
        (Printf.sprintf "q=%d in-place accumulate" qi)
        (Array.map2 (Modarith.add q) a b)
        (Additive.to_array ~q acc))
    [ (101, 2); (65_536, 2); (65_537, 4); (2_147_483_647, 4) ];
  Alcotest.check_raises "of_array range" (Invalid_argument "Additive.of_array: residue out of [0, q)")
    (fun () -> ignore (Additive.of_array ~q:q101 [| 101 |]))

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
          Alcotest.test_case "share_bits" `Quick test_additive_share_bits;
          Alcotest.test_case "homomorphism" `Quick test_additive_homomorphism;
          Alcotest.test_case "add_into" `Quick test_additive_add_into;
          Alcotest.test_case "rerandomize" `Quick test_additive_rerandomize;
          Alcotest.test_case "secrecy distribution" `Quick test_additive_secrecy_distribution;
          Alcotest.test_case "partial sums secret-independent" `Quick
            test_additive_partial_sum_independent_of_secret;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
