(* Tests for the Boolean circuit IR, the word-level gadget library and the
   fixed-point layer: every gadget is checked against plain integer
   arithmetic, including property tests over random operands. *)

open Eppi_circuit
module B = Circuit.Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Evaluate a single-party circuit built by [f], feeding integer inputs. *)
let eval_unop ~width f x =
  let b = B.create () in
  let wx = Word.input_word b ~party:0 ~width in
  f b wx;
  let c = B.finish b in
  let bits = Array.init width (fun i -> (x lsr i) land 1 = 1) in
  Circuit.eval c ~inputs:[| bits |]

let eval_binop ~width f x y =
  let b = B.create () in
  let wx = Word.input_word b ~party:0 ~width in
  let wy = Word.input_word b ~party:1 ~width in
  f b wx wy;
  let c = B.finish b in
  let bits v = Array.init width (fun i -> (v lsr i) land 1 = 1) in
  Circuit.eval c ~inputs:[| bits x; bits y |]

(* ---------- builder / IR ---------- *)

let test_builder_const_folding () =
  let b = B.create () in
  let t = B.const b true and f = B.const b false in
  check_int "xor of consts folds" (B.const b true) (B.xor_ b t f);
  check_int "and with false folds" f (B.and_ b t f);
  let x = B.input b ~party:0 in
  check_int "x xor x folds to false" f (B.xor_ b x x);
  check_int "x and x is x" x (B.and_ b x x);
  check_int "x and true is x" x (B.and_ b x t);
  check_int "x xor false is x" x (B.xor_ b x f);
  let nx = B.not_ b x in
  check_int "double negation cancels" x (B.not_ b nx)

let test_builder_output_validation () =
  let b = B.create () in
  Alcotest.check_raises "unknown wire" (Invalid_argument "Builder.output: unknown wire")
    (fun () -> B.output b 99)

let test_stats_counts () =
  let b = B.create () in
  let x = B.input b ~party:0 and y = B.input b ~party:0 in
  let a = B.and_ b x y in
  let o = B.xor_ b a (B.not_ b x) in
  B.output b o;
  let c = B.finish b in
  let s = Circuit.stats c in
  check_int "inputs" 2 s.inputs;
  check_int "and gates" 1 s.and_gates;
  check_int "xor gates" 1 s.xor_gates;
  check_int "not gates" 1 s.not_gates;
  check_int "size" 3 s.size;
  check_int "and depth" 1 s.and_depth

let test_and_layers () =
  let b = B.create () in
  let x = B.input b ~party:0 and y = B.input b ~party:0 and z = B.input b ~party:0 in
  let a1 = B.and_ b x y in
  let a2 = B.and_ b a1 z in
  B.output b a2;
  let c = B.finish b in
  let layers = Circuit.and_layers c in
  check_int "two layers" 2 (Array.length layers);
  check_int "layer 0 size" 1 (Array.length layers.(0));
  check_int "layer 1 size" 1 (Array.length layers.(1))

let test_eval_basic_gates () =
  let cases = [ (false, false); (false, true); (true, false); (true, true) ] in
  List.iter
    (fun (x, y) ->
      let b = B.create () in
      let wx = B.input b ~party:0 and wy = B.input b ~party:0 in
      B.output b (B.and_ b wx wy);
      B.output b (B.xor_ b wx wy);
      B.output b (B.or_ b wx wy);
      B.output b (B.not_ b wx);
      let c = B.finish b in
      let out = Circuit.eval c ~inputs:[| [| x; y |] |] in
      check_bool "and" (x && y) out.(0);
      check_bool "xor" (x <> y) out.(1);
      check_bool "or" (x || y) out.(2);
      check_bool "not" (not x) out.(3))
    cases

let test_eval_missing_input () =
  let b = B.create () in
  let x = B.input b ~party:0 in
  B.output b x;
  let c = B.finish b in
  Alcotest.check_raises "missing input" (Invalid_argument "Circuit.eval: missing input bit")
    (fun () -> ignore (Circuit.eval c ~inputs:[| [||] |]))

let test_input_widths () =
  let b = B.create () in
  let _ = Word.input_word b ~party:0 ~width:4 in
  let _ = Word.input_word b ~party:2 ~width:2 in
  let c = B.finish b in
  check_int "parties" 3 (Circuit.num_parties c);
  check_int "party 0 width" 4 (Circuit.input_width c 0);
  check_int "party 1 width" 0 (Circuit.input_width c 1);
  check_int "party 2 width" 2 (Circuit.input_width c 2)

(* ---------- word gadgets ---------- *)

let test_word_const_roundtrip () =
  List.iter
    (fun v ->
      let b = B.create () in
      Word.output_word b (Word.const_int b ~width:10 v);
      let out = Circuit.eval (B.finish b) ~inputs:[||] in
      check_int (Printf.sprintf "const %d" v) v (Word.to_int out))
    [ 0; 1; 5; 511; 1023 ]

let test_word_add () =
  List.iter
    (fun (x, y) ->
      let out = eval_binop ~width:8 (fun b wx wy -> Word.output_word b (Word.add b wx wy)) x y in
      check_int (Printf.sprintf "%d + %d" x y) (x + y) (Word.to_int out))
    [ (0, 0); (1, 1); (255, 255); (200, 57); (128, 128) ]

let test_word_add_mod () =
  let out =
    eval_binop ~width:8 (fun b wx wy -> Word.output_word b (Word.add_mod b ~width:8 wx wy)) 200 100
  in
  check_int "wraps mod 256" ((200 + 100) mod 256) (Word.to_int out)

let test_word_sub () =
  List.iter
    (fun (x, y) ->
      let out = eval_binop ~width:8 (fun b wx wy -> Word.output_word b (Word.sub b wx wy)) x y in
      check_int (Printf.sprintf "%d - %d" x y) (x - y) (Word.to_int out))
    [ (10, 3); (255, 0); (100, 100); (255, 254) ]

let test_word_mul () =
  List.iter
    (fun (x, y) ->
      let out = eval_binop ~width:8 (fun b wx wy -> Word.output_word b (Word.mul b wx wy)) x y in
      check_int (Printf.sprintf "%d * %d" x y) (x * y) (Word.to_int out))
    [ (0, 7); (1, 255); (15, 17); (255, 255); (13, 11) ]

let test_word_divmod () =
  List.iter
    (fun (x, y) ->
      let out =
        eval_binop ~width:8
          (fun b wx wy ->
            let q, r = Word.divmod b wx wy in
            Word.output_word b q;
            Word.output_word b r)
          x y
      in
      let q = Word.to_int (Array.sub out 0 8) in
      let r = Word.to_int (Array.sub out 8 8) in
      check_int (Printf.sprintf "%d / %d" x y) (x / y) q;
      check_int (Printf.sprintf "%d mod %d" x y) (x mod y) r)
    [ (100, 7); (255, 1); (255, 255); (5, 9); (144, 12) ]

let test_word_divmod_by_zero () =
  (* Hardware convention: quotient saturates, remainder = dividend. *)
  let out =
    eval_binop ~width:4
      (fun b wx wy ->
        let q, r = Word.divmod b wx wy in
        Word.output_word b q;
        Word.output_word b r)
      11 0
  in
  check_int "quotient all ones" 15 (Word.to_int (Array.sub out 0 4));
  check_int "remainder = dividend" 11 (Word.to_int (Array.sub out 4 4))

let test_word_sqrt () =
  for x = 0 to 255 do
    let out = eval_unop ~width:8 (fun b wx -> Word.output_word b (Word.sqrt b wx)) x in
    check_int (Printf.sprintf "isqrt %d" x) (int_of_float (sqrt (float_of_int x))) (Word.to_int out)
  done

let test_word_comparisons () =
  List.iter
    (fun (x, y) ->
      let out =
        eval_binop ~width:8
          (fun b wx wy ->
            B.output b (Word.lt b wx wy);
            B.output b (Word.ge b wx wy);
            B.output b (Word.equal b wx wy))
          x y
      in
      check_bool (Printf.sprintf "%d < %d" x y) (x < y) out.(0);
      check_bool (Printf.sprintf "%d >= %d" x y) (x >= y) out.(1);
      check_bool (Printf.sprintf "%d = %d" x y) (x = y) out.(2))
    [ (0, 0); (3, 7); (7, 3); (255, 255); (255, 0); (0, 255); (128, 127) ]

let test_word_mux () =
  List.iter
    (fun sel ->
      let b = B.create () in
      let s = B.input b ~party:0 in
      let x = Word.const_int b ~width:6 42 in
      let y = Word.const_int b ~width:6 17 in
      Word.output_word b (Word.mux b s x y);
      let out = Circuit.eval (B.finish b) ~inputs:[| [| sel |] |] in
      check_int "mux" (if sel then 42 else 17) (Word.to_int out))
    [ true; false ]

let test_word_popcount () =
  List.iter
    (fun v ->
      let b = B.create () in
      let bits = Array.init 9 (fun _ -> B.input b ~party:0) in
      Word.output_word b (Word.popcount b bits);
      let input = Array.init 9 (fun i -> (v lsr i) land 1 = 1) in
      let out = Circuit.eval (B.finish b) ~inputs:[| input |] in
      let expected = Array.fold_left (fun acc bit -> if bit then acc + 1 else acc) 0 input in
      check_int (Printf.sprintf "popcount %d" v) expected (Word.to_int out))
    [ 0; 1; 0b101010101; 0b111111111; 0b100000000 ]

let test_word_sum_empty () =
  let b = B.create () in
  Word.output_word b (Word.sum b []);
  let out = Circuit.eval (B.finish b) ~inputs:[||] in
  check_int "empty sum" 0 (Word.to_int out)

let test_word_sum_many () =
  let values = [ 3; 9; 27; 1; 255; 16 ] in
  let b = B.create () in
  let words = List.map (fun v -> Word.const_int b ~width:8 v) values in
  Word.output_word b (Word.sum b words);
  let out = Circuit.eval (B.finish b) ~inputs:[||] in
  check_int "sum" (List.fold_left ( + ) 0 values) (Word.to_int out)

let test_word_reduce_mod () =
  (* Sum of 3 residues mod 11: up to 30, two conditional subtracts. *)
  List.iter
    (fun v ->
      let b = B.create () in
      let w = Word.const_int b ~width:5 v in
      Word.output_word b (Word.reduce_mod b w ~modulus:11 ~steps:2);
      let out = Circuit.eval (B.finish b) ~inputs:[||] in
      check_int (Printf.sprintf "%d mod 11" v) (v mod 11) (Word.to_int out))
    [ 0; 10; 11; 21; 22; 30 ]

let test_bits_for () =
  check_int "0" 1 (Word.bits_for 0);
  check_int "1" 1 (Word.bits_for 1);
  check_int "2" 2 (Word.bits_for 2);
  check_int "255" 8 (Word.bits_for 255);
  check_int "256" 9 (Word.bits_for 256)

(* ---------- fixed point ---------- *)

let fp_eval f =
  let b = B.create () in
  f b;
  Circuit.eval (B.finish b) ~inputs:[||]

let check_fp_close name expected bits ~frac_bits ~tol =
  let got = Fixedpoint.to_float bits ~frac_bits in
  check_bool (Printf.sprintf "%s: |%f - %f| < %f" name got expected tol) true
    (Float.abs (got -. expected) < tol)

let test_fp_constant_roundtrip () =
  List.iter
    (fun v ->
      let out =
        fp_eval (fun b -> Fixedpoint.output b (Fixedpoint.constant b ~width:24 ~frac_bits:12 v))
      in
      check_fp_close (Printf.sprintf "const %f" v) v out ~frac_bits:12 ~tol:0.001)
    [ 0.0; 1.0; 0.5; 3.14159; 100.25 ]

let test_fp_add_sub_mul_div () =
  let out =
    fp_eval (fun b ->
        let x = Fixedpoint.constant b ~width:24 ~frac_bits:12 2.5 in
        let y = Fixedpoint.constant b ~width:24 ~frac_bits:12 0.75 in
        Fixedpoint.output b (Fixedpoint.add b x y);
        Fixedpoint.output b (Fixedpoint.sub b x y);
        Fixedpoint.output b (Fixedpoint.mul b x y ~width:24);
        Fixedpoint.output b (Fixedpoint.div b x y ~width:24))
  in
  check_fp_close "add" 3.25 (Array.sub out 0 25) ~frac_bits:12 ~tol:0.001;
  check_fp_close "sub" 1.75 (Array.sub out 25 24) ~frac_bits:12 ~tol:0.001;
  check_fp_close "mul" 1.875 (Array.sub out 49 24) ~frac_bits:12 ~tol:0.002;
  check_fp_close "div" (2.5 /. 0.75) (Array.sub out 73 24) ~frac_bits:12 ~tol:0.002

let test_fp_sqrt () =
  List.iter
    (fun v ->
      let out =
        fp_eval (fun b ->
            Fixedpoint.output b
              (Fixedpoint.sqrt b (Fixedpoint.constant b ~width:24 ~frac_bits:12 v)))
      in
      check_fp_close (Printf.sprintf "sqrt %f" v) (sqrt v) out ~frac_bits:12 ~tol:0.02)
    [ 0.0; 1.0; 2.0; 0.25; 9.0; 100.0 ]

let test_fp_double_ge () =
  let out =
    fp_eval (fun b ->
        let x = Fixedpoint.constant b ~width:24 ~frac_bits:12 1.5 in
        let y = Fixedpoint.constant b ~width:24 ~frac_bits:12 2.9 in
        Fixedpoint.output b (Fixedpoint.double b x);
        B.output b (Fixedpoint.ge b (Fixedpoint.double b x) y);
        B.output b (Fixedpoint.ge b y (Fixedpoint.double b x)))
  in
  check_fp_close "double" 3.0 (Array.sub out 0 25) ~frac_bits:12 ~tol:0.001;
  check_bool "3.0 >= 2.9" true out.(25);
  check_bool "2.9 >= 3.0 is false" false out.(26)

let test_fp_of_int_word () =
  let out =
    fp_eval (fun b ->
        let w = Word.const_int b ~width:6 42 in
        Fixedpoint.output b (Fixedpoint.of_int_word b w ~frac_bits:8))
  in
  check_fp_close "int promotion" 42.0 out ~frac_bits:8 ~tol:0.0001

(* ---------- properties ---------- *)

let qcheck_tests =
  let open QCheck in
  let op2 name f reference =
    Test.make ~name ~count:300
      (pair (int_range 0 255) (int_range 0 255))
      (fun (x, y) ->
        let out = eval_binop ~width:8 (fun b wx wy -> Word.output_word b (f b wx wy)) x y in
        Word.to_int out = reference x y)
  in
  [
    op2 "add matches integers" (fun b x y -> Word.add b x y) ( + );
    op2 "mul matches integers" (fun b x y -> Word.mul b x y) ( * );
    op2 "sub inverts add"
      (fun b x y -> Word.sub b (Word.add b x y) y)
      (fun x _y -> x);
    Test.make ~name:"divmod matches integers" ~count:300
      (pair (int_range 0 255) (int_range 1 255))
      (fun (x, y) ->
        let out =
          eval_binop ~width:8
            (fun b wx wy ->
              let q, r = Word.divmod b wx wy in
              Word.output_word b q;
              Word.output_word b r)
            x y
        in
        Word.to_int (Array.sub out 0 8) = x / y && Word.to_int (Array.sub out 8 8) = x mod y);
    Test.make ~name:"comparisons match integers" ~count:300
      (pair (int_range 0 1023) (int_range 0 1023))
      (fun (x, y) ->
        let out =
          eval_binop ~width:10
            (fun b wx wy ->
              B.output b (Word.lt b wx wy);
              B.output b (Word.equal b wx wy))
            x y
        in
        out.(0) = (x < y) && out.(1) = (x = y));
    Test.make ~name:"fixedpoint arithmetic tracks floats" ~count:150
      (pair (float_range 0.1 30.0) (float_range 0.1 30.0))
      (fun (x, y) ->
        let b = B.create () in
        let fx = Fixedpoint.constant b ~width:24 ~frac_bits:12 x in
        let fy = Fixedpoint.constant b ~width:24 ~frac_bits:12 y in
        Fixedpoint.output b (Fixedpoint.add b fx fy);
        Fixedpoint.output b (Fixedpoint.mul b fx fy ~width:24);
        Fixedpoint.output b (Fixedpoint.div b fx fy ~width:24);
        let out = Circuit.eval (B.finish b) ~inputs:[||] in
        let sum = Fixedpoint.to_float (Array.sub out 0 25) ~frac_bits:12 in
        let prod = Fixedpoint.to_float (Array.sub out 25 24) ~frac_bits:12 in
        let quot = Fixedpoint.to_float (Array.sub out 49 24) ~frac_bits:12 in
        (* Compare against the operands as Q12.12 holds them, not the raw
           floats: rounding y to a multiple of 2^-12 moves x / y by up to
           x / y^2 * 2^-13, which exceeds any fixed bound for small y (a
           flat 0.05 failed about one run in five).  Against the rounded
           operands the sum is exact and mul/div only truncate the result,
           so each lands within one unit of the last place, 2^-12.  mul/div
           wrap above the Q12.12 range; only check in-range results. *)
        let q v = Float.round (v *. 4096.0) /. 4096.0 in
        let qx = q x and qy = q y and ulp = 1.0 /. 4096.0 in
        sum = qx +. qy
        && (qx *. qy >= 4095.0 || Float.abs (prod -. (qx *. qy)) < ulp)
        && (qx /. qy >= 4095.0 || Float.abs (quot -. (qx /. qy)) < ulp));
    Test.make ~name:"isqrt matches floor sqrt" ~count:200 (int_range 0 4095)
      (fun v ->
        let b = B.create () in
        Word.output_word b (Word.sqrt b (Word.const_int b ~width:12 v));
        let out = Circuit.eval (B.finish b) ~inputs:[||] in
        Word.to_int out = int_of_float (Float.sqrt (float_of_int v)));
    Test.make ~name:"reduce_mod correct for sums of residues" ~count:300
      (pair (int_range 2 63) (int_range 0 188))
      (fun (q, v) ->
        QCheck.assume (v < 3 * q);
        let b = B.create () in
        let w = Word.const_int b ~width:8 v in
        Word.output_word b (Word.reduce_mod b w ~modulus:q ~steps:2);
        let out = Circuit.eval (B.finish b) ~inputs:[||] in
        Word.to_int out = v mod q);
  ]

let () =
  Alcotest.run "circuit"
    [
      ( "builder",
        [
          Alcotest.test_case "const folding" `Quick test_builder_const_folding;
          Alcotest.test_case "output validation" `Quick test_builder_output_validation;
          Alcotest.test_case "stats" `Quick test_stats_counts;
          Alcotest.test_case "and layers" `Quick test_and_layers;
          Alcotest.test_case "basic gates" `Quick test_eval_basic_gates;
          Alcotest.test_case "missing input" `Quick test_eval_missing_input;
          Alcotest.test_case "input widths" `Quick test_input_widths;
        ] );
      ( "word",
        [
          Alcotest.test_case "const roundtrip" `Quick test_word_const_roundtrip;
          Alcotest.test_case "add" `Quick test_word_add;
          Alcotest.test_case "add_mod" `Quick test_word_add_mod;
          Alcotest.test_case "sub" `Quick test_word_sub;
          Alcotest.test_case "mul" `Quick test_word_mul;
          Alcotest.test_case "divmod" `Quick test_word_divmod;
          Alcotest.test_case "divmod by zero" `Quick test_word_divmod_by_zero;
          Alcotest.test_case "sqrt exhaustive 8-bit" `Quick test_word_sqrt;
          Alcotest.test_case "comparisons" `Quick test_word_comparisons;
          Alcotest.test_case "mux" `Quick test_word_mux;
          Alcotest.test_case "popcount" `Quick test_word_popcount;
          Alcotest.test_case "sum empty" `Quick test_word_sum_empty;
          Alcotest.test_case "sum many" `Quick test_word_sum_many;
          Alcotest.test_case "reduce_mod" `Quick test_word_reduce_mod;
          Alcotest.test_case "bits_for" `Quick test_bits_for;
        ] );
      ( "fixedpoint",
        [
          Alcotest.test_case "constant roundtrip" `Quick test_fp_constant_roundtrip;
          Alcotest.test_case "add/sub/mul/div" `Quick test_fp_add_sub_mul_div;
          Alcotest.test_case "sqrt" `Quick test_fp_sqrt;
          Alcotest.test_case "double and ge" `Quick test_fp_double_ge;
          Alcotest.test_case "of_int_word" `Quick test_fp_of_int_word;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
