(* Tests for the prelude substrate: RNG, sampling, stats, bit structures,
   modular arithmetic and table rendering. *)

open Eppi_prelude

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check_bool "different seeds diverge" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  (* The child's stream must not merely replay the parent's. *)
  let overlap = ref 0 in
  let parent_vals = Array.init 32 (fun _ -> Rng.bits64 parent) in
  let child_vals = Array.init 32 (fun _ -> Rng.bits64 child) in
  Array.iter (fun v -> if Array.exists (Int64.equal v) parent_vals then incr overlap) child_vals;
  check_bool "split stream is fresh" true (!overlap = 0)

let test_rng_copy () =
  let a = Rng.create 5 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copies share state" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    check_bool "in [0, 7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_uniform () =
  let rng = Rng.create 3 in
  let counts = Array.make 5 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 5 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = float_of_int trials /. 5.0 in
      check_bool
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (Float.abs (float_of_int c -. expected) < 5.0 *. sqrt expected))
    counts

let test_rng_int_in () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-3) 3 in
    check_bool "in [-3, 3]" true (v >= -3 && v <= 3)
  done

let test_rng_float_range () =
  let rng = Rng.create 17 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check_bool "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_edges () =
  let rng = Rng.create 19 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Rng.bernoulli rng 0.0);
    check_bool "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.create 23 in
  let hits = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  check_bool "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_shuffle_permutation () =
  let rng = Rng.create 29 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Rng.create 31 in
  let s = Rng.sample_without_replacement rng ~k:10 ~n:20 in
  check_int "size" 10 (Array.length s);
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      check_bool "in range" true (v >= 0 && v < 20);
      check_bool "distinct" false (Hashtbl.mem seen v);
      Hashtbl.add seen v ())
    s;
  Alcotest.check_raises "k > n rejected" (Invalid_argument "Rng.sample_without_replacement")
    (fun () -> ignore (Rng.sample_without_replacement rng ~k:5 ~n:3))

let test_sample_full () =
  let rng = Rng.create 37 in
  let s = Rng.sample_without_replacement rng ~k:5 ~n:5 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "k = n is a permutation" [| 0; 1; 2; 3; 4 |] sorted

(* The first outputs of every entry point, pinned: every seeded run in the
   repository (construction, publication, the pinned construction digest)
   replays this stream, so a change to the generator's arithmetic or draw
   order must fail here first. *)
let test_rng_stream_pinned () =
  let bits name t expected =
    Alcotest.(check (list int64)) name expected (List.map (fun _ -> Rng.bits64 t) expected)
  in
  let ints name expected draw =
    Alcotest.(check (array int)) name expected (Array.map (fun _ -> draw ()) expected)
  in
  let bools name expected draw =
    Alcotest.(check string) name expected
      (String.map (fun _ -> if draw () then '1' else '0') expected)
  in
  bits "create 42" (Rng.create 42)
    [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L; 885919558081284366L ];
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  bits "split: child" child [ 8347233432914914387L; 1654456249501438065L; 8606717159672758837L ];
  bits "split: parent after" parent [ 5573481420429128725L; -1088427420777695408L ];
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  ignore (Rng.bits64 a);
  bits "copy" b [ -8553247020208786036L; -3997081669628113720L ];
  let rng = Rng.create 11 in
  ints "int 1031" [| 571; 558; 182; 595; 431; 824; 381; 700 |] (fun () -> Rng.int rng 1031);
  (* A bound just above 2^61 rejects about half the raw draws. *)
  ints "int 2^61+1"
    [|
      1005446732853309371;
      1304608445638414880;
      37024701727030702;
      409194313676846733;
      2006874809908401037;
      2253257843317664619;
    |]
    (fun () -> Rng.int rng ((1 lsl 61) + 1));
  ints "int max_int" [| 1490141166928044197; 3166255300981455002; 3013742729278946775 |]
    (fun () -> Rng.int rng max_int);
  let rng = Rng.create 13 in
  ints "int_in -3 3" [| -1; 1; 3; 0; 3; 0; 2; 2; -2; -3 |] (fun () -> Rng.int_in rng (-3) 3);
  let rng = Rng.create 17 in
  bools "bool" "01010001111011101100110000011001" (fun () -> Rng.bool rng);
  let rng = Rng.create 19 in
  Alcotest.(check (list (float 0.0)))
    "float 2.5"
    [ 0x1.4d90881f903ccp-3; 0x1.284b84c07b4e3p+1; 0x1.edff0503ac57ap-3; 0x1.4dde6b3711984p-1 ]
    (List.init 4 (fun _ -> Rng.float rng 2.5));
  let rng = Rng.create 23 in
  bools "bernoulli 0.3" "10011111100011001000000010010110" (fun () -> Rng.bernoulli rng 0.3);
  let a = Array.init 10 Fun.id in
  Rng.shuffle (Rng.create 29) a;
  Alcotest.(check (array int)) "shuffle" [| 9; 3; 7; 2; 1; 8; 5; 0; 6; 4 |] a;
  Alcotest.(check (array int))
    "sample_without_replacement" [| 19; 13; 6; 12; 4 |]
    (Rng.sample_without_replacement (Rng.create 31) ~k:5 ~n:20);
  let rng = Rng.create 11 in
  let fill bound k =
    let dst = Array.make k 0 in
    Rng.fill_below rng bound dst;
    dst
  in
  Alcotest.(check (array int))
    "fill_below 1031" [| 40; 530; 221; 718; 428; 747; 131; 767 |] (fill 1031 8);
  (* About half the candidates are rejected at 2^30 + 1. *)
  Alcotest.(check (array int))
    "fill_below 2^30+1"
    [| 234098809; 833280344; 1009196406; 871899448; 789549576; 780505480 |]
    (fill ((1 lsl 30) + 1) 6);
  Alcotest.(check (array int))
    "fill_below 2^31-1" [| 934523906; 1199555072; 1049254946; 693901053 |]
    (fill ((1 lsl 31) - 1) 4)

(* [fill_below] stays in [0, bound) and is uniform: per-bin counts within
   6 sigma at bounds 11 and 1031, and over 16 equal bins at 2^30 + 1, where
   about half the candidates are rejected.  Candidates are counted by
   replaying a copy of the stream up to the generator's next output. *)
let test_rng_fill_below () =
  let uniform bound ~bins ~per_bin =
    let draws = Array.make (bins * per_bin) 0 in
    Rng.fill_below (Rng.create bound) bound draws;
    let counts = Array.make bins 0 in
    Array.iter
      (fun v ->
        if v < 0 || v >= bound then Alcotest.failf "bound %d: draw %d out of range" bound v;
        let b = v * bins / bound in
        counts.(b) <- counts.(b) + 1)
      draws;
    let expected = float_of_int per_bin in
    Array.iteri
      (fun b c ->
        if Float.abs (float_of_int c -. expected) > 6.0 *. sqrt expected then
          Alcotest.failf "bound %d: bin %d holds %d draws, expected about %d" bound b c per_bin)
      counts
  in
  uniform 11 ~bins:11 ~per_bin:2000;
  uniform 1031 ~bins:1031 ~per_bin:200;
  uniform ((1 lsl 30) + 1) ~bins:16 ~per_bin:5000;
  let candidates_per_draw bound =
    let draws = 10_000 in
    let rng = Rng.create 5 in
    let shadow = Rng.copy rng in
    Rng.fill_below rng bound (Array.make draws 0);
    let next = Rng.bits64 rng in
    let consumed = ref 0 in
    while Rng.bits64 shadow <> next do
      incr consumed
    done;
    float_of_int !consumed /. float_of_int draws
  in
  let half = candidates_per_draw ((1 lsl 30) + 1) in
  check_bool (Printf.sprintf "2^30+1: %.3f candidates per draw" half) true
    (half > 1.9 && half < 2.1);
  Alcotest.(check (float 0.0)) "a power of two rejects nothing" 1.0 (candidates_per_draw 1024);
  let ones = Array.make 5 7 in
  Rng.fill_below (Rng.create 1) 1 ones;
  Alcotest.(check (array int)) "bound 1" [| 0; 0; 0; 0; 0 |] ones;
  List.iter
    (fun bound ->
      Alcotest.check_raises
        (Printf.sprintf "bound %d rejected" bound)
        (Invalid_argument "Rng.fill_below: bound must be in [1, 2^31)")
        (fun () -> Rng.fill_below (Rng.create 1) bound [| 0 |]))
    [ 0; 1 lsl 31 ]

(* The construction hot path draws its shares with [fill_below], one [bool]
   per GMW share bit and one [bernoulli] per published cell; [int] serves
   the samplers: none may allocate.
   Bytecode boxes every int64, so the bound holds in native code only. *)
let test_rng_draws_allocation_free () =
  if Sys.backend_type = Sys.Native then begin
    let rng = Rng.create 1 in
    let draws = 10_000 in
    let per_draw name draw =
      let before = Gc.minor_words () in
      draw ();
      let words = Gc.minor_words () -. before in
      check_bool
        (Printf.sprintf "%s: %.0f minor words over %d draws" name words draws)
        true
        (words < float_of_int draws)
    in
    let sink = ref 0 in
    per_draw "int" (fun () ->
        for _ = 1 to draws do
          sink := !sink + Rng.int rng 1031
        done);
    per_draw "bool" (fun () ->
        for _ = 1 to draws do
          if Rng.bool rng then incr sink
        done);
    per_draw "bernoulli" (fun () ->
        for _ = 1 to draws do
          if Rng.bernoulli rng 0.3 then incr sink
        done);
    let dst = Array.make draws 0 in
    per_draw "fill_below" (fun () ->
        Rng.fill_below rng 1031 dst;
        sink := !sink + dst.(draws - 1));
    check_bool "draws consumed" true (!sink > 0)
  end

(* ---------- Sampling ---------- *)

let test_binomial_edges () =
  let rng = Rng.create 41 in
  check_int "n=0" 0 (Sampling.binomial rng ~n:0 ~p:0.5);
  check_int "p=0" 0 (Sampling.binomial rng ~n:100 ~p:0.0);
  check_int "p=1" 100 (Sampling.binomial rng ~n:100 ~p:1.0)

let test_binomial_range () =
  let rng = Rng.create 43 in
  for _ = 1 to 1000 do
    let v = Sampling.binomial rng ~n:50 ~p:0.37 in
    check_bool "in [0, 50]" true (v >= 0 && v <= 50)
  done

let binomial_moments ~n ~p ~draw =
  let rng = Rng.create 47 in
  let trials = 20_000 in
  let samples = Array.init trials (fun _ -> float_of_int (draw rng ~n ~p)) in
  (Stats.mean samples, Stats.variance samples)

let test_binomial_moments_small_mean () =
  let n = 10_000 and p = 0.001 in
  let mean, var = binomial_moments ~n ~p ~draw:(fun rng ~n ~p -> Sampling.binomial rng ~n ~p) in
  check_bool "mean near np" true (Float.abs (mean -. 10.0) < 0.3);
  check_bool "variance near npq" true (Float.abs (var -. 9.99) < 1.0)

let test_binomial_moments_large_mean () =
  let n = 10_000 and p = 0.3 in
  let mean, var = binomial_moments ~n ~p ~draw:(fun rng ~n ~p -> Sampling.binomial rng ~n ~p) in
  check_bool "mean near np" true (Float.abs (mean -. 3000.0) < 10.0);
  check_bool "variance near npq" true (Float.abs (var -. 2100.0) < 150.0)

let test_binomial_matches_exact () =
  (* The fast sampler and the flip-by-flip reference must agree in
     distribution; compare means over many draws. *)
  let rng = Rng.create 53 in
  let trials = 5_000 in
  let fast = Array.init trials (fun _ -> float_of_int (Sampling.binomial rng ~n:200 ~p:0.1)) in
  let exact = Array.init trials (fun _ -> float_of_int (Sampling.binomial_exact rng ~n:200 ~p:0.1)) in
  check_bool "means agree" true (Float.abs (Stats.mean fast -. Stats.mean exact) < 0.5)

let test_geometric () =
  let rng = Rng.create 59 in
  check_int "p=1 is 0" 0 (Sampling.geometric rng ~p:1.0);
  let trials = 20_000 in
  let samples = Array.init trials (fun _ -> float_of_int (Sampling.geometric rng ~p:0.25)) in
  (* E[failures before success] = (1-p)/p = 3. *)
  check_bool "mean near 3" true (Float.abs (Stats.mean samples -. 3.0) < 0.15)

let test_poisson () =
  let rng = Rng.create 61 in
  check_int "lambda=0" 0 (Sampling.poisson rng ~lambda:0.0);
  let samples = Array.init 20_000 (fun _ -> float_of_int (Sampling.poisson rng ~lambda:4.0)) in
  check_bool "mean near 4" true (Float.abs (Stats.mean samples -. 4.0) < 0.1)

let test_zipf_basics () =
  let z = Sampling.Zipf.create ~n:100 ~s:1.0 in
  let rng = Rng.create 67 in
  for _ = 1 to 1000 do
    let r = Sampling.Zipf.sample z rng in
    check_bool "rank in [1, 100]" true (r >= 1 && r <= 100)
  done;
  let total = ref 0.0 in
  for rank = 1 to 100 do
    total := !total +. Sampling.Zipf.prob z rank
  done;
  check_float "probabilities sum to 1" 1.0 !total

let test_zipf_skew () =
  let z = Sampling.Zipf.create ~n:1000 ~s:1.2 in
  check_bool "rank 1 most probable" true
    (Sampling.Zipf.prob z 1 > Sampling.Zipf.prob z 2
    && Sampling.Zipf.prob z 2 > Sampling.Zipf.prob z 10)

let test_zipf_empirical () =
  let z = Sampling.Zipf.create ~n:50 ~s:1.0 in
  let rng = Rng.create 71 in
  let counts = Array.make 50 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let r = Sampling.Zipf.sample z rng in
    counts.(r - 1) <- counts.(r - 1) + 1
  done;
  let expected1 = Sampling.Zipf.prob z 1 *. float_of_int trials in
  check_bool "rank-1 frequency matches pmf" true
    (Float.abs (float_of_int counts.(0) -. expected1) < 5.0 *. sqrt expected1)

(* ---------- Stats ---------- *)

let test_stats_mean_var () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" (5.0 /. 3.0) (Stats.variance xs);
  check_float "singleton variance" 0.0 (Stats.variance [| 5.0 |])

let test_stats_quantiles () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "median" 2.5 (Stats.median xs);
  check_float "q0" 1.0 (Stats.quantile xs 0.0);
  check_float "q1" 4.0 (Stats.quantile xs 1.0);
  (* quantile must not mutate *)
  Alcotest.(check (array (float 0.0))) "input unchanged" [| 4.0; 1.0; 3.0; 2.0 |] xs

let test_stats_summary () =
  let s = Stats.summary [| 1.0; 2.0; 3.0 |] in
  check_int "n" 3 s.n;
  check_float "mean" 2.0 s.mean;
  check_float "min" 1.0 s.min;
  check_float "max" 3.0 s.max

let test_log2_histogram_sum_and_clear () =
  let h = Stats.Log2_histogram.create () in
  List.iter (Stats.Log2_histogram.add h) [ 0.5; 1.5; 2.0 ];
  check_int "total" 3 (Stats.Log2_histogram.total h);
  check_float "sum is exact" 4.0 (Stats.Log2_histogram.sum h);
  Stats.Log2_histogram.clear h;
  check_int "cleared total" 0 (Stats.Log2_histogram.total h);
  check_float "cleared sum" 0.0 (Stats.Log2_histogram.sum h);
  check_float "cleared quantile" 0.0 (Stats.Log2_histogram.quantile h 0.5);
  (* Reusable after clear: the buckets themselves were reset. *)
  Stats.Log2_histogram.add h 8.0;
  check_int "refilled total" 1 (Stats.Log2_histogram.total h);
  check_float "refilled sum" 8.0 (Stats.Log2_histogram.sum h)

(* ---------- Stats.Windowed ---------- *)

let s_ns = 1_000_000_000

(* A fresh window reports zeros, not NaNs. *)
let test_windowed_empty () =
  let w = Stats.Windowed.create () in
  let s = Stats.Windowed.snapshot w ~now_ns:(5 * s_ns) in
  check_int "empty count" 0 s.Stats.Windowed.count;
  check_float "empty rate" 0.0 s.rate;
  check_float "empty mean" 0.0 s.mean;
  check_float "empty p50" 0.0 s.p50;
  check_float "span" 10.0 s.span_s

let test_windowed_rotation () =
  let w = Stats.Windowed.create ~slots:4 ~slot_ns:s_ns () in
  check_float "span from config" 4.0 (Stats.Windowed.span_s w);
  (* Four samples in slot 0; they age out one slot-width at a time. *)
  Stats.Windowed.add w ~now_ns:100 1.0;
  Stats.Windowed.add w ~now_ns:200 1.0;
  let s = Stats.Windowed.snapshot w ~now_ns:300 in
  check_int "fresh samples counted" 2 s.Stats.Windowed.count;
  check_float "rate over full span" 0.5 s.rate;
  (* 3 slots later they are still (barely) inside the window... *)
  Stats.Windowed.add w ~now_ns:(3 * s_ns) 2.0;
  let s = Stats.Windowed.snapshot w ~now_ns:(3 * s_ns) in
  check_int "old slot still live" 3 s.Stats.Windowed.count;
  (* ...one more slot evicts the slot-0 samples but keeps the slot-3 one. *)
  let s = Stats.Windowed.snapshot w ~now_ns:(4 * s_ns) in
  check_int "slot 0 rotated out" 1 s.Stats.Windowed.count;
  check_float "survivor's mean" 2.0 s.mean

let test_windowed_clock_jumps () =
  let w = Stats.Windowed.create ~slots:4 ~slot_ns:s_ns () in
  Stats.Windowed.add w ~now_ns:(10 * s_ns) 1.0;
  (* A forward jump of at least the window span clears everything. *)
  let s = Stats.Windowed.snapshot w ~now_ns:(100 * s_ns) in
  check_int "stale window empty after forward jump" 0 s.Stats.Windowed.count;
  Stats.Windowed.add w ~now_ns:(100 * s_ns) 1.0;
  (* A backward step (clock went wrong) drops the data rather than
     reporting samples from the future. *)
  let s = Stats.Windowed.snapshot w ~now_ns:(50 * s_ns) in
  check_int "backward step clears" 0 s.Stats.Windowed.count;
  (* And the window keeps working at the stepped-back epoch. *)
  Stats.Windowed.add w ~now_ns:(50 * s_ns) 3.0;
  let s = Stats.Windowed.snapshot w ~now_ns:(50 * s_ns) in
  check_int "usable after step" 1 s.Stats.Windowed.count

let test_windowed_wrap () =
  let w = Stats.Windowed.create ~slots:3 ~slot_ns:s_ns () in
  (* Keep one sample per slot while sliding over many multiples of the
     slot count: the ring indices wrap, the counts must not. *)
  for i = 0 to 29 do
    Stats.Windowed.add w ~now_ns:(i * s_ns) (float_of_int i)
  done;
  let s = Stats.Windowed.snapshot w ~now_ns:(29 * s_ns) in
  check_int "exactly one live sample per slot" 3 s.Stats.Windowed.count;
  check_float "window mean of last three" 28.0 s.mean

(* ---------- Json ---------- *)

let test_json_values () =
  let ok s v = check_bool ("parse " ^ s) true (Json.parse s = Ok v) in
  ok "null" Json.Null;
  ok "true" (Json.Bool true);
  ok " -12.5e2 " (Json.Num (-1250.0));
  ok "\"a\\n\\\"b\\\"\"" (Json.Str "a\n\"b\"");
  ok "[1, []]" (Json.List [ Json.Num 1.0; Json.List [] ]);
  ok "{\"a\": {\"b\": [true]}}" (Json.Obj [ ("a", Json.Obj [ ("b", Json.List [ Json.Bool true ]) ]) ]);
  (* \u escapes decode to UTF-8. *)
  ok "\"\\u00e9\"" (Json.Str "\xc3\xa9")

let test_json_errors () =
  let bad s = check_bool ("reject " ^ s) true (Result.is_error (Json.parse s)) in
  List.iter bad
    [ ""; "tru"; "{"; "[1,"; "[1 2]"; "{\"a\" 1}"; "\"unterminated"; "01x"; "nan"; "{} trailing" ]

let test_json_lookup () =
  let v = Json.parse_exn "{\"a\": {\"b\": 3, \"s\": \"x\"}, \"l\": [1, 2]}" in
  check_bool "find num" true (Json.find_num v [ "a"; "b" ] = Some 3.0);
  check_bool "find int" true (Json.find_int v [ "a"; "b" ] = Some 3);
  check_bool "find str" true (Json.find_str v [ "a"; "s" ] = Some "x");
  check_bool "missing is None" true (Json.find v [ "a"; "zz" ] = None);
  check_bool "non-object path is None" true (Json.find v [ "l"; "x" ] = None);
  check_bool "list access" true
    (match Json.find v [ "l" ] with Some (Json.List [ _; _ ]) -> true | _ -> false)

(* The writer: one escaper (these cases used to test the Chrome export's
   private copy), null for non-finite numbers, integers without a
   fraction, compact containers in field order. *)
let test_json_writer_escaping () =
  let str s = Json.to_string (Json.Str s) in
  Alcotest.(check string) "plain" "\"abc\"" (str "abc");
  Alcotest.(check string) "quote" "\"a\\\"b\"" (str "a\"b");
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (str "a\\b");
  Alcotest.(check string) "newline" "\"a\\nb\"" (str "a\nb");
  Alcotest.(check string) "control" "\"a\\u0001b\"" (str "a\001b");
  Alcotest.(check string) "keys escape too" "{\"k\\\"\":1}"
    (Json.to_string (Json.Obj [ ("k\"", Json.int 1) ]));
  (* A Unix-socket path with a backslash, as `eppi top --json` prints it:
     the old quote-only escaping emitted invalid JSON for it. *)
  let row = Json.Obj [ ("addr", Json.Str "a\\q.sock"); ("up", Json.Bool false) ] in
  Alcotest.(check string) "socket path" "{\"addr\":\"a\\\\q.sock\",\"up\":false}"
    (Json.to_string row);
  check_bool "socket path parses back" true (Json.parse (Json.to_string row) = Ok row)

let test_json_writer_numbers () =
  let num f = Json.to_string (Json.Num f) in
  Alcotest.(check string) "nan is null" "null" (num Float.nan);
  Alcotest.(check string) "infinity is null" "null" (num Float.infinity);
  Alcotest.(check string) "negative infinity is null" "null" (num Float.neg_infinity);
  Alcotest.(check string) "integral float" "42" (num 42.0);
  Alcotest.(check string) "negative int" "-7" (Json.to_string (Json.int (-7)));
  (* Plain %g would switch to an exponent from 1e15 on: a nanosecond sum
     past eleven days of request time. *)
  Alcotest.(check string) "large integer, no exponent" "1000000000000000" (num 1e15);
  Alcotest.(check string) "largest exact integer" "9007199254740991" (num 0x1.fffffffffffffp52);
  Alcotest.(check string) "fraction" "0.1" (num 0.1);
  Alcotest.(check string) "shortest round trip" "3.6e-07" (num 3.6e-7);
  Alcotest.(check string) "compact containers in order" "{\"b\":[1,true,null],\"a\":{}}"
    (Json.to_string
       (Json.Obj
          [ ("b", Json.List [ Json.int 1; Json.Bool true; Json.Null ]); ("a", Json.Obj []) ]))

(* ---------- Bitvec ---------- *)

let test_bitvec_basics () =
  let v = Bitvec.create 20 in
  check_int "initially empty" 0 (Bitvec.count v);
  Bitvec.set v 0;
  Bitvec.set v 7;
  Bitvec.set v 8;
  Bitvec.set v 19;
  check_int "count" 4 (Bitvec.count v);
  check_bool "get 7" true (Bitvec.get v 7);
  check_bool "get 6" false (Bitvec.get v 6);
  Bitvec.clear v 7;
  check_bool "cleared" false (Bitvec.get v 7);
  check_int "count after clear" 3 (Bitvec.count v);
  for i = 0 to 62 do
    check_int "lowest_bit of 2^i" i (Bitvec.lowest_bit (1 lsl i));
    check_int "lowest_bit with bit 62 set" i (Bitvec.lowest_bit ((1 lsl i) lor min_int))
  done

let test_bitvec_bounds () =
  let v = Bitvec.create 8 in
  Alcotest.check_raises "oob get" (Invalid_argument "Bitvec: index out of bounds") (fun () ->
      ignore (Bitvec.get v 8));
  Alcotest.check_raises "negative set" (Invalid_argument "Bitvec: index out of bounds") (fun () ->
      Bitvec.set v (-1))

let test_bitvec_fill () =
  let v = Bitvec.create 13 in
  Bitvec.fill v true;
  check_int "all ones, padding excluded" 13 (Bitvec.count v);
  Bitvec.fill v false;
  check_int "all zero" 0 (Bitvec.count v)

let test_bitvec_setops () =
  let a = Bitvec.of_index_list 10 [ 1; 3; 5 ] in
  let b = Bitvec.of_index_list 10 [ 3; 5; 7 ] in
  Alcotest.(check (list int)) "union" [ 1; 3; 5; 7 ] (Bitvec.to_index_list (Bitvec.union a b));
  Alcotest.(check (list int)) "inter" [ 3; 5 ] (Bitvec.to_index_list (Bitvec.inter a b));
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitvec.to_index_list (Bitvec.diff a b))

let test_bitvec_roundtrip () =
  let v = Bitvec.of_index_list 64 [ 0; 31; 32; 63 ] in
  Alcotest.(check (list int)) "roundtrip" [ 0; 31; 32; 63 ] (Bitvec.to_index_list v);
  let copy = Bitvec.copy v in
  Bitvec.clear copy 0;
  check_bool "copy is independent" true (Bitvec.get v 0)

let test_bitvec_fold () =
  let v = Bitvec.of_index_list 10 [ 2; 4; 6 ] in
  check_int "fold sum" 12 (Bitvec.fold_set ( + ) 0 v)

(* ---------- Bitmatrix ---------- *)

let test_bitmatrix_basics () =
  let m = Bitmatrix.create ~rows:3 ~cols:5 in
  Bitmatrix.set m ~row:1 ~col:4 true;
  Bitmatrix.set m ~row:2 ~col:4 true;
  check_bool "get" true (Bitmatrix.get m ~row:1 ~col:4);
  check_int "row count" 1 (Bitmatrix.row_count m 1);
  check_int "col count" 2 (Bitmatrix.col_count m 4);
  check_int "empty col" 0 (Bitmatrix.col_count m 0)

let test_bitmatrix_copy_equal () =
  let m = Bitmatrix.create ~rows:2 ~cols:2 in
  Bitmatrix.set m ~row:0 ~col:1 true;
  let c = Bitmatrix.copy m in
  check_bool "copies equal" true (Bitmatrix.equal m c);
  Bitmatrix.set c ~row:1 ~col:0 true;
  check_bool "copies independent" false (Bitmatrix.equal m c)

let test_bitmatrix_map_rows () =
  let m = Bitmatrix.create ~rows:2 ~cols:4 in
  Bitmatrix.set m ~row:0 ~col:0 true;
  let flipped =
    Bitmatrix.map_rows
      (fun _ row ->
        let out = Bitvec.copy row in
        Bitvec.set out 3;
        out)
      m
  in
  check_bool "original untouched" false (Bitmatrix.get m ~row:0 ~col:3);
  check_bool "mapped" true (Bitmatrix.get flipped ~row:0 ~col:3);
  Alcotest.check_raises "length change rejected"
    (Invalid_argument "Bitmatrix.map_rows: row length changed") (fun () ->
      ignore (Bitmatrix.map_rows (fun _ _ -> Bitvec.create 5) m))

(* ---------- Modarith ---------- *)

let test_modarith_basics () =
  let q = Modarith.modulus 7 in
  check_int "reduce negative" 5 (Modarith.reduce q (-2));
  check_int "add" 3 (Modarith.add q 5 5);
  check_int "sub" 5 (Modarith.sub q 2 4);
  check_int "mul" 1 (Modarith.mul q 3 5);
  check_int "neg" 4 (Modarith.neg q 3);
  check_int "pow" 2 (Modarith.pow q 3 2)

let test_modarith_inverse () =
  let q = Modarith.modulus 101 in
  for a = 1 to 100 do
    check_int (Printf.sprintf "inv %d" a) 1 (Modarith.mul q a (Modarith.inv q a))
  done;
  Alcotest.check_raises "zero not invertible"
    (Invalid_argument "Modarith.inv: zero is not invertible") (fun () ->
      ignore (Modarith.inv q 0))

let test_modarith_primes () =
  check_bool "2 prime" true (Modarith.is_prime 2);
  check_bool "1 not prime" false (Modarith.is_prime 1);
  check_bool "91 not prime" false (Modarith.is_prime 91);
  check_bool "97 prime" true (Modarith.is_prime 97);
  check_int "next prime of 10000" 10007 (Modarith.next_prime 10000)

let test_modarith_validation () =
  Alcotest.check_raises "modulus 1 rejected"
    (Invalid_argument "Modarith.modulus: need 2 <= q < 2^31") (fun () ->
      ignore (Modarith.modulus 1))

(* ---------- Table ---------- *)

let test_table_render () =
  let t = Table.create ~header:[ "x"; "value" ] in
  Table.add_row t [ "1"; "10.5" ];
  Table.add_row t [ "200"; "3" ];
  let s = Table.to_string t in
  check_bool "contains header" true (String.length s > 0);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.add_row: row width differs from header") (fun () ->
      Table.add_row t [ "only-one" ])

let contains_sub ~affix s =
  let la = String.length affix and ls = String.length s in
  let rec go i = i + la <= ls && (String.sub s i la = affix || go (i + 1)) in
  go 0

let test_table_csv () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Table.add_row t [ "x,y"; "plain" ];
  let csv = Table.to_csv t in
  check_bool "quoted comma cell" true (contains_sub ~affix:"\"x,y\"" csv)

(* ---------- qcheck properties ---------- *)

(* Any value whose numbers are finite: bytes of every kind in strings and
   keys, integers beyond 2^53, nested containers. *)
let json_value =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num (if Float.is_finite f then f else 0.0)) float;
        map Json.int int;
        map (fun s -> Json.Str s) string;
      ]
  in
  QCheck.make ~print:Json.to_string
    (sized
       (fix (fun self n ->
            if n <= 1 then leaf
            else
              frequency
                [
                  (2, leaf);
                  (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 3))));
                  ( 1,
                    map
                      (fun l -> Json.Obj l)
                      (list_size (int_bound 4) (pair string (self (n / 3)))) );
                ])))

(* Bit vectors for the word-scan property: lengths 0–300 with the word
   edges (len mod 64 in {0, 1, 63}) drawn often, holding random bits of a
   random density, all ones, or a set operation's result. *)
let bitvec_case =
  let open QCheck.Gen in
  let len =
    oneof [ int_range 0 300; oneofl [ 0; 1; 7; 8; 9; 63; 64; 65; 127; 128; 129; 191; 192; 193; 256 ] ]
  in
  let random len seed =
    let rng = Rng.create seed in
    let density = Rng.float rng 1.0 in
    let v = Bitvec.create len in
    for i = 0 to len - 1 do
      if Rng.float rng 1.0 < density then Bitvec.set v i
    done;
    v
  in
  let build (len, kind, seed) =
    let a = random len seed and b = random len (seed + 1) in
    match kind with
    | 0 -> a
    | 1 ->
        Bitvec.fill a true;
        a
    | 2 -> Bitvec.union a b
    | 3 -> Bitvec.inter a b
    | _ -> Bitvec.diff a b
  in
  QCheck.make
    ~print:(fun v -> Format.asprintf "%d:%a" (Bitvec.length v) Bitvec.pp v)
    (map build (triple len (int_range 0 4) (int_range 0 1_000_000)))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"json to_string parses back" ~count:500 json_value (fun v ->
        Json.parse (Json.to_string v) = Ok v);
    Test.make ~name:"rng int always in bounds" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    Test.make ~name:"binomial within [0, n]" ~count:500
      (triple small_int (int_range 0 500) (float_range 0.0 1.0))
      (fun (seed, n, p) ->
        let rng = Rng.create seed in
        let v = Sampling.binomial rng ~n ~p in
        v >= 0 && v <= n);
    Test.make ~name:"bitvec of/to index list roundtrip" ~count:500
      (list_of_size (Gen.int_range 0 30) (int_range 0 99))
      (fun idxs ->
        let uniq = List.sort_uniq compare idxs in
        let v = Bitvec.of_index_list 100 uniq in
        Bitvec.to_index_list v = uniq && Bitvec.count v = List.length uniq);
    Test.make ~name:"bitvec word scans match a per-bit scan" ~count:500 bitvec_case
      (fun v ->
        let expect = List.filter (Bitvec.get v) (List.init (Bitvec.length v) Fun.id) in
        let seen = ref [] in
        Bitvec.iter_set (fun i -> seen := i :: !seen) v;
        List.rev !seen = expect
        && Bitvec.fold_set (fun acc i -> i :: acc) [] v = List.rev expect
        && Bitvec.to_index_list v = expect
        && Bitvec.count v = List.length expect);
    Test.make ~name:"modarith add/sub inverse" ~count:500
      (triple (int_range 2 10_000) int int)
      (fun (q, a, b) ->
        let q = Modarith.modulus q in
        Modarith.sub q (Modarith.add q a b) b = Modarith.reduce q a);
    Test.make ~name:"quantile monotone" ~count:200
      (list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
      (fun xs ->
        let a = Array.of_list xs in
        Stats.quantile a 0.25 <= Stats.quantile a 0.75);
  ]

(* ---------- Clock.periodic ---------- *)

(* A fake clock drives everything: [sleep] advances time exactly, the
   body charges its own work, and the recorded (tick, start) pairs expose
   the cadence.  Work and interval are chosen dyadic so the arithmetic is
   exact in floating point. *)
let fake_clock () =
  let t = ref 0.0 in
  let sleeps = ref [] in
  let now () = !t in
  let sleep d =
    sleeps := d :: !sleeps;
    t := !t +. d
  in
  (t, now, sleep, fun () -> List.rev !sleeps)

let test_periodic_absorbs_work () =
  let t, now, sleep, sleeps = fake_clock () in
  let starts = ref [] in
  Clock.periodic ~now ~sleep ~interval:1.0 ~iterations:4 (fun tick ->
      starts := (tick, !t) :: !starts;
      t := !t +. 0.25;
      true);
  check_bool "ticks fire on the absolute grid" true
    (List.rev !starts = [ (1, 0.0); (2, 1.0); (3, 2.0); (4, 3.0) ]);
  check_bool "each sleep is only the residual" true (sleeps () = [ 0.75; 0.75; 0.75 ])

let test_periodic_overrun_skips_sleep () =
  let t, now, sleep, sleeps = fake_clock () in
  let starts = ref [] in
  Clock.periodic ~now ~sleep ~interval:1.0 ~iterations:3 (fun tick ->
      starts := (tick, !t) :: !starts;
      t := !t +. 1.5;
      true);
  check_bool "overrunning ticks fire back to back" true
    (List.rev !starts = [ (1, 0.0); (2, 1.5); (3, 3.0) ]);
  check_bool "no sleeps past the deadline" true (sleeps () = [])

let test_periodic_reconverges_after_overrun () =
  let t, now, sleep, sleeps = fake_clock () in
  let work = [| 1.25; 0.25; 0.25 |] in
  let starts = ref [] in
  Clock.periodic ~now ~sleep ~interval:1.0 ~iterations:3 (fun tick ->
      starts := (tick, !t) :: !starts;
      t := !t +. work.(tick - 1);
      true);
  (* One slow tick delays its successor but the deficit does not
     accumulate: tick 3 is back on the absolute grid. *)
  check_bool "cadence reconverges" true
    (List.rev !starts = [ (1, 0.0); (2, 1.25); (3, 2.0) ]);
  check_bool "single catch-up residual" true (sleeps () = [ 0.5 ])

let test_periodic_stops_and_bounds () =
  let _, now, sleep, sleeps = fake_clock () in
  let calls = ref 0 in
  Clock.periodic ~now ~sleep ~interval:1.0 (fun tick ->
      incr calls;
      tick < 2);
  check_int "stops when the body declines" 2 !calls;
  check_bool "no sleep after the last tick" true (sleeps () = [ 1.0 ]);
  let _, now, sleep, sleeps = fake_clock () in
  let calls = ref 0 in
  Clock.periodic ~now ~sleep ~interval:1.0 ~iterations:1 (fun _ ->
      incr calls;
      true);
  check_int "iterations bound the ticks" 1 !calls;
  check_bool "a single tick never sleeps" true (sleeps () = []);
  Alcotest.check_raises "zero interval" (Invalid_argument "Clock.periodic: non-positive interval")
    (fun () -> Clock.periodic ~now ~sleep ~interval:0.0 (fun _ -> false));
  Alcotest.check_raises "zero iterations"
    (Invalid_argument "Clock.periodic: non-positive iterations") (fun () ->
      Clock.periodic ~now ~sleep ~interval:1.0 ~iterations:0 (fun _ -> false))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli edges" `Quick test_rng_bernoulli_edges;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "sample full" `Quick test_sample_full;
          Alcotest.test_case "fill_below" `Quick test_rng_fill_below;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "draws allocation-free" `Quick test_rng_draws_allocation_free;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "binomial edges" `Quick test_binomial_edges;
          Alcotest.test_case "binomial range" `Quick test_binomial_range;
          Alcotest.test_case "binomial moments small mean" `Quick test_binomial_moments_small_mean;
          Alcotest.test_case "binomial moments large mean" `Quick test_binomial_moments_large_mean;
          Alcotest.test_case "binomial matches exact" `Quick test_binomial_matches_exact;
          Alcotest.test_case "geometric" `Quick test_geometric;
          Alcotest.test_case "poisson" `Quick test_poisson;
          Alcotest.test_case "zipf basics" `Quick test_zipf_basics;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf empirical" `Quick test_zipf_empirical;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean and variance" `Quick test_stats_mean_var;
          Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "log2 histogram sum and clear" `Quick
            test_log2_histogram_sum_and_clear;
          Alcotest.test_case "windowed empty" `Quick test_windowed_empty;
          Alcotest.test_case "windowed rotation" `Quick test_windowed_rotation;
          Alcotest.test_case "windowed clock jumps" `Quick test_windowed_clock_jumps;
          Alcotest.test_case "windowed ring wrap" `Quick test_windowed_wrap;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "basics" `Quick test_bitvec_basics;
          Alcotest.test_case "bounds" `Quick test_bitvec_bounds;
          Alcotest.test_case "fill" `Quick test_bitvec_fill;
          Alcotest.test_case "set operations" `Quick test_bitvec_setops;
          Alcotest.test_case "roundtrip" `Quick test_bitvec_roundtrip;
          Alcotest.test_case "fold" `Quick test_bitvec_fold;
        ] );
      ( "bitmatrix",
        [
          Alcotest.test_case "basics" `Quick test_bitmatrix_basics;
          Alcotest.test_case "copy/equal" `Quick test_bitmatrix_copy_equal;
          Alcotest.test_case "map_rows" `Quick test_bitmatrix_map_rows;
        ] );
      ( "modarith",
        [
          Alcotest.test_case "basics" `Quick test_modarith_basics;
          Alcotest.test_case "inverse" `Quick test_modarith_inverse;
          Alcotest.test_case "primes" `Quick test_modarith_primes;
          Alcotest.test_case "validation" `Quick test_modarith_validation;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "malformed rejected" `Quick test_json_errors;
          Alcotest.test_case "path lookup" `Quick test_json_lookup;
          Alcotest.test_case "writer escaping" `Quick test_json_writer_escaping;
          Alcotest.test_case "writer numbers" `Quick test_json_writer_numbers;
        ] );
      ( "clock",
        [
          Alcotest.test_case "periodic absorbs work time" `Quick test_periodic_absorbs_work;
          Alcotest.test_case "periodic overrun skips sleep" `Quick
            test_periodic_overrun_skips_sleep;
          Alcotest.test_case "periodic reconverges after overrun" `Quick
            test_periodic_reconverges_after_overrun;
          Alcotest.test_case "periodic stop and bounds" `Quick test_periodic_stops_and_bounds;
        ] );
      ("properties", qsuite);
    ]
