(* Tests for the online serving engine (lib/serve): the bit-packed postings
   store against Index.query, the token-bucket admission control under a
   manual clock, the log2 latency histogram, workload generation, and the
   engine's per-request contract — every reply equals Index.query, every
   shed request is reported. *)

open Eppi_prelude
open Eppi_serve

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  if m = 0 then true else go 0

let check_close ?(tol = 1e-9) name a b =
  check_bool (Printf.sprintf "%s: |%g - %g| <= %g" name a b tol) true (Float.abs (a -. b) <= tol)

(* A published index with controlled sparsity: row j holds 1 + (j mod 5)
   providers at deterministic positions. *)
let test_index ~n ~m =
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for k = 0 to j mod 5 do
      Bitmatrix.set matrix ~row:j ~col:((j + (k * 7)) mod m) true
    done
  done;
  Eppi.Index.of_matrix matrix

let random_index rng ~n ~m ~density =
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for p = 0 to m - 1 do
      if Rng.float rng 1.0 < density then Bitmatrix.set matrix ~row:j ~col:p true
    done
  done;
  Eppi.Index.of_matrix matrix

(* ---------- Postings ---------- *)

let test_postings_matches_index () =
  let index = test_index ~n:37 ~m:23 in
  let postings = Postings.of_index index in
  check_int "owners" 37 (Postings.owners postings);
  check_int "providers" 23 (Postings.providers postings);
  for owner = 0 to 36 do
    check_list
      (Printf.sprintf "owner %d" owner)
      (Eppi.Index.query index ~owner)
      (Postings.query postings ~owner);
    check_int
      (Printf.sprintf "count %d" owner)
      (Eppi.Index.query_count index ~owner)
      (Postings.query_count postings ~owner)
  done

let test_postings_inverse () =
  let index = test_index ~n:37 ~m:23 in
  let matrix = Eppi.Index.matrix index in
  let postings = Postings.of_index index in
  for provider = 0 to 22 do
    let expected =
      List.filter
        (fun owner -> Bitmatrix.get matrix ~row:owner ~col:provider)
        (List.init 37 Fun.id)
    in
    check_list (Printf.sprintf "provider %d" provider) expected
      (Postings.owners_of postings ~provider);
    check_int
      (Printf.sprintf "audit count %d" provider)
      (List.length expected)
      (Postings.audit_count postings ~provider)
  done

let test_postings_iter_and_bounds () =
  let index = test_index ~n:10 ~m:8 in
  let postings = Postings.of_index index in
  let acc = ref [] in
  Postings.iter_query postings ~owner:7 (fun p -> acc := p :: !acc);
  check_list "iter matches query" (Postings.query postings ~owner:7) (List.rev !acc);
  Alcotest.check_raises "owner out of range" (Invalid_argument "Postings.query: id out of range")
    (fun () -> ignore (Postings.query postings ~owner:10));
  Alcotest.check_raises "provider out of range"
    (Invalid_argument "Postings.owners_of: id out of range") (fun () ->
      ignore (Postings.owners_of postings ~provider:8));
  let fwd_bits, inv_bits = Postings.entry_bits postings in
  check_int "fwd width: 8 providers need 3 bits" 3 fwd_bits;
  check_int "inv width: 10 owners need 4 bits" 4 inv_bits;
  check_bool "memory accounted" true (Postings.memory_bytes postings > 0)

let test_postings_empty_and_full_rows () =
  let matrix = Bitmatrix.create ~rows:3 ~cols:70 in
  for p = 0 to 69 do
    Bitmatrix.set matrix ~row:1 ~col:p true
  done;
  let postings = Postings.of_matrix matrix in
  check_list "empty row" [] (Postings.query postings ~owner:0);
  check_list "full row" (List.init 70 Fun.id) (Postings.query postings ~owner:1);
  check_list "empty row again" [] (Postings.query postings ~owner:2);
  check_list "untouched provider audits empty owner set" [ 1 ]
    (Postings.owners_of postings ~provider:69)

(* A row past its declared count is refused before anything is written,
   and so is a row left short or started out of order: the builder lays
   its slots out from the counts, so neither could be stored correctly. *)
let test_postings_builder_guards () =
  let b = Postings.builder ~providers:70 [| 1; 0; 2 |] in
  Postings.add b ~owner:0 5;
  Alcotest.check_raises "row past its count"
    (Invalid_argument "Postings.add: row past its declared count") (fun () ->
      Postings.add b ~owner:0 6);
  Alcotest.check_raises "provider out of range"
    (Invalid_argument "Postings.add: provider out of range") (fun () -> Postings.add b ~owner:2 70);
  Postings.add b ~owner:2 3;
  Alcotest.check_raises "a row left short" (Invalid_argument "Postings.finish: a row left short")
    (fun () -> ignore (Postings.finish b));
  Postings.add b ~owner:2 69;
  let p = Postings.finish b in
  check_list "owner 0" [ 5 ] (Postings.query p ~owner:0);
  check_list "owner 2" [ 3; 69 ] (Postings.query p ~owner:2);
  check_list "provider 69" [ 2 ] (Postings.owners_of p ~provider:69);
  let b = Postings.builder ~providers:4 [| 1; 1 |] in
  Alcotest.check_raises "owner 1 before owner 0 is full"
    (Invalid_argument "Postings.add: owners out of order or a row left short") (fun () ->
      Postings.add b ~owner:1 0)

(* The two-pass compiler the builder replaced, kept as the reference it
   must match: a first pass counts every row and column, a second writes
   each cell to both sides through per-provider cursors. *)
module Reference = struct
  type side = { offsets : int array; data : Bytes.t; width : int }
  type t = { fwd : side; inv : side }

  let width_for bound =
    let rec go w = if 1 lsl w >= bound then w else go (w + 1) in
    max 1 (go 1)

  let make_side ~width counts =
    let n = Array.length counts in
    let offsets = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      offsets.(i + 1) <- offsets.(i) + counts.(i)
    done;
    let data = Bytes.make ((((offsets.(n) * width) + 7) / 8) + 8) '\000' in
    { offsets; data; width }

  let write_entry side ~slot v =
    let bitpos = slot * side.width in
    let byte = bitpos lsr 3 and shift = bitpos land 7 in
    let cur = Bytes.get_int64_le side.data byte in
    Bytes.set_int64_le side.data byte (Int64.logor cur (Int64.shift_left (Int64.of_int v) shift))

  let read_entry side e =
    let bitpos = e * side.width in
    let byte = bitpos lsr 3 and shift = bitpos land 7 in
    Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le side.data byte) shift)
    land ((1 lsl side.width) - 1)

  let of_matrix matrix =
    let owners = Bitmatrix.rows matrix and providers = Bitmatrix.cols matrix in
    let row_counts = Array.make owners 0 and col_counts = Array.make providers 0 in
    for j = 0 to owners - 1 do
      Bitvec.iter_set
        (fun p ->
          row_counts.(j) <- row_counts.(j) + 1;
          col_counts.(p) <- col_counts.(p) + 1)
        (Bitmatrix.row matrix j)
    done;
    let fwd = make_side ~width:(width_for providers) row_counts in
    let inv = make_side ~width:(width_for owners) col_counts in
    let inv_cursor = Array.sub inv.offsets 0 providers in
    for j = 0 to owners - 1 do
      let slot = ref fwd.offsets.(j) in
      Bitvec.iter_set
        (fun p ->
          write_entry fwd ~slot:!slot p;
          incr slot;
          write_entry inv ~slot:inv_cursor.(p) j;
          inv_cursor.(p) <- inv_cursor.(p) + 1)
        (Bitmatrix.row matrix j)
    done;
    { fwd; inv }

  let list side i =
    List.init (side.offsets.(i + 1) - side.offsets.(i)) (fun k -> read_entry side (side.offsets.(i) + k))

  let memory_bytes t =
    let side s = Bytes.length s.data + (8 * Array.length s.offsets) in
    side t.fwd + side t.inv
end

(* Every list and count of the two compilers' stores. *)
let same_lists p (r : Reference.t) ~owners ~providers =
  Postings.owners p = owners
  && Postings.providers p = providers
  && List.for_all
       (fun owner ->
         let l = Reference.list r.fwd owner in
         Postings.query p ~owner = l && Postings.query_count p ~owner = List.length l)
       (List.init owners Fun.id)
  && List.for_all
       (fun provider ->
         let l = Reference.list r.inv provider in
         Postings.owners_of p ~provider = l && Postings.audit_count p ~provider = List.length l)
       (List.init providers Fun.id)

(* ... and every width and byte too. *)
let same_as_reference matrix =
  let p = Postings.of_matrix matrix and r = Reference.of_matrix matrix in
  same_lists p r ~owners:(Bitmatrix.rows matrix) ~providers:(Bitmatrix.cols matrix)
  && Postings.entry_bits p = (r.fwd.width, r.inv.width)
  && Postings.memory_bytes p = Reference.memory_bytes r

(* Over more providers than entries (and 4,096), the inverse side keeps
   lists only for the providers that occur: the same answers, in less
   memory than the reference's table of every provider. *)
let sparse_same_as_reference matrix =
  let p = Postings.of_matrix matrix and r = Reference.of_matrix matrix in
  same_lists p r ~owners:(Bitmatrix.rows matrix) ~providers:(Bitmatrix.cols matrix)
  && Postings.entry_bits p = (r.fwd.width, r.inv.width)
  && Postings.memory_bytes p < Reference.memory_bytes r

(* ---------- Admission ---------- *)

let test_admission_bucket () =
  let bucket = Admission.create { rate = 10.0; burst = 3 } in
  check_close "starts full" 3.0 (Admission.tokens bucket);
  (* Burst drains the bucket; the 4th request at the same instant is shed. *)
  check_bool "1" true (Admission.try_admit bucket ~now:100.0);
  check_bool "2" true (Admission.try_admit bucket ~now:100.0);
  check_bool "3" true (Admission.try_admit bucket ~now:100.0);
  check_bool "4 shed" false (Admission.try_admit bucket ~now:100.0);
  (* 0.125 s at 10 tokens/s refills 1.25 tokens (exact in binary). *)
  check_bool "refilled one" true (Admission.try_admit bucket ~now:100.125);
  check_bool "only one" false (Admission.try_admit bucket ~now:100.125);
  (* A long gap refills to burst, never past it. *)
  check_bool "a" true (Admission.try_admit bucket ~now:200.0);
  check_bool "b" true (Admission.try_admit bucket ~now:200.0);
  check_bool "c" true (Admission.try_admit bucket ~now:200.0);
  check_bool "d capped at burst" false (Admission.try_admit bucket ~now:200.0)

let test_admission_clock_skew_and_validation () =
  let bucket = Admission.create { rate = 1000.0; burst = 1 } in
  check_bool "first" true (Admission.try_admit bucket ~now:50.0);
  (* Time going backwards must refill nothing, not explode. *)
  check_bool "backwards no refill" false (Admission.try_admit bucket ~now:49.0);
  check_bool "forward refills" true (Admission.try_admit bucket ~now:50.1);
  Alcotest.check_raises "bad rate" (Invalid_argument "Admission.create: rate must be positive")
    (fun () -> ignore (Admission.create { rate = 0.0; burst = 1 }));
  Alcotest.check_raises "bad burst" (Invalid_argument "Admission.create: burst must be >= 1")
    (fun () -> ignore (Admission.create { rate = 1.0; burst = 0 }))

(* ---------- Histogram + metrics ---------- *)

let test_log2_histogram () =
  let h = Stats.Log2_histogram.create ~lo:1.0 ~buckets:8 () in
  List.iter (Stats.Log2_histogram.add h) [ 1.5; 3.0; 3.5; 100.0 ];
  check_int "total" 4 (Stats.Log2_histogram.total h);
  check_close "mean is exact" 27.0 (Stats.Log2_histogram.mean h);
  (* 1.5 -> bucket 0 [1,2); 3.0, 3.5 -> bucket 1 [2,4); 100 -> bucket 6. *)
  let counts = Stats.Log2_histogram.counts h in
  check_int "bucket 0" 1 counts.(0);
  check_int "bucket 1" 2 counts.(1);
  check_int "bucket 6" 1 counts.(6);
  (* Median rank 2 lands in bucket 1; geometric midpoint 2^1.5. *)
  check_close "p50" (Float.pow 2.0 1.5) (Stats.Log2_histogram.quantile h 0.5);
  check_close "p100 in the top occupied bucket" (Float.pow 2.0 6.5)
    (Stats.Log2_histogram.quantile h 1.0);
  let h2 = Stats.Log2_histogram.create ~lo:1.0 ~buckets:8 () in
  Stats.Log2_histogram.add h2 1.5;
  let merged = Stats.Log2_histogram.merge h h2 in
  check_int "merge total" 5 (Stats.Log2_histogram.total merged);
  Alcotest.check_raises "merge shape"
    (Invalid_argument "Log2_histogram.merge: incompatible histograms") (fun () ->
      ignore (Stats.Log2_histogram.merge h (Stats.Log2_histogram.create ~lo:1.0 ~buckets:4 ())))

let test_log2_histogram_edges () =
  (* Defaults: lo = 1 ns, 64 buckets.  Degenerate samples must clamp into
     the edge buckets, never crash or land out of range. *)
  let h = Stats.Log2_histogram.create () in
  (* Empty histogram: every statistic is defined and zero. *)
  check_int "empty total" 0 (Stats.Log2_histogram.total h);
  check_close "empty mean" 0.0 (Stats.Log2_histogram.mean h);
  check_close "empty p50" 0.0 (Stats.Log2_histogram.quantile h 0.5);
  check_close "empty p0" 0.0 (Stats.Log2_histogram.quantile h 0.0);
  check_close "empty p100" 0.0 (Stats.Log2_histogram.quantile h 1.0);
  (* Zero, negative and sub-nanosecond samples clamp into bucket 0. *)
  List.iter (Stats.Log2_histogram.add h) [ 0.0; -3.0; 1e-12 ];
  let counts = Stats.Log2_histogram.counts h in
  check_int "degenerate samples in bucket 0" 3 counts.(0);
  check_int "degenerate total" 3 (Stats.Log2_histogram.total h);
  check_close "bucket-0 quantile is the bottom midpoint" (1e-9 *. Float.pow 2.0 0.5)
    (Stats.Log2_histogram.quantile h 0.5);
  (* A sample past 2^63 ns (≈ 292 years) clamps into the top bucket. *)
  Stats.Log2_histogram.add h 1e30;
  let counts = Stats.Log2_histogram.counts h in
  check_int "huge sample in top bucket" 1 counts.(Array.length counts - 1);
  check_close "top-bucket quantile is the top midpoint" (1e-9 *. Float.pow 2.0 63.5)
    (Stats.Log2_histogram.quantile h 1.0);
  (* The mean stays exact even when buckets saturate. *)
  check_close ~tol:1e15 "mean exact under clamping" (((-3.0) +. 1e-12 +. 1e30) /. 4.0)
    (Stats.Log2_histogram.mean h);
  (* q = 0 on a non-empty histogram is the first occupied bucket. *)
  check_close "p0 non-empty" (1e-9 *. Float.pow 2.0 0.5) (Stats.Log2_histogram.quantile h 0.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Log2_histogram.quantile: q out of [0,1]") (fun () ->
      ignore (Stats.Log2_histogram.quantile h 1.5))

let test_metrics_snapshot_merges_shards () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr_queries a;
  Metrics.incr_queries a;
  Metrics.incr_served a;
  Metrics.record_latency a 1e-6;
  Metrics.incr_queries b;
  Metrics.incr_shed_rate b;
  Metrics.record_latency b 1e-3;
  let snap = Metrics.snapshot [ a; b ] in
  check_int "queries" 3 snap.queries;
  check_int "served" 1 snap.served;
  check_int "shed_rate" 1 snap.shed_rate;
  check_int "latency samples" 2 snap.latency_count;
  check_bool "p95 sees the slow sample" true (snap.p95 > 1e-4);
  (* to_json parses back to the snapshot's values. *)
  let json = Json.parse_exn (Metrics.to_json snap) in
  List.iter
    (fun (key, expected) ->
      check_bool (Printf.sprintf "json %s" key) true (Json.find_num json [ key ] = Some expected))
    [
      ("queries", 3.0);
      ("served", 1.0);
      ("shed_rate", 1.0);
      ("shed_queue", 0.0);
      ("p99_s", snap.p99);
    ]

let test_metrics_diff () =
  let m = Metrics.create () in
  Metrics.incr_queries m;
  Metrics.incr_served m;
  Metrics.record_latency m 1e-6;
  let older = Metrics.snapshot [ m ] in
  Metrics.incr_queries m;
  Metrics.incr_queries m;
  Metrics.incr_served m;
  Metrics.incr_unknown m;
  Metrics.incr_shed_rate m;
  Metrics.record_latency m 1e-3;
  let newer = Metrics.snapshot [ m ] in
  let d = Metrics.diff newer older in
  (* Counters are the interval's increments... *)
  check_int "queries" 2 d.queries;
  check_int "served" 1 d.served;
  check_int "unknown" 1 d.unknown;
  check_int "shed_rate" 1 d.shed_rate;
  check_int "latency_count" 1 d.latency_count;
  (* ...while the distribution fields come from the newer snapshot (the
     cumulative histogram's difference has no defined percentiles). *)
  check_close "p99 from newer" newer.p99 d.p99;
  check_close "mean from newer" newer.latency_mean d.latency_mean;
  (* diff s s zeroes every counter. *)
  let z = Metrics.diff newer newer in
  check_int "self-diff queries" 0 z.queries;
  check_int "self-diff latency_count" 0 z.latency_count

(* ---------- Workload ---------- *)

let test_workload_zipf () =
  let n = 100 in
  let w = Workload.zipf (Rng.create 5) ~n ~count:20_000 in
  check_int "count" 20_000 (Array.length w);
  Array.iter (fun owner -> check_bool "in range" true (owner >= 0 && owner < n)) w;
  let hits_0 = Array.fold_left (fun acc o -> if o = 0 then acc + 1 else acc) 0 w in
  let hits_99 = Array.fold_left (fun acc o -> if o = 99 then acc + 1 else acc) 0 w in
  check_bool "zipf head much hotter than tail" true (hits_0 > 10 * (hits_99 + 1));
  let w2 = Workload.zipf (Rng.create 5) ~n ~count:20_000 in
  check_bool "deterministic from seed" true (w = w2)

let test_workload_unknowns () =
  let n = 50 in
  let w = Workload.zipf ~unknown_fraction:0.3 (Rng.create 6) ~n ~count:10_000 in
  let unknowns = Array.fold_left (fun acc o -> if o >= n then acc + 1 else acc) 0 w in
  Array.iter (fun o -> check_bool "unknowns in [n, 2n)" true (o >= 0 && o < 2 * n)) w;
  check_close ~tol:0.05 "unknown fraction" 0.3 (float_of_int unknowns /. 10_000.0);
  Alcotest.check_raises "bad fraction" (Invalid_argument "Workload: unknown fraction out of [0, 1]")
    (fun () -> ignore (Workload.uniform ~unknown_fraction:1.5 (Rng.create 1) ~n:10 ~count:10))

(* ---------- Engine ---------- *)

let test_engine_matches_index () =
  let rng = Rng.create 21 in
  let index = random_index rng ~n:64 ~m:48 ~density:0.1 in
  let engine = Serve.create index in
  for owner = 0 to 63 do
    match Serve.query engine ~owner with
    | Serve.Providers providers ->
        check_list (Printf.sprintf "owner %d" owner) (Eppi.Index.query index ~owner) providers
    | _ -> Alcotest.fail "in-range owner not served"
  done

let test_engine_unknown_owners () =
  let index = test_index ~n:10 ~m:8 in
  let engine = Serve.create index in
  List.iter
    (fun owner ->
      check_bool (Printf.sprintf "owner %d is unknown" owner) true
        (Serve.query engine ~owner = Serve.Unknown_owner))
    [ 10; 10; -3; max_int; min_int ];
  let snap = Serve.metrics engine in
  check_int "unknown counted" 5 snap.unknown;
  check_int "nothing served" 0 snap.served;
  check_int "every request accounted" 5 snap.queries

let test_engine_workload_replies () =
  let index = test_index ~n:40 ~m:32 in
  let workload = Workload.zipf ~unknown_fraction:0.1 (Rng.create 8) ~n:40 ~count:5_000 in
  let engine = Serve.create index in
  let replies = Array.map (fun owner -> Serve.query engine ~owner) workload in
  let count f = Array.fold_left (fun acc r -> if f r then acc + 1 else acc) 0 replies in
  let snap = Serve.metrics engine in
  check_int "every request accounted" 5_000 snap.queries;
  check_int "served agree" (count (function Serve.Providers _ -> true | _ -> false)) snap.served;
  check_int "unknown agree" (count (( = ) Serve.Unknown_owner)) snap.unknown;
  (* Every reply agrees with the index itself, request by request. *)
  Array.iteri
    (fun i reply ->
      let owner = workload.(i) in
      match reply with
      | Serve.Providers providers ->
          check_bool "in range" true (owner < 40);
          check_list (Printf.sprintf "request %d" i) (Eppi.Index.query index ~owner) providers
      | Serve.Unknown_owner -> check_bool "really unknown" true (owner >= 40)
      | _ -> Alcotest.fail "no admission control configured, nothing may be shed")
    replies

let test_engine_rate_shedding_with_manual_clock () =
  let index = test_index ~n:20 ~m:16 in
  let admission = Some { Admission.rate = 1.0; burst = 10 } in
  let config = { Serve.admission } in
  let engine = Serve.create ~config index in
  let workload = Workload.uniform (Rng.create 11) ~n:20 ~count:100 in
  (* A frozen clock: no refill ever happens, so exactly burst are admitted. *)
  let replies = Array.map (fun owner -> Serve.query ~now:1000.0 engine ~owner) workload in
  let snap = Serve.metrics engine in
  check_int "burst admitted" 10 snap.served;
  check_int "rest shed by rate" 90 snap.shed_rate;
  check_int "replies agree" 90
    (Array.fold_left (fun acc r -> if r = Serve.Shed_rate_limit then acc + 1 else acc) 0 replies)

let test_engine_audit () =
  let index = test_index ~n:12 ~m:9 in
  let engine = Serve.create index in
  let postings = Serve.postings engine in
  (match Serve.audit engine ~provider:3 with
  | Some owners -> check_list "audit equals inverse postings" (Postings.owners_of postings ~provider:3) owners
  | None -> Alcotest.fail "in-range provider must audit");
  check_bool "out of range audit" true (Serve.audit engine ~provider:9 = None);
  check_int "audits counted" 1 (Serve.metrics engine).audits

(* The engine's one config field is its token bucket: a bucket
   [Admission.create] refuses is refused at [Serve.create]. *)
let test_engine_config_validation () =
  let index = test_index ~n:4 ~m:4 in
  let create admission = ignore (Serve.create ~config:{ Serve.admission = Some admission } index) in
  Alcotest.check_raises "rate" (Invalid_argument "Admission.create: rate must be positive")
    (fun () -> create { Admission.rate = 0.0; burst = 1 });
  Alcotest.check_raises "burst" (Invalid_argument "Admission.create: burst must be >= 1")
    (fun () -> create { Admission.rate = 1.0; burst = 0 })

(* ---------- Hot swap ---------- *)

(* [swaps] is the number of republishes the engine installed: the
   generation minus one, whether or not the engine served since. *)
let test_metrics_generation_and_swaps () =
  let base = Metrics.snapshot [ Metrics.create () ] in
  check_int "unlabelled generation" 1 base.generation;
  check_int "unlabelled swaps" 0 base.swaps;
  let engine = Serve.create (test_index ~n:8 ~m:6) in
  let before = Serve.metrics engine in
  check_int "initial generation" 1 before.generation;
  check_int "initial swaps" 0 before.swaps;
  ignore (Serve.republish engine (Postings.of_index (test_index ~n:9 ~m:6)));
  ignore (Serve.republish engine (Postings.of_index (test_index ~n:10 ~m:6)));
  let snap = Serve.metrics engine in
  check_int "generation after two republishes" 3 snap.generation;
  check_int "one swap per republish, before any query" 2 snap.swaps;
  for owner = 0 to 7 do
    ignore (Serve.query engine ~owner)
  done;
  let newer = Serve.metrics engine in
  check_int "queries add no swap" 2 newer.swaps;
  let d = Metrics.diff newer before in
  check_int "diff swaps" 2 d.swaps;
  check_int "diff generation from newer" 3 d.generation;
  let json = Json.parse_exn (Metrics.to_json newer) in
  check_bool "json carries generation" true (Json.find_int json [ "generation" ] = Some 3);
  check_bool "json carries swaps" true (Json.find_int json [ "swaps" ] = Some 2)

let test_workload_request_logs () =
  let w = [| 3; 1; 4; 1; 5 |] in
  check_bool "csv round-trip" true (Workload.of_csv_log (Workload.to_csv_log w) = w);
  let csv = "ts,client,owner\n# comment\n10,a,3\n\n11,b,7\n" in
  check_bool "timestamped csv with header and comment" true (Workload.of_csv_log csv = [| 3; 7 |]);
  (match Workload.of_csv_log "owner\n1\nnope\n" with
  | exception Failure msg -> check_bool "csv error names the line" true (contains msg "line 3")
  | _ -> Alcotest.fail "bad csv line must fail");
  let jsonl = "{\"ts\": 10, \"owner\": 3}\n{\"owner\":7}\n" in
  check_bool "jsonl" true (Workload.of_jsonl_log jsonl = [| 3; 7 |]);
  (* Only the top-level field counts, not one nested in another object. *)
  check_bool "jsonl reads the top-level owner" true
    (Workload.of_jsonl_log "{\"m\": {\"owner\": 1}, \"owner\": 2}\n" = [| 2 |]);
  List.iter
    (fun (what, line2) ->
      match Workload.of_jsonl_log ("{\"owner\": 1}\n" ^ line2 ^ "\n") with
      | exception Failure msg ->
          check_bool (Printf.sprintf "jsonl %s names the line" what) true (contains msg "line 2")
      | _ -> Alcotest.fail (Printf.sprintf "jsonl %s must fail" what))
    [
      ("without owner", "{\"no\": 2}");
      ("fractional owner", "{\"owner\": 3.5}");
      ("truncated line", "{\"owner\": 3");
    ]

(* Two capture files from different daemons, each timestamped: replaying
   the union means merging rows by timestamp, and the reader's last-field
   rule lets the merged file parse without stripping the leading columns. *)
let test_workload_merged_logs () =
  let log_a = "ts,client,owner\n10,a,3\n14,a,1\n18,a,4\n" in
  let log_b = "ts,client,owner\n11,b,7\n13,b,2\n19,b,9\n" in
  check_bool "log a alone" true (Workload.of_csv_log log_a = [| 3; 1; 4 |]);
  check_bool "log b alone" true (Workload.of_csv_log log_b = [| 7; 2; 9 |]);
  let rows text =
    String.split_on_char '\n' text
    |> List.filteri (fun i _ -> i > 0)
    |> List.filter (fun l -> String.trim l <> "")
  in
  let ts row = int_of_string (List.hd (String.split_on_char ',' row)) in
  let merged_rows =
    List.stable_sort (fun x y -> compare (ts x) (ts y)) (rows log_a @ rows log_b)
  in
  let merged = "ts,client,owner\n" ^ String.concat "\n" merged_rows ^ "\n" in
  check_bool "merged by timestamp" true
    (Workload.of_csv_log merged = [| 3; 7; 2; 1; 4; 9 |]);
  (* Recovery: blanks and comments a merge tool interleaves are skipped
     without aborting the replay... *)
  let noisy = "ts,client,owner\n10,a,3\n# daemon b joins here\n\n11,b,7\n" in
  check_bool "comments and blanks skipped" true (Workload.of_csv_log noisy = [| 3; 7 |]);
  (* ...but a truly garbled row aborts, naming the merged file's line and
     the offending field, so the capture can be fixed at the source. *)
  match Workload.of_csv_log "ts,client,owner\n10,a,3\n11,b,oops\n12,a,4\n" with
  | exception Failure msg ->
      check_bool "bad row names the merged line" true (contains msg "line 3");
      check_bool "bad row names the field" true (contains msg "oops")
  | _ -> Alcotest.fail "garbled merged row must fail"

let test_engine_republish () =
  let index1 = test_index ~n:20 ~m:12 in
  (* Bigger replacement: owner 22 exists only after the swap. *)
  let index2 = random_index (Rng.create 77) ~n:24 ~m:12 ~density:0.3 in
  let engine = Serve.create index1 in
  check_int "initial generation" 1 (Serve.generation engine);
  (match Serve.query_tagged engine ~owner:5 with
  | 1, Serve.Providers p -> check_list "pre-swap reply" (Eppi.Index.query index1 ~owner:5) p
  | _ -> Alcotest.fail "pre-swap query");
  check_bool "owner 22 unknown before swap" true (Serve.query engine ~owner:22 = Serve.Unknown_owner);
  let generation = Serve.republish engine (Postings.of_index index2) in
  check_int "republish bumps the generation" 2 generation;
  check_int "engine generation" 2 (Serve.generation engine);
  (match Serve.query_tagged engine ~owner:5 with
  | 2, Serve.Providers p ->
      check_list "post-swap reply from the new index" (Eppi.Index.query index2 ~owner:5) p
  | _ -> Alcotest.fail "post-swap query");
  check_bool "owner beyond the old index served after the swap" true
    (Serve.query engine ~owner:22 = Serve.Providers (Eppi.Index.query index2 ~owner:22));
  let snap = Serve.metrics engine in
  check_int "snapshot generation" 2 snap.generation;
  check_int "one republish, one swap" 1 snap.swaps

let test_engine_hot_swap_concurrent () =
  let n = 32 and m = 12 in
  let index1 = test_index ~n ~m in
  let index2 = random_index (Rng.create 99) ~n ~m ~density:0.3 in
  let truth1 = Array.init n (fun owner -> Eppi.Index.query index1 ~owner) in
  let truth2 = Array.init n (fun owner -> Eppi.Index.query index2 ~owner) in
  let engine = Serve.create index1 in
  let workload = Workload.uniform (Rng.create 3) ~n ~count:200_000 in
  (* This domain serves while another installs the second index. *)
  let swapper =
    Domain.spawn (fun () ->
        Unix.sleepf 0.002;
        Serve.republish engine (Postings.of_index index2))
  in
  let replies = Array.map (fun owner -> Serve.query_tagged engine ~owner) workload in
  check_int "swap installed generation 2" 2 (Domain.join swapper);
  (* Every reply is its tagged generation's row — a swap mid-run may
     answer from either generation, but never from a mixture — and the
     replies never regress to an older generation. *)
  let latest = ref 1 in
  Array.iteri
    (fun i (generation, reply) ->
      let owner = workload.(i) in
      let truth = if generation = 1 then truth1 else truth2 in
      check_bool
        (Printf.sprintf "request %d owner %d matches generation %d" i owner generation)
        true
        (reply = Serve.Providers truth.(owner));
      check_bool "generation never regresses" true (generation >= !latest);
      latest := generation)
    replies;
  for owner = 0 to n - 1 do
    check_bool "post-swap queries serve the new index" true
      (Serve.query engine ~owner = Serve.Providers truth2.(owner))
  done;
  let snap = Serve.metrics engine in
  check_int "conservation across the swap" snap.queries
    (snap.served + snap.unknown + snap.shed_rate + snap.shed_queue)

(* ---------- Properties ---------- *)

let qcheck_tests =
  let open QCheck in
  (* Rows empty, full, half or of a drawn density, over widths on both
     sides of a word and a drawn one. *)
  let gen_matrix =
    let build (n, width, seed) =
      let rng = Rng.create seed in
      let m = match width with 0 -> 1 | 1 -> 63 | 2 -> 64 | 3 -> 65 | _ -> 1 + Rng.int rng 300 in
      let matrix = Bitmatrix.create ~rows:n ~cols:m in
      for j = 0 to n - 1 do
        let density =
          match Rng.int rng 4 with 0 -> 0.0 | 1 -> 1.0 | 2 -> 0.5 | _ -> Rng.float rng 1.0
        in
        for p = 0 to m - 1 do
          if Rng.float rng 1.0 < density then Bitmatrix.set matrix ~row:j ~col:p true
        done
      done;
      matrix
    in
    make
      ~print:(fun mx -> Printf.sprintf "%dx%d" (Bitmatrix.rows mx) (Bitmatrix.cols mx))
      Gen.(map build (triple (int_range 1 40) (int_range 0 4) (int_range 0 1_000_000)))
  in
  [
    Test.make ~name:"builder compiles what the two-pass reference compiles" ~count:300 gen_matrix
      same_as_reference;
    Test.make ~name:"sparse inverse side answers what the reference answers" ~count:100
      (triple (int_range 1 8) (int_range 4097 9000) small_int)
      (fun (n, m, seed) ->
        let rng = Rng.create seed in
        let matrix = Bitmatrix.create ~rows:n ~cols:m in
        for j = 0 to n - 1 do
          for _ = 1 to Rng.int rng 6 do
            Bitmatrix.set matrix ~row:j ~col:(Rng.int rng (if Rng.bool rng then 8 else m)) true
          done
        done;
        sparse_same_as_reference matrix);
    Test.make ~name:"postings query equals Index.query for every owner" ~count:60
      (triple small_int (int_range 1 40) (int_range 1 40))
      (fun (seed, n, m) ->
        let rng = Rng.create seed in
        let index = random_index rng ~n ~m ~density:0.25 in
        let postings = Postings.of_index index in
        List.for_all
          (fun owner -> Postings.query postings ~owner = Eppi.Index.query index ~owner)
          (List.init n Fun.id));
    Test.make ~name:"inverse postings transpose the forward postings" ~count:60
      (triple small_int (int_range 1 40) (int_range 1 40))
      (fun (seed, n, m) ->
        let rng = Rng.create seed in
        let index = random_index rng ~n ~m ~density:0.25 in
        let postings = Postings.of_index index in
        List.for_all
          (fun provider ->
            Postings.owners_of postings ~provider
            = List.filter
                (fun owner -> List.mem provider (Postings.query postings ~owner))
                (List.init n Fun.id))
          (List.init m Fun.id));
    (* Before and after a republish, every reply is its tagged generation's
       Index.query row. *)
    Test.make ~name:"engine replies equal Index.query under a republish" ~count:40
      (pair small_int (int_range 1 30))
      (fun (seed, n) ->
        let rng = Rng.create seed in
        let index = random_index rng ~n ~m:20 ~density:0.2 in
        let index2 = random_index rng ~n ~m:20 ~density:0.2 in
        let engine = Serve.create index in
        let workload = Workload.zipf (Rng.create (seed + 1)) ~n ~count:300 in
        let replies = Array.map (fun owner -> Serve.query engine ~owner) workload in
        ignore (Serve.republish engine (Postings.of_index index2));
        Array.for_all2
          (fun owner reply -> reply = Serve.Providers (Eppi.Index.query index ~owner))
          workload replies
        && Array.for_all
             (fun owner ->
               Serve.query_tagged engine ~owner
               = (2, Serve.Providers (Eppi.Index.query index2 ~owner)))
             workload);
  ]

let () =
  Alcotest.run "serve"
    [
      ( "postings",
        [
          Alcotest.test_case "matches Index.query" `Quick test_postings_matches_index;
          Alcotest.test_case "inverse postings" `Quick test_postings_inverse;
          Alcotest.test_case "iter and bounds" `Quick test_postings_iter_and_bounds;
          Alcotest.test_case "empty and full rows" `Quick test_postings_empty_and_full_rows;
          Alcotest.test_case "builder guards its slots" `Quick test_postings_builder_guards;
        ] );
      ( "admission",
        [
          Alcotest.test_case "token bucket" `Quick test_admission_bucket;
          Alcotest.test_case "clock skew and validation" `Quick
            test_admission_clock_skew_and_validation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "log2 histogram" `Quick test_log2_histogram;
          Alcotest.test_case "log2 histogram edge cases" `Quick test_log2_histogram_edges;
          Alcotest.test_case "snapshot merges shards" `Quick test_metrics_snapshot_merges_shards;
          Alcotest.test_case "diff" `Quick test_metrics_diff;
          Alcotest.test_case "generation and swaps" `Quick test_metrics_generation_and_swaps;
        ] );
      ( "workload",
        [
          Alcotest.test_case "zipf shape" `Quick test_workload_zipf;
          Alcotest.test_case "unknown fraction" `Quick test_workload_unknowns;
          Alcotest.test_case "request logs" `Quick test_workload_request_logs;
          Alcotest.test_case "merged timestamped logs" `Quick test_workload_merged_logs;
        ] );
      ( "engine",
        [
          Alcotest.test_case "matches index" `Quick test_engine_matches_index;
          Alcotest.test_case "unknown owners" `Quick test_engine_unknown_owners;
          Alcotest.test_case "workload replies match index" `Quick test_engine_workload_replies;
          Alcotest.test_case "rate shedding, manual clock" `Quick
            test_engine_rate_shedding_with_manual_clock;
          Alcotest.test_case "audit" `Quick test_engine_audit;
          Alcotest.test_case "config validation" `Quick test_engine_config_validation;
          Alcotest.test_case "republish hot swap" `Quick test_engine_republish;
          Alcotest.test_case "hot swap under concurrent run" `Quick
            test_engine_hot_swap_concurrent;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
