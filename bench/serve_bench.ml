(* Online serving bench: replay a Zipf workload against the published index
   two ways — naive Index.query row scans and the serving engine over its
   compiled postings store, one Serve.query call per request — then
   account rate-limit shedding under a manual clock and gate the
   always-on stage telemetry's overhead through two real daemons.  Writes
   BENCH_serve.json and checks its gates on that value
   (Bench_util.publish).

   Timed phases consume each result as it is produced rather than
   retaining 200k posting lists: holding every result live charges the
   *caller's* retention to whichever phase runs next, which once made the
   postings store read slower than the row scan it beats 8x.  Each phase
   is preceded by Gc.compact so no phase pays for a predecessor's
   garbage.  Correctness is re-checked untimed: a per-owner sweep against
   Index.query over the whole id space, plus an aggregate response-volume
   identity per timed phase.

   Environment knobs: SERVE_N (owners, default 2000), SERVE_M (providers,
   default 4096), SERVE_QUERIES (default 200000), SERVE_TELEMETRY_QUERIES
   (sizes the telemetry-overhead gate: 30 alternating rounds of a tenth of
   this many queries per daemon; default 20000). *)

open Eppi_prelude
open Eppi_serve

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let wall f =
  Gc.compact ();
  let t0 = Clock.seconds () in
  let result = f () in
  (Clock.seconds () -. t0, result)

let run () =
  let n = getenv_int "SERVE_N" 2000 in
  let m = getenv_int "SERVE_M" 4096 in
  let queries = getenv_int "SERVE_QUERIES" 200_000 in
  Bench_util.heading
    (Printf.sprintf "Online serving: postings engine (n=%d owners, m=%d providers, %d queries)" n
       m queries);
  let rng = Rng.create 2026 in
  let freqs = Array.init n (fun j -> 1 + (j mod 8)) in
  let membership = Bench_util.matrix_of_frequencies rng ~m ~freqs in
  let epsilons = Array.init n (fun j -> 0.2 +. (0.6 *. float_of_int (j mod 5) /. 4.0)) in
  let r =
    Eppi.Construct.run (Rng.create 7) ~membership ~epsilons ~policy:(Eppi.Policy.Chernoff 0.9)
  in
  let index = r.index in
  let workload = Workload.zipf (Rng.create 11) ~n ~count:queries in
  (* Per-owner ground truth (n lists — small, unlike one list per request)
     and the total response volume of the workload, both untimed. *)
  let truth = Array.init n (fun owner -> Eppi.Index.query index ~owner) in
  let truth_len = Array.map List.length truth in
  let expect_listed =
    Array.fold_left (fun acc owner -> acc + truth_len.(owner)) 0 workload
  in
  (* Untimed per-owner sweep over the whole id space: every reply must
     equal Index.query exactly. *)
  let check_engine engine =
    for owner = 0 to n - 1 do
      match Serve.query engine ~owner with
      | Serve.Providers providers ->
          if providers <> truth.(owner) then
            failwith (Printf.sprintf "serve: engine diverged from Index.query at owner %d" owner)
      | _ -> failwith (Printf.sprintf "serve: engine did not serve owner %d" owner)
    done;
    match Serve.query engine ~owner:(n + 1) with
    | Serve.Unknown_owner -> ()
    | _ -> failwith "serve: engine served an out-of-range owner"
  in
  (* Naive replay: one Index.query row scan per request, result consumed. *)
  let naive_seconds, naive_listed =
    wall (fun () ->
        Array.fold_left
          (fun acc owner -> acc + List.length (Eppi.Index.query index ~owner))
          0 workload)
  in
  if naive_listed <> expect_listed then failwith "serve: naive replay volume diverged";
  Bench_util.note "naive Index.query replay: %.3f s (%.0f q/s)" naive_seconds
    (float_of_int queries /. naive_seconds);
  (* The engine: one Serve.query call, one postings-store row decode, per
     request. *)
  let postings_engine = Serve.create index in
  let postings_seconds, postings_listed =
    wall (fun () ->
        Array.fold_left
          (fun acc owner ->
            match Serve.query postings_engine ~owner with
            | Serve.Providers providers -> acc + List.length providers
            | _ -> acc)
          0 workload)
  in
  let snap = Serve.metrics postings_engine in
  if snap.served <> queries then
    failwith (Printf.sprintf "serve: engine served %d of %d" snap.served queries);
  if postings_listed <> expect_listed then
    failwith "serve: engine response volume diverged from Index.query";
  Bench_util.note "engine (postings store): %.3f s (%.0f q/s, x%.1f vs naive)"
    postings_seconds
    (float_of_int queries /. postings_seconds)
    (naive_seconds /. postings_seconds);
  check_engine postings_engine;
  (* Admission control under a manual clock: the workload arrives at one
     request per simulated microsecond into a bucket that refills 100k
     tokens/s, so once the burst drains the engine sheds what the bucket
     cannot cover — deterministically, whatever the host's speed.  Every
     request must be answered once, as a reply the metrics count. *)
  let admission = { Admission.rate = 100_000.0; burst = max 1 (queries / 40) } in
  let shed_engine = Serve.create ~config:{ Serve.admission = Some admission } index in
  let served_replies = ref 0 and shed_replies = ref 0 in
  Array.iteri
    (fun i owner ->
      match Serve.query ~now:(float_of_int i *. 1e-6) shed_engine ~owner with
      | Serve.Providers _ -> incr served_replies
      | Serve.Shed_rate_limit -> incr shed_replies
      | _ -> failwith "serve: admission answered an in-range owner unknown or queue-shed")
    workload;
  let shed_snap = Serve.metrics shed_engine in
  if shed_snap.queries <> queries then failwith "serve: admission lost requests";
  if !served_replies <> shed_snap.served || !shed_replies <> shed_snap.shed_rate then
    failwith "serve: replies disagree with metrics";
  Bench_util.note "admission: served %d, shed %d by rate limit" shed_snap.served
    shed_snap.shed_rate;
  (* Always-on stage telemetry must be invisible at the client: run two
     real daemons side by side — telemetry off and on (the config knob
     exists for exactly this measurement) — and compare the
     client-observed per-request p50 over a Unix socket.  Short rounds
     alternate (off, on, off, on, ...) so host drift lands on both sides
     alike; each side's p50 is over all of its samples.  The gate allows
     2% plus a 10 µs floor (a socket RTT's p50 sits in the tens of µs,
     where scheduler noise dwarfs percentages). *)
  let telemetry_queries = getenv_int "SERVE_TELEMETRY_QUERIES" 20_000 in
  let rounds = 30 in
  let per_round = max 1 (telemetry_queries / 10) in
  (* [f] gets [round samples ~off], which times [per_round] sequential
     queries against a started, warmed daemon into [samples] from [off]. *)
  let with_daemon ~telemetry f =
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "eppi-serve-bench-%d-%b.sock" (Unix.getpid ()) telemetry)
    in
    let addr = Eppi_net.Addr.Unix_socket path in
    let server =
      Eppi_net.Server.create
        ~config:{ Eppi_net.Server.default_config with telemetry }
        (Serve.create index)
    in
    let listener = Eppi_net.Server.listen addr in
    let daemon = Domain.spawn (fun () -> Eppi_net.Server.run server listener) in
    Fun.protect
      ~finally:(fun () ->
        (try
           let c = Eppi_net.Client.connect addr in
           (try Eppi_net.Client.shutdown c with _ -> ());
           Eppi_net.Client.close c
         with _ -> ());
        Domain.join daemon;
        try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let c = Eppi_net.Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Eppi_net.Client.close c)
          (fun () ->
            for i = 0 to 999 do
              ignore (Eppi_net.Client.query c ~owner:workload.(i mod Array.length workload))
            done;
            f (fun samples ~off ->
                for i = off to off + per_round - 1 do
                  let owner = workload.(i mod Array.length workload) in
                  let t0 = Clock.monotonic_ns () in
                  ignore (Eppi_net.Client.query c ~owner);
                  samples.(i) <- float_of_int (Clock.monotonic_ns () - t0) /. 1e9
                done)))
  in
  let samples_off = Array.make (rounds * per_round) 0.0 in
  let samples_on = Array.make (rounds * per_round) 0.0 in
  with_daemon ~telemetry:false (fun round_off ->
      with_daemon ~telemetry:true (fun round_on ->
          Gc.compact ();
          for r = 0 to rounds - 1 do
            round_off samples_off ~off:(r * per_round);
            round_on samples_on ~off:(r * per_round)
          done));
  let telemetry_off_p50 = Stats.quantile samples_off 0.5 in
  let telemetry_on_p50 = Stats.quantile samples_on 0.5 in
  Bench_util.note "telemetry overhead: p50 %.1f us off, %.1f us on (%+.2f%%)"
    (telemetry_off_p50 *. 1e6) (telemetry_on_p50 *. 1e6)
    (100.0 *. ((telemetry_on_p50 /. telemetry_off_p50) -. 1.0));
  let open Bench_util in
  (* Speed comparisons are gated at full size only (CI runs n=500,
     m=512, 50k queries); smoke sizes are too small to time. *)
  let full_size = n >= 500 && m >= 512 && queries >= 50_000 in
  publish "BENCH_serve.json"
    (Obj
       [ ("bench", Str "serve"); ("n_owners", Json.int n); ("m_providers", Json.int m);
         ("queries", Json.int queries);
         ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
         ("naive_seconds", Num naive_seconds); ("postings_seconds", Num postings_seconds);
         ("speedup_postings_vs_naive", Num (naive_seconds /. postings_seconds));
         (* The engine's mean service time over the replay, from the
            bench's own clock: the engine keeps counters, not times. *)
         ("latency_s", Obj [ ("mean", Num (postings_seconds /. float_of_int queries)) ]);
         ( "admission",
           Obj
             [ ("queries", Json.int shed_snap.queries); ("served", Json.int shed_snap.served);
               ("unknown", Json.int shed_snap.unknown);
               ("shed_rate", Json.int shed_snap.shed_rate);
               ("shed_queue", Json.int shed_snap.shed_queue) ] );
         ( "telemetry",
           Obj
             [ ("queries", Json.int telemetry_queries);
               ("off_p50_s", Num telemetry_off_p50); ("on_p50_s", Num telemetry_on_p50);
               ( "overhead_ok",
                 Bool (telemetry_on_p50 <= (1.02 *. telemetry_off_p50) +. 0.000_010) ) ] );
         ("metrics", Metrics.json snap) ])
    ([ ( "carries the headline fields",
         has [ "speedup_postings_vs_naive"; "latency_s"; "admission"; "telemetry"; "metrics" ] );
       ( "stage telemetry p50 within 2% + 10 us of telemetry off",
         fun v -> flag v [ "telemetry"; "overhead_ok" ] );
       ( "admission answers every request once and sheds by rate",
         fun v ->
           let a k = num v [ "admission"; k ] in
           a "served" +. a "unknown" +. a "shed_rate" +. a "shed_queue" = a "queries"
           && a "shed_queue" = 0.0 && a "shed_rate" > 0.0 ) ]
    @
    if full_size then
      [ ("postings beat the naive row scan", fun v -> num v [ "speedup_postings_vs_naive" ] > 1.0) ]
    else [])
