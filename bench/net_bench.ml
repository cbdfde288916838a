(* Network front-end bench: drive the real socket path — daemon in one
   domain, clients in this one — and measure (1) replay throughput as a
   function of pipeline depth and (2) the latency of binary hot-swap
   republishes while pipelined query load keeps flowing.  Writes
   BENCH_net.json.

   Correctness is asserted along the way: every replay conserves requests
   (served + unknown + shed = requests), the response volume matches the
   ground truth of the generation served, the binary republish payload
   must undercut the index's CSV form by at least 8x on the full-size
   index, and every republish returns the next generation in sequence.
   Every assertion on the result is a gate checked on BENCH_net.json as
   written (Bench_util.publish).

   A replication scenario follows the single-daemon runs: NET_REPLICAS
   daemons serve the same index as a replica set, a cluster republish
   fans the second index out to all of them (asserted converged within
   the round), then Zipf traffic at a fixed offered load runs against
   the cluster while one replica is killed mid-run.  Asserted: at least
   one failover happened, the error rate after the failover settles is
   zero, and after a post-kill cluster republish every surviving replica
   reports the same generation within one fan-out round.  Recorded:
   baseline vs kill-window p99, failover latency, generation-convergence
   lag.

   Environment knobs: NET_N (owners, default 2000), NET_M (providers,
   default 1024), NET_QUERIES (replay size, default 50000), NET_DEPTHS
   (comma list, default 1,4,16,64), NET_SWAPS (republish count under
   load, default 30), NET_REPLICAS (replica count, default 3, min 2),
   NET_REPL_QUERIES (replication-scenario traffic, default
   min(NET_QUERIES, 6000)), NET_REPL_QPS (offered load, default 2000). *)

open Eppi_prelude
open Eppi_net
module Serve = Eppi_serve.Serve
module Workload = Eppi_serve.Workload

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let getenv_int_list name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun tok -> int_of_string_opt (String.trim tok))
      |> List.filter (fun d -> d >= 1)

let depths () = getenv_int_list "NET_DEPTHS" [ 1; 4; 16; 64 ]

(* Nearest-rank percentile over a sorted array of seconds. *)
let percentile sorted q =
  let len = Array.length sorted in
  sorted.(max 0 (min (len - 1) (int_of_float (Float.round (q *. float_of_int (len - 1))))))

let sorted_stats seconds =
  let s = Array.copy seconds in
  Array.sort compare s;
  (percentile s 0.50, percentile s 0.99, s.(Array.length s - 1))

let run () =
  let n = getenv_int "NET_N" 2000 in
  let m = getenv_int "NET_M" 1024 in
  let queries = getenv_int "NET_QUERIES" 50_000 in
  let swaps = max 1 (getenv_int "NET_SWAPS" 30) in
  let cores = Domain.recommended_domain_count () in
  Bench_util.heading
    (Printf.sprintf
       "Network front-end: pipeline sweep + hot-swap latency (n=%d owners, m=%d providers, %d \
        queries, %d cores)"
       n m queries cores);
  let rng = Rng.create 2026 in
  let freqs = Array.init n (fun j -> 1 + (j mod 8)) in
  let membership = Bench_util.matrix_of_frequencies rng ~m ~freqs in
  let epsilons = Array.init n (fun j -> 0.2 +. (0.6 *. float_of_int (j mod 5) /. 4.0)) in
  let build seed policy =
    (Eppi.Construct.run (Rng.create seed) ~membership ~epsilons ~policy).index
  in
  let index1 = build 7 (Eppi.Policy.Chernoff 0.9) in
  let index2 = build 8 Eppi.Policy.Basic in
  let workload = Workload.zipf (Rng.create 11) ~n ~count:queries in
  let truth_len = Array.init n (fun owner -> Eppi.Index.query_count index1 ~owner) in
  let expect_listed =
    Array.fold_left (fun acc owner -> acc + truth_len.(owner)) 0 workload
  in
  let path = Printf.sprintf "/tmp/eppi-net-bench-%d.sock" (Unix.getpid ()) in
  let addr = Addr.Unix_socket path in
  (* Start a daemon over [index1], run [f], then shut it down and join. *)
  let with_daemon f =
    let engine = Serve.create index1 in
    let server = Server.create engine in
    let listener = Server.listen addr in
    let daemon = Domain.spawn (fun () -> Server.run server listener) in
    Fun.protect
      ~finally:(fun () ->
        (try
           let c = Client.connect addr in
           (try Client.shutdown c with _ -> ());
           Client.close c
         with _ -> ());
        Domain.join daemon;
        try Sys.remove path with Sys_error _ -> ())
      (fun () -> f engine)
  in
  let replay_checked ~depth client =
    let summary = Replay.run ~depth (Client.pipeline client) workload in
    if summary.served + summary.unknown + summary.shed <> queries then
      failwith "net: replay lost requests";
    if summary.served <> queries then failwith "net: replay shed or missed requests";
    if summary.providers_listed <> expect_listed then
      failwith "net: response volume diverged from Index.query";
    if summary.first_generation <> 1 || summary.last_generation <> 1 then
      failwith "net: unexpected generation during a sweep";
    summary
  in
  (* ---- pipeline depth sweep ---- *)
  let depth_runs =
    with_daemon (fun _engine ->
        List.map
          (fun depth ->
            let client = Client.connect addr in
            let summary =
              Fun.protect
                ~finally:(fun () -> Client.close client)
                (fun () -> replay_checked ~depth client)
            in
            let qps = float_of_int queries /. summary.wall_seconds in
            Bench_util.note "depth %3d: %.3f s (%.0f q/s)" depth summary.wall_seconds qps;
            (depth, summary.wall_seconds, qps))
          (depths ()))
  in
  (* ---- republish payload sizes ---- *)
  let binary2 = Index_codec.encode index2 in
  let csv_bytes = String.length (Eppi.Index.to_csv index2) in
  let binary_bytes = String.length binary2 in
  let payload_ratio = float_of_int csv_bytes /. float_of_int binary_bytes in
  Bench_util.note "republish payload: csv %d bytes, binary %d bytes (%.1fx smaller)" csv_bytes
    binary_bytes payload_ratio;
  (* ---- hot-swap latency under load ----
     One daemon, one load domain keeping 32-deep pipelined queries in
     flight, admin connection timing republish round-trips alternating
     between the two indexes. *)
  let swap_stats =
    with_daemon (fun engine ->
        let stop = Atomic.make false in
        let load =
          Domain.spawn (fun () ->
              let client = Client.connect addr in
              let rng = Rng.create 5 in
              let replies = ref 0 in
              while not (Atomic.get stop) do
                let frames = List.init 32 (fun _ -> Wire.Query { owner = Rng.int rng n }) in
                List.iter
                  (function
                    | Wire.Reply _ -> incr replies
                    | other -> Client.unexpected "load query" other)
                  (Client.pipeline client frames)
              done;
              Client.close client;
              !replies)
        in
        let admin = Client.connect addr in
        let expected_generation = ref 1 in
        let time_swap index =
          incr expected_generation;
          let t0 = Clock.seconds () in
          (match Client.republish_index admin index with
          | Ok generation when generation = !expected_generation -> ()
          | Ok generation ->
              failwith
                (Printf.sprintf "net: swap installed generation %d, expected %d" generation
                   !expected_generation)
          | Error msg -> failwith ("net: republish failed: " ^ msg));
          Clock.seconds () -. t0
        in
        let swap_seconds =
          Array.init swaps (fun i -> time_swap (if i mod 2 = 0 then index2 else index1))
        in
        Atomic.set stop true;
        let load_replies = Domain.join load in
        let stats = Client.stats_json admin in
        Client.shutdown admin;
        Client.close admin;
        let p50, p99, worst = sorted_stats swap_seconds in
        Bench_util.note
          "hot swap under load: p50 %.2g s, p99 %.2g s, worst %.2g s over %d swaps (%d \
           concurrent replies)"
          p50 p99 worst swaps load_replies;
        ( Json.Obj
            [ ("count", Json.int swaps); ("p50_s", Json.Num p50); ("p99_s", Num p99);
              ("worst_s", Num worst); ("final_generation", Json.int (Serve.generation engine));
              ("concurrent_replies", Json.int load_replies) ],
          Json.parse_exn stats ))
  in
  let swap, metrics = swap_stats in
  (* ---- replication: availability under replica kill ----
     NET_REPLICAS daemons over [index1] form a static replica set.  A
     cluster republish fans [index2] out (generation 1 -> 2 everywhere,
     converged within the round), then a failover-aware cluster client
     drives Zipf windows at a fixed offered load; replica 0 is killed
     mid-run.  The client is expected to fail over without surfacing
     errors once the failover settles; a second cluster republish with
     the dead replica still listed must succeed on the survivors and
     leave them generation-converged within that one round. *)
  let replicas = max 2 (getenv_int "NET_REPLICAS" 3) in
  let repl_queries = max 1 (getenv_int "NET_REPL_QUERIES" (min queries 6000)) in
  let repl_qps =
    match Sys.getenv_opt "NET_REPL_QPS" with
    | Some s -> ( try Float.max 1.0 (float_of_string (String.trim s)) with _ -> 2000.0)
    | None -> 2000.0
  in
  let repl_depth = 32 in
  let repl_paths =
    List.init replicas (fun i ->
        Printf.sprintf "/tmp/eppi-net-repl-%d-%d.sock" (Unix.getpid ()) i)
  in
  let repl_addrs = List.map (fun p -> Addr.Unix_socket p) repl_paths in
  let repl_set = Eppi_cluster.Replica_set.of_addrs repl_addrs in
  let peer_strings = List.map Addr.to_string repl_addrs in
  let repl_daemons =
    List.map
      (fun addr ->
        let server =
          Server.create
            ~config:{ Server.default_config with peers = peer_strings }
            (Serve.create index1)
        in
        let listener = Server.listen addr in
        Domain.spawn (fun () -> Server.run server listener))
      repl_addrs
  in
  let shutdown_replica addr =
    (* No connect retries: the listeners were bound before the domains
       spawned, so a live replica accepts immediately and a dead one
       (the killed socket is gone) fails fast instead of stalling. *)
    try
      let c = Client.connect addr in
      (try Client.shutdown c with _ -> ());
      Client.close c
    with _ -> ()
  in
  let replication =
    Fun.protect
      ~finally:(fun () ->
        List.iter shutdown_replica repl_addrs;
        List.iter Domain.join repl_daemons;
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) repl_paths)
      (fun () ->
        (* Initial fan-out: everyone applies index2, generation 1 -> 2. *)
        let initial = Eppi_cluster.Fanout.republish repl_set index2 in
        if initial.generation <> Some 2 then
          failwith "net: initial fan-out generations diverge";
        let initial_converged =
          Eppi_cluster.Fanout.converged (Eppi_cluster.Fanout.status repl_set) = Some 2
        in
        Bench_util.note "replication: %d/%d replicas at generation 2 in %.3f s (converged: %b)"
          initial.succeeded replicas initial.wall_seconds initial_converged;
        (* Offered-load traffic with a mid-run kill.  Round-robin sends
           every replica its share of the windows, so the killed replica 0
           is one actually serving. *)
        let cluster = Eppi_cluster.Client.create ~cooldown:0.5 ~seed:31 repl_set in
        let windows = max 1 (repl_queries / repl_depth) in
        let kill_at = windows / 2 in
        let window_gap = float_of_int repl_depth /. repl_qps in
        let results = Array.make windows (0.0, 0.0, false) in
        let errors_total = ref 0 in
        let t_kill = ref 0.0 in
        let t0 = Clock.seconds () in
        for k = 0 to windows - 1 do
          if k = kill_at then begin
            shutdown_replica (List.hd repl_addrs);
            t_kill := Clock.seconds () -. t0
          end;
          let target = t0 +. (float_of_int k *. window_gap) in
          let now = Clock.seconds () in
          if target > now then Unix.sleepf (target -. now);
          let base = k * repl_depth in
          let batch =
            List.init repl_depth (fun j ->
                Wire.Query { owner = workload.((base + j) mod queries) })
          in
          let t_start = Clock.seconds () in
          let ok =
            match Eppi_cluster.Client.pipeline cluster batch with
            | responses ->
                List.iter
                  (function
                    | Wire.Reply _ -> ()
                    | other -> Client.unexpected "replication query" other)
                  responses;
                true
            | exception _ ->
                incr errors_total;
                false
          in
          results.(k) <- (Clock.seconds () -. t0, Clock.seconds () -. t_start, ok)
        done;
        let cstats = Eppi_cluster.Client.stats cluster in
        Eppi_cluster.Client.close cluster;
        let settle = !t_kill +. 1.0 in
        let errors_after_settle =
          Array.fold_left
            (fun acc (t_end, _, ok) -> if (not ok) && t_end > settle then acc + 1 else acc)
            0 results
        in
        let lat_of f =
          match
            Array.to_list results
            |> List.filter_map (fun (t_end, lat, ok) -> if ok && f t_end then Some lat else None)
          with
          | [] -> None
          | lats ->
              let sorted = Array.of_list lats in
              Array.sort compare sorted;
              Some (percentile sorted 0.99)
        in
        let p99_baseline = Option.value ~default:0.0 (lat_of (fun t -> t < !t_kill)) in
        let p99_kill_window =
          match lat_of (fun t -> t >= !t_kill && t <= settle) with
          | Some p -> p
          | None ->
              (* Sparse run: fall back to the first completed window after
                 the kill — the one that paid the failover. *)
              Option.value ~default:0.0 (lat_of (fun t -> t >= !t_kill))
        in
        let failover_latency =
          List.fold_left Float.max 0.0 cstats.failover_seconds
        in
        Bench_util.note
          "replication kill: %d windows, %d errors (%d after settle), %d failovers, failover \
           latency %.4f s, p99 baseline %.2g s vs kill window %.2g s"
          windows !errors_total errors_after_settle cstats.failovers failover_latency
          p99_baseline p99_kill_window;
        (* Cluster republish with the dead replica still listed: the
           survivors must install generation 3 and agree within this one
           fan-out round. *)
        let second = Eppi_cluster.Fanout.republish ~retries:1 repl_set index1 in
        if second.generation <> Some 3 then failwith "net: survivor generations diverge";
        let survivors = Eppi_cluster.Replica_set.of_addrs (List.tl repl_addrs) in
        let converged_within_round =
          Eppi_cluster.Fanout.converged (Eppi_cluster.Fanout.status survivors) = Some 3
        in
        Bench_util.note
          "replication republish around dead replica: %d/%d replicas at generation 3, \
           convergence lag %.3f s (converged: %b)"
          second.succeeded replicas second.wall_seconds converged_within_round;
        let fanout (r : Eppi_cluster.Fanout.report) ~converged =
          [ ("succeeded", Json.int r.succeeded); ("failed", Json.int r.failed);
            ("wall_s", Num r.wall_seconds); ("converged_within_round", Bool converged) ]
        in
        Json.Obj
          [ ("replicas", Json.int replicas); ("queries", Json.int repl_queries);
            ("windows", Json.int windows); ("depth", Json.int repl_depth);
            ("offered_qps", Num (Float.round repl_qps));
            ("initial_republish", Obj (fanout initial ~converged:initial_converged));
            ( "kill",
              Obj
                [ ("at_s", Num !t_kill); ("errors_total", Json.int !errors_total);
                  ("errors_after_settle", Json.int errors_after_settle);
                  ("p99_baseline_s", Num p99_baseline); ("p99_kill_window_s", Num p99_kill_window);
                  ("failovers", Json.int cstats.failovers);
                  ("failover_latency_s", Num failover_latency) ] );
            ( "cluster_republish",
              Obj
                (fanout second ~converged:converged_within_round
                @ [ ("convergence_lag_s", Num second.wall_seconds) ]) ) ])
  in
  let runs key rows =
    Json.List
      (List.map
         (fun (k, seconds, qps) ->
           Json.Obj [ (key, Json.int k); ("seconds", Num seconds); ("qps", Num (Float.round qps)) ])
         rows)
  in
  let open Bench_util in
  (* Size and speed comparisons are gated at full size only (CI runs
     n=2000, m=1024); structural and accounting gates hold at any size. *)
  let full_size = n >= 1000 && m >= 512 in
  let repl path v = num v ("replication" :: path) in
  publish "BENCH_net.json"
    (Obj
       [ ("bench", Str "net"); ("n_owners", Json.int n); ("m_providers", Json.int m);
         ("queries", Json.int queries); ("cores", Json.int cores);
         ("depth_runs", runs "depth" depth_runs);
         ( "payload",
           Obj
             [ ("csv_bytes", Json.int csv_bytes); ("binary_bytes", Json.int binary_bytes);
               ("ratio", Num payload_ratio) ] );
         ("swap", swap); ("replication", replication);
         ("metrics", metrics) ])
    ([ ( "carries the headline fields",
         has [ "depth_runs"; "payload"; "swap"; "cores"; "replication"; "metrics" ] );
       ( "depth sweep populated, every run timed",
         fun v ->
           let rs = items v [ "depth_runs" ] in
           List.length rs >= min 2 (List.length (depths ()))
           && List.for_all (fun r -> num r [ "qps" ] > 0.0 && num r [ "seconds" ] > 0.0) rs );
       ("binary payload smaller than CSV", fun v -> num v [ "payload"; "ratio" ] > 1.0);
       ( "every republish installed the next generation",
         fun v ->
           num v [ "swap"; "final_generation" ] = num v [ "swap"; "count" ] +. 1.0 );
       ( "swap latencies ordered: 0 < p50 <= p99 <= worst",
         fun v ->
           let l k = num v [ "swap"; k ] in
           0.0 < l "p50_s" && l "p50_s" <= l "p99_s" && l "p99_s" <= l "worst_s" );
       ("queries kept flowing during swaps", fun v -> num v [ "swap"; "concurrent_replies" ] > 0.0);
       ( "daemon conserves requests",
         fun v ->
           let c k = num v [ "metrics"; k ] in
           c "queries" = c "served" +. c "unknown" +. c "shed_rate" +. c "shed_queue" );
       ( "initial fan-out reached every replica and converged within the round",
         fun v ->
           repl [ "initial_republish"; "succeeded" ] v = repl [ "replicas" ] v
           && flag v [ "replication"; "initial_republish"; "converged_within_round" ] );
       ( "replica kill failed over, zero errors once settled",
         fun v ->
           repl [ "kill"; "failovers" ] v >= 1.0
           && repl [ "kill"; "errors_after_settle" ] v = 0.0 );
       ( "kill-window latencies recorded",
         fun v ->
           List.for_all
             (fun k -> repl [ "kill"; k ] v > 0.0)
             [ "p99_baseline_s"; "p99_kill_window_s"; "failover_latency_s" ] );
       ( "post-kill fan-out reached the survivors and converged within the round",
         fun v ->
           repl [ "cluster_republish"; "succeeded" ] v = repl [ "replicas" ] v -. 1.0
           && repl [ "cluster_republish"; "failed" ] v = 1.0
           && flag v [ "replication"; "cluster_republish"; "converged_within_round" ] ) ]
    @
    if not full_size then []
    else
      [ ("binary payload >= 8x smaller than CSV", fun v -> num v [ "payload"; "ratio" ] >= 8.0) ])
