(* Approximate-identity (fuzzy) serving bench: build the resolver over a
   synthetic roster, replay typo/variant probe workloads at several noise
   rates, and measure recall@k against the planted truth, exact-vs-fuzzy
   latency, the candidate-set-size distribution and the scanned-size
   distribution, gating that every probe scans at least the padding floor
   min(min_scan, n).  Also scans every
   encoded fuzzy request frame for plaintext demographic bytes — the wire
   invariant docs/FUZZY.md argues for — and re-checks the <2%
   disabled-tracing overhead on the fuzzy path.  Writes BENCH_fuzzy.json
   and checks its gates on that value (Bench_util.publish).

   Environment knobs: FUZZY_N (owners, default 2000), FUZZY_M (providers,
   default 1024), FUZZY_QUERIES (default 2000), FUZZY_K (default 10). *)

open Eppi_prelude
open Eppi_serve
module Demographic = Eppi_linkage.Demographic
module Probe = Eppi_fuzzy.Probe
module Resolver = Eppi_fuzzy.Resolver
module Roster = Eppi_fuzzy.Roster

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let percentile sorted q =
  let len = Array.length sorted in
  if len = 0 then 0.0
  else sorted.(min (len - 1) (int_of_float (float_of_int len *. q)))

let scale_noise f =
  let d = Demographic.default_noise in
  {
    Demographic.typo_rate = Float.min 1.0 (d.typo_rate *. f);
    dob_error_rate = Float.min 1.0 (d.dob_error_rate *. f);
    zip_error_rate = Float.min 1.0 (d.zip_error_rate *. f);
  }

(* The plaintext bytes of a record that must never appear in its frame:
   name fields, the zip digits and the dob rendered every way the probe
   pipeline ever renders it. *)
let plaintexts (r : Demographic.t) =
  let y, m, d = r.dob in
  [ r.first; r.last; r.zip; Probe.dob_string (y, m, d) ]
  |> List.filter (fun s -> String.length s >= 3)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn > 0 && at 0

let run () =
  let n = getenv_int "FUZZY_N" 2000 in
  let m = getenv_int "FUZZY_M" 1024 in
  let queries = getenv_int "FUZZY_QUERIES" 2000 in
  let k = getenv_int "FUZZY_K" 10 in
  let linkage_seed = 0xE991 in
  Bench_util.heading
    (Printf.sprintf "Fuzzy resolution: recall@%d and latency (n=%d owners, m=%d providers, %d queries)"
       k n m queries);
  let rng = Rng.create 2026 in
  let freqs = Array.init n (fun j -> 1 + (j mod 8)) in
  let membership = Bench_util.matrix_of_frequencies rng ~m ~freqs in
  let epsilons = Array.init n (fun j -> 0.2 +. (0.6 *. float_of_int (j mod 5) /. 4.0)) in
  let r =
    Eppi.Construct.run (Rng.create 7) ~membership ~epsilons ~policy:(Eppi.Policy.Chernoff 0.9)
  in
  let index = r.index in
  let roster = Roster.generate (Rng.create 31) ~n in
  let config = Resolver.default_config ~seed:linkage_seed in
  let build_seconds, resolver =
    let t0 = Clock.seconds () in
    let resolver = Resolver.build config roster in
    (Clock.seconds () -. t0, resolver)
  in
  Bench_util.note "resolver: %d signatures built in %.3f s" (Resolver.entries resolver)
    build_seconds;
  (* The padding floor, and the scanned-size summaries over sorted scans. *)
  let floor = min config.min_scan n in
  let mean sorted =
    float_of_int (Array.fold_left ( + ) 0 sorted) /. float_of_int (Array.length sorted)
  in
  let at_floor sorted =
    float_of_int (Array.fold_left (fun c s -> if s = floor then c + 1 else c) 0 sorted)
    /. float_of_int (Array.length sorted)
  in
  let engine = Serve.create ~resolver index in
  (* Ground truth for candidate rows, untimed. *)
  let truth_rows = Array.init n (fun owner -> Eppi.Index.query index ~owner) in
  (* One workload per noise rate; probes are encoded up front so the timed
     loop measures resolution, not Bloom encoding. *)
  let leaks = ref 0 in
  let noise_runs =
    List.map
      (fun factor ->
        let noise = scale_noise factor in
        let workload =
          Workload.fuzzy ~noise (Rng.create (1000 + int_of_float (factor *. 10.)))
            ~roster ~count:queries
        in
        let probes =
          Array.map (fun (_, observed) -> Probe.of_demographic config.params observed) workload
        in
        (* Wire invariant: no plaintext demographic bytes in any frame. *)
        Array.iteri
          (fun i probe ->
            let truth, observed = workload.(i) in
            let frame =
              Eppi_net.Wire.frame_to_string
                (Eppi_net.Wire.Request (Eppi_net.Wire.Query_fuzzy { probe; k }))
            in
            List.iter
              (fun text ->
                if contains_substring frame text then begin
                  incr leaks;
                  Bench_util.note "frame for owner %d leaks plaintext %S (noise x%.1f)" truth
                    text factor
                end)
              (plaintexts observed @ plaintexts roster.(truth)))
          probes;
        (* Signatures scored per probe, gathered outside the timed loop. *)
        let scanned =
          Array.map (fun probe -> (Resolver.resolve resolver probe ~k).scanned) probes
        in
        Array.sort compare scanned;
        let hits = ref 0 and empty = ref 0 in
        let candidate_sizes = Array.make (Array.length probes) 0 in
        let latencies = Array.make (Array.length probes) 0.0 in
        Gc.compact ();
        Array.iteri
          (fun i probe ->
            let truth, _ = workload.(i) in
            let t0 = Clock.seconds () in
            let _gen, reply = Serve.query_fuzzy ~k engine probe in
            latencies.(i) <- Clock.seconds () -. t0;
            match reply with
            | Serve.Candidates candidates ->
                candidate_sizes.(i) <- List.length candidates;
                if candidates = [] then incr empty;
                if List.exists (fun (c : Serve.candidate) -> c.owner = truth) candidates then begin
                  incr hits;
                  (* Candidate rows must match the published index exactly. *)
                  let c =
                    List.find (fun (c : Serve.candidate) -> c.owner = truth) candidates
                  in
                  if c.providers <> truth_rows.(truth) then
                    failwith "fuzzy: candidate row diverged from Index.query"
                end
            | _ -> failwith "fuzzy: engine rejected a well-formed probe")
          probes;
        let recall = float_of_int !hits /. float_of_int queries in
        Array.sort compare latencies;
        let sizes_sorted = Array.copy candidate_sizes in
        Array.sort compare sizes_sorted;
        let mean_size =
          float_of_int (Array.fold_left ( + ) 0 candidate_sizes) /. float_of_int queries
        in
        Bench_util.note
          "noise x%.1f: recall@%d %.4f, empty %d, candidates mean %.2f max %d, scanned mean %.1f \
           max %d (%.1f%% at the floor), p50 %.2g s p99 %.2g s"
          factor k recall !empty mean_size
          sizes_sorted.(Array.length sizes_sorted - 1)
          (mean scanned) scanned.(Array.length scanned - 1)
          (100.0 *. at_floor scanned)
          (percentile latencies 0.5) (percentile latencies 0.99);
        (factor, recall, !empty, mean_size, sizes_sorted, scanned, latencies))
      [ 0.0; 1.0; 2.0 ]
  in
  let default_recall =
    List.find_map (fun (f, r, _, _, _, _, _) -> if f = 1.0 then Some r else None) noise_runs
    |> Option.get
  in
  (* Exact-path latency on the same engine for the side-by-side. *)
  let exact_workload = Workload.zipf (Rng.create 17) ~n ~count:queries in
  let exact_latencies = Array.make queries 0.0 in
  Gc.compact ();
  Array.iteri
    (fun i owner ->
      let t0 = Clock.seconds () in
      (match Serve.query engine ~owner with
      | Serve.Providers _ -> ()
      | _ -> failwith "fuzzy: exact query failed");
      exact_latencies.(i) <- Clock.seconds () -. t0)
    exact_workload;
  Array.sort compare exact_latencies;
  Bench_util.note "exact queries on the same engine: p50 %.2g s, p99 %.2g s"
    (percentile exact_latencies 0.5)
    (percentile exact_latencies 0.99);
  (* Disabled-tracing overhead on the fuzzy path: best-of-3 resolve sweeps
     measured twice with tracing off must agree within 2% + 20 ms. *)
  let trace_workload =
    Workload.fuzzy ~noise:(scale_noise 1.0) (Rng.create 1010) ~roster ~count:queries
  in
  let trace_probes =
    Array.map (fun (_, observed) -> Probe.of_demographic config.params observed) trace_workload
  in
  let sweep () =
    Array.iter (fun probe -> ignore (Serve.query_fuzzy ~k engine probe)) trace_probes
  in
  sweep ();
  let best_of_3 () =
    Gc.compact ();
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Clock.seconds () in
      sweep ();
      let dt = Clock.seconds () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let no_trace_baseline = best_of_3 () in
  let disabled_seconds = best_of_3 () in
  let enabled_seconds =
    if Eppi_obs.Trace.enabled () then None
    else begin
      Eppi_obs.Trace.enable ();
      let s = best_of_3 () in
      Eppi_obs.Trace.disable ();
      Eppi_obs.Trace.reset ();
      Some s
    end
  in
  Bench_util.note "trace overhead: baseline %.3f s, disabled %.3f s (+%.2f%%), enabled %s"
    no_trace_baseline disabled_seconds
    (100.0 *. ((disabled_seconds /. no_trace_baseline) -. 1.0))
    (match enabled_seconds with
    | Some s -> Printf.sprintf "%.3f s" s
    | None -> "outer --trace active, skipped");
  let snap = Serve.metrics engine in
  let latency sorted =
    Json.Obj [ ("p50", Num (percentile sorted 0.5)); ("p99", Num (percentile sorted 0.99)) ]
  in
  let open Bench_util in
  publish "BENCH_fuzzy.json"
    (Obj
       [ ("bench", Str "fuzzy"); ("n_owners", Json.int n); ("m_providers", Json.int m);
         ("queries", Json.int queries); ("k", Json.int k);
         ("resolver_build_seconds", Num build_seconds);
         ("no_plaintext_in_frames", Bool (!leaks = 0));
         ( "noise_runs",
           List
             (List.map
                (fun (factor, recall, empty, mean_size, sizes_sorted, scanned, latencies) ->
                  let at sorted q =
                    Json.int (int_of_float (percentile (Array.map float_of_int sorted) q))
                  in
                  let last sorted = Json.int sorted.(Array.length sorted - 1) in
                  Json.Obj
                    [ ("noise_factor", Num factor); ("recall_at_k", Num recall);
                      ("empty", Json.int empty);
                      ( "candidates",
                        Obj
                          [ ("mean", Num mean_size); ("p50", at sizes_sorted 0.5);
                            ("p90", at sizes_sorted 0.9); ("max", last sizes_sorted) ] );
                      ( "scanned",
                        Obj
                          [ ("mean", Num (mean scanned)); ("p50", at scanned 0.5);
                            ("p99", at scanned 0.99); ("max", last scanned);
                            ("min", Json.int scanned.(0)); ("floor", Json.int floor);
                            ("at_floor_share", Num (at_floor scanned)) ] );
                      ("latency_s", latency latencies) ])
                noise_runs) );
         ("recall_at_k_default_noise", Num default_recall);
         ("exact_latency_s", latency exact_latencies);
         ( "trace",
           Obj
             [ ("no_trace_baseline_seconds", Num no_trace_baseline);
               ("disabled_seconds", Num disabled_seconds);
               ("enabled_seconds", Num (Option.value ~default:Float.nan enabled_seconds));
               ( "disabled_overhead_ok",
                 Bool (disabled_seconds <= (1.02 *. no_trace_baseline) +. 0.02) ) ] );
         ("metrics", Metrics.json snap) ])
    [ ( "carries the headline fields",
        has
          [ "resolver_build_seconds"; "no_plaintext_in_frames"; "noise_runs";
            "recall_at_k_default_noise"; "exact_latency_s"; "trace"; "metrics" ] );
      ( "recall@k >= 0.9 under default noise",
        fun v -> num v [ "recall_at_k_default_noise" ] >= 0.9 );
      ("no plaintext demographic bytes in any frame", fun v -> flag v [ "no_plaintext_in_frames" ]);
      ( "noise sweep populated, every run consistent",
        fun v ->
          let runs = items v [ "noise_runs" ] in
          List.length runs >= 3
          && List.for_all
               (fun r ->
                 let recall = num r [ "recall_at_k" ] in
                 0.0 <= recall && recall <= 1.0
                 && num r [ "latency_s"; "p50" ] <= num r [ "latency_s"; "p99" ]
                 && num r [ "candidates"; "p50" ] <= num r [ "candidates"; "max" ]
                 && num r [ "scanned"; "p50" ] <= num r [ "scanned"; "max" ])
               runs );
      ( "every probe scans at least min(min_scan, n) signatures",
        fun v ->
          List.for_all
            (fun r -> num r [ "scanned"; "min" ] >= float_of_int floor)
            (items v [ "noise_runs" ]) );
      ( "disabled tracing within 2% + 20 ms of the untraced baseline",
        fun v -> flag v [ "trace"; "disabled_overhead_ok" ] );
      ( "fuzzy metrics conserve requests",
        fun v ->
          let c key = num v [ "metrics"; key ] in
          c "fuzzy_queries"
          = c "fuzzy_resolved" +. c "fuzzy_empty" +. c "fuzzy_rejected" +. c "fuzzy_shed" ) ]
