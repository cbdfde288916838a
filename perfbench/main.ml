(* The lifecycle benchmark: construction epochs → Index_codec payload →
   fan-out republish to two replica daemons → exact and fuzzy lookups
   through the failover-aware cluster client, with the republish
   coordinator churning alongside on one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--eppi PATH]

   Every workload runs the whole lifecycle, so every end-to-end metric is
   measured on every workload; the workloads differ in input shape and in
   how the measured seconds are split, which decides the layer each one
   stresses (README.md has the table).  With --trace 0 the last stdout
   line carries the end-to-end metrics, with --trace 1 the per-layer
   breakdown.  Every run checks every reply against the index of the
   generation it names and prints its conservation identities; any wrong
   answer or broken identity makes the run incorrect. *)

open Eppi_prelude
module Trace = Eppi_obs.Trace
module Workload = Eppi_serve.Workload
module Postings = Eppi_serve.Postings
module Wire = Eppi_net.Wire
module Net_client = Eppi_net.Client
module Index_codec = Eppi_net.Index_codec
module Fanout = Eppi_cluster.Fanout
module Cluster = Eppi_cluster.Client
module Replica_set = Eppi_cluster.Replica_set
module Probe = Eppi_fuzzy.Probe
module Resolver = Eppi_fuzzy.Resolver
module Roster = Eppi_fuzzy.Roster
module Demographic = Eppi_linkage.Demographic
module Checks = Perfbench.Checks
module Daemons = Perfbench.Daemons
module Affinity = Perfbench.Affinity
module Expect = Checks.Expect
module Generations = Checks.Generations

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---- workloads ---- *)

type shape = {
  n : int;  (** Owners (index rows). *)
  m : int;  (** Providers (index columns). *)
  max_frequency : int;  (** True frequencies cycle 1..max_frequency. *)
  secure : bool;  (** Epochs run the MPC protocol, else the centralized reference path. *)
  epoch_share : float;  (** Share of --seconds spent on construction epochs. *)
  min_epochs : int;
  zipf_owners : bool;  (** Exact owners Zipf(1.1), else uniform. *)
  unknown_share : float;  (** Requests for owners outside the index. *)
  fuzzy_share : float;  (** Typo probes through the fuzzy resolver. *)
  churn : bool;  (** A writer domain republishes every [churn_period] under read load. *)
}

let shapes =
  [
    ( "epoch",
      {
        n = 4000;
        m = 1024;
        max_frequency = 64;
        secure = true;
        epoch_share = 0.7;
        min_epochs = 3;
        zipf_owners = true;
        unknown_share = 0.0;
        fuzzy_share = 0.02;
        churn = false;
      } );
    ( "lookup-churn",
      {
        n = 32768;
        m = 1024;
        max_frequency = 8;
        secure = false;
        epoch_share = 0.2;
        min_epochs = 8;
        zipf_owners = false;
        unknown_share = 0.1;
        fuzzy_share = 0.1;
        churn = true;
      } );
  ]

let replicas = 2
(* Idle time between two churn swaps.  A swap under load keeps the serving
   CPU busy for about 0.5 s; with 1 s between swaps, requests overlapping a
   swap made up nearly half of the traffic, so the p50 sat on the boundary
   between the overlapped and the free latency modes and jumped between
   them from run to run. *)
let churn_period = 2.0
let plan_length = 1 lsl 17
let slice_owners = 64
let depth = 32
let fuzzy_k = 10
let policy = Eppi.Policy.Chernoff 0.9
let recall_floor = 0.9
let layer_tolerance = 0.05
let lookup_slice = 0.5

(* ---- inputs, all drawn from the seed ---- *)

type request = Exact of int | Fuzzy of int * Demographic.t

type inputs = {
  membership : Bitmatrix.t;
  epsilons : float array;
  roster : Demographic.t array;
  plan : request array;
  linkage_seed : int;
}

let generate shape ~seed =
  let root = Rng.create seed in
  let r_matrix = Rng.split root and r_roster = Rng.split root and r_plan = Rng.split root in
  let { n; m; _ } = shape in
  let membership = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    let f = 1 + (j mod shape.max_frequency) in
    Array.iter
      (fun p -> Bitmatrix.set membership ~row:j ~col:p true)
      (Rng.sample_without_replacement r_matrix ~k:f ~n:m)
  done;
  let epsilons = Array.init n (fun j -> 0.2 +. (0.6 *. float_of_int (j mod 7) /. 6.0)) in
  let roster = Roster.generate r_roster ~n in
  let owners =
    if shape.zipf_owners then Workload.zipf r_plan ~n ~count:plan_length
    else Workload.uniform r_plan ~n ~count:plan_length
  in
  (* Typo probes of uniformly drawn owners: a probe's cost follows the
     size of its blocking buckets, and a Zipf draw would let a handful of
     hot names, different for every seed, set the fuzzy latency. *)
  let plan =
    Array.init plan_length (fun i ->
        let u = Rng.float r_plan 1.0 in
        if u < shape.fuzzy_share then
          let truth = Rng.int r_plan n in
          Fuzzy (truth, Demographic.corrupt r_plan roster.(truth))
        else if u < shape.fuzzy_share +. shape.unknown_share then Exact (n + Rng.int r_plan n)
        else Exact owners.(i))
  in
  { membership; epsilons; roster; plan; linkage_seed = 1 + Rng.int r_plan 0x3fffffff }

(* ---- tallies ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : string option;
  mutable exact_sent : int;
  mutable fuzzy_sent : int;
  mutable stale_retries : int;
  mutable fuzzy_answered : int;
  mutable fuzzy_hits : int;
}

let new_tally () =
  {
    attempted = 0;
    failed = 0;
    wrong = None;
    exact_sent = 0;
    fuzzy_sent = 0;
    stale_retries = 0;
    fuzzy_answered = 0;
    fuzzy_hits = 0;
  }

let wrong tally msg =
  if tally.wrong = None then begin
    tally.wrong <- Some msg;
    log "WRONG: %s" msg
  end

let judge tally = function
  | Checks.Correct -> ()
  | Failed _ -> tally.failed <- tally.failed + 1
  | Wrong msg ->
      tally.failed <- tally.failed + 1;
      wrong tally msg

(* Growable float sample. *)
module Sample = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* ---- the running cluster ---- *)

type state = {
  shape : shape;
  seed : int;
  inputs : inputs;
  pool : Pool.t;
  daemons : Daemons.t list;
  set : Replica_set.t;
  client : Cluster.t;
  gens : Generations.t;
  coordinator : Mutex.t;
      (** One republish coordinator at a time: epochs and the churn writer
          both publish, and a generation names one index only if their
          rounds never overlap.  Guards the two fields below. *)
  mutable generation : int;
  mutable recent : (Eppi.Index.t * Expect.t) list;
      (** The two most recently published indexes, newest first. *)
  tally : tally;
  params : Eppi_linkage.Bloom.params;
}

let epoch_seed seed k = (seed * 1_000_003) + k

(* One construction, on the secure protocol or the centralized reference
   path.  Returns the index, a digest of the released decisions
   ([common], [betas]) and the protocol's exact counts. *)
type construction = {
  index : Eppi.Index.t;
  digest : string;
  counts : float list;  (** In the order of [count_metrics]; zeros on the reference path. *)
}

let count_metrics =
  [
    ("simnet.messages", "count"); ("simnet.bytes", "bytes"); ("mpc.and_gates", "count");
    ("mpc.comm_bytes", "bytes");
  ]

let construct st ~k =
  let rng = Rng.create (epoch_seed st.seed k) in
  let { membership; epsilons; _ } = st.inputs in
  let digest common betas = Digest.string (Marshal.to_string (common, betas) []) in
  if st.shape.secure then begin
    let r = Eppi_protocol.Construct.run ~pool:st.pool ~c:3 rng ~membership ~epsilons ~policy in
    {
      index = r.index;
      digest = digest r.common r.betas;
      counts =
        List.map float_of_int
          [
            r.metrics.messages;
            r.metrics.bytes;
            r.metrics.circuit_stats.and_gates;
            r.metrics.mpc_comm.bytes;
          ];
    }
  end
  else begin
    let r = Eppi.Construct.run rng ~membership ~epsilons ~policy in
    {
      index = r.index;
      digest = digest r.common r.betas;
      counts = List.map (fun _ -> 0.0) count_metrics;
    }
  end

(* ---- one epoch: construction → fan-out → convergence ---- *)

type epoch = {
  wall : float;
  cpu : float;  (** CPU seconds of the benchmark process and both replicas over [wall]. *)
  build : construction;
  fanout : Fanout.report;
  fanout_s : float;  (** The whole [Fanout.republish] call: payload encoding plus the round. *)
  converge_s : float;
  spans : (string * float) list;  (** Traced epochs only: summed span seconds by name. *)
  pool_busy_ns : int;
  minor_words : float;
}

(* Seconds per span name, summed over every recorded track. *)
let span_totals tracks =
  let summary = Eppi_obs.Summary.compute tracks in
  if summary.dropped > 0 then log "trace dropped %d events; layer times undercount" summary.dropped;
  List.map
    (fun (r : Eppi_obs.Summary.row) -> (r.name, float_of_int r.total_ns /. 1e9))
    summary.rows

let pool_busy pool =
  Array.fold_left (fun acc (s : Pool.worker_stat) -> acc + s.busy_ns) 0 (Pool.stats pool)

(* CPU seconds used so far by every thread of this process and of the
   replicas.  Unlike wall time, this leaves out the time the host's
   hypervisor takes the virtual CPUs away (steal), which on a shared host
   swings by a quarter from one minute to the next. *)
let cpu_seconds st =
  let t = Unix.times () in
  List.fold_left
    (fun acc d -> acc +. Daemons.cpu_seconds d)
    (t.tms_utime +. t.tms_stime) st.daemons

let wait_converged st expected =
  let deadline = Clock.seconds () +. 30.0 in
  let rec go () =
    match Fanout.converged (Fanout.status ~request_timeout:10.0 st.set) with
    | Some g when g = expected -> ()
    | _ when Clock.seconds () > deadline ->
        failwith (Printf.sprintf "replicas did not converge on generation %d" expected)
    | _ ->
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let fanout_ok tally (report : Fanout.report) ~expected =
  tally.attempted <- tally.attempted + 1;
  if report.succeeded <> replicas || report.generation <> Some expected then begin
    tally.failed <- tally.failed + 1;
    wrong tally
      (Printf.sprintf "fan-out reached %d/%d replicas, generation %s (expected %d)"
         report.succeeded replicas
         (match report.generation with Some g -> string_of_int g | None -> "split")
         expected)
  end

(* A fixed owner slice, one window per replica, must come back at the new
   generation with the new rows. *)
let check_slice st expected =
  let n = st.shape.n in
  let owners = List.init slice_owners (fun i -> i * n / slice_owners) in
  for _ = 1 to replicas do
    let frames = List.map (fun owner -> Wire.Query { owner }) owners in
    st.tally.exact_sent <- st.tally.exact_sent + slice_owners;
    st.tally.attempted <- st.tally.attempted + slice_owners;
    List.iter2
      (fun owner response ->
        match (response : Wire.response) with
        | Reply { generation; reply } ->
            if generation <> expected then
              wrong st.tally
                (Printf.sprintf "slice owner %d answered at generation %d after convergence on %d"
                   owner generation expected)
            else judge st.tally (Checks.check_exact st.gens ~owner ~generation reply)
        | _ -> wrong st.tally "slice query answered with a non-reply frame")
      owners (Cluster.pipeline st.client frames)
  done

let run_epoch st ~k ~traced =
  Mutex.lock st.coordinator;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.coordinator) @@ fun () ->
  (* Every epoch starts from a collected heap, so none pays for the
     garbage of the lookups or the epoch before it. *)
  Gc.full_major ();
  let busy0 = pool_busy st.pool in
  let minor0 = Gc.minor_words () in
  if traced then Trace.enable ~capacity_per_domain:(1 lsl 18) ();
  let c0 = cpu_seconds st in
  let t0 = Clock.seconds () in
  let build = construct st ~k in
  let expected = st.generation + 1 in
  let tc = Clock.seconds () in
  let fanout = Fanout.republish st.set build.index in
  let t1 = Clock.seconds () in
  fanout_ok st.tally fanout ~expected;
  wait_converged st expected;
  let t2 = Clock.seconds () in
  let cpu = cpu_seconds st -. c0 in
  let spans =
    if traced then begin
      Trace.disable ();
      let s = span_totals (Trace.tracks ()) in
      Trace.reset ();
      s
    end
    else []
  in
  let expect = Expect.of_index build.index in
  st.generation <- expected;
  st.recent <- [ (build.index, expect); List.hd st.recent ];
  Generations.add st.gens expected expect;
  if not (Checks.codec_roundtrip_ok build.index) then
    wrong st.tally (Printf.sprintf "Index_codec round trip changed epoch %d's index" k);
  check_slice st expected;
  {
    wall = t2 -. t0;
    cpu;
    build;
    fanout;
    fanout_s = t1 -. tc;
    converge_s = t2 -. t1;
    spans;
    pool_busy_ns = pool_busy st.pool - busy0;
    minor_words = Gc.minor_words () -. minor0;
  }

(* ---- lookups ---- *)

type loop_result = {
  exact_us : float array;
  fuzzy_us : float array;
  probe_us : float array;
  window_us : float array;
      (** Depth-32 loop: the median window cycle of each block, so that
          blocks on a faster and a slower CPU weigh the same. *)
  replies : int;
  seconds : float;
  waiting : float;  (** Seconds spent blocked in the cluster client. *)
}

let no_loop =
  {
    exact_us = [||];
    fuzzy_us = [||];
    probe_us = [||];
    window_us = [||];
    replies = 0;
    seconds = 0.0;
    waiting = 0.0;
  }

let merge a b =
  {
    exact_us = Array.append a.exact_us b.exact_us;
    fuzzy_us = Array.append a.fuzzy_us b.fuzzy_us;
    probe_us = Array.append a.probe_us b.probe_us;
    window_us = Array.append a.window_us b.window_us;
    replies = a.replies + b.replies;
    seconds = a.seconds +. b.seconds;
    waiting = a.waiting +. b.waiting;
  }

let ns_to_us ns = float_of_int ns /. 1e3

let check_fuzzy_response st ~truth (response : Wire.response) =
  match response with
  | Fuzzy_reply { generation; result } ->
      let verdict, hit = Checks.check_fuzzy st.gens ~generation ~truth result in
      if verdict = Checks.Correct then begin
        st.tally.fuzzy_answered <- st.tally.fuzzy_answered + 1;
        if hit then st.tally.fuzzy_hits <- st.tally.fuzzy_hits + 1
      end;
      judge st.tally verdict
  | _ -> wrong st.tally "fuzzy probe answered with a non-fuzzy frame"

let cluster_failure st = function
  | Cluster.No_replica _ | Net_client.Protocol_error _ | Unix.Unix_error _ ->
      st.tally.failed <- st.tally.failed + 1
  | e -> raise e

(* Closed loop at depth 1: one request, wait for its reply, next. *)
let depth1 st ~cursor ~until =
  let exact = Sample.create () and fuzzy = Sample.create () and probe = Sample.create () in
  let waiting = ref 0 and replies = ref 0 in
  let t_start = Clock.monotonic_ns () in
  while Clock.monotonic_ns () < until do
    let req = st.inputs.plan.(!cursor mod Array.length st.inputs.plan) in
    incr cursor;
    st.tally.attempted <- st.tally.attempted + 1;
    match req with
    | Exact owner -> (
        let t0 = Clock.monotonic_ns () in
        let rec ask () =
          st.tally.exact_sent <- st.tally.exact_sent + 1;
          match Cluster.query st.client ~owner with
          | r -> r
          | exception Cluster.Stale_generation _ ->
              st.tally.stale_retries <- st.tally.stale_retries + 1;
              ask ()
        in
        match ask () with
        | generation, reply ->
            let t1 = Clock.monotonic_ns () in
            waiting := !waiting + (t1 - t0);
            incr replies;
            Sample.add exact (ns_to_us (t1 - t0));
            judge st.tally (Checks.check_exact st.gens ~owner ~generation reply)
        | exception e -> cluster_failure st e)
    | Fuzzy (truth, observed) -> (
        let t0 = Clock.monotonic_ns () in
        let p = Probe.of_demographic st.params observed in
        let tp = Clock.monotonic_ns () in
        st.tally.fuzzy_sent <- st.tally.fuzzy_sent + 1;
        match Cluster.pipeline st.client [ Wire.Query_fuzzy { probe = p; k = fuzzy_k } ] with
        | [ response ] ->
            let t1 = Clock.monotonic_ns () in
            waiting := !waiting + (t1 - tp);
            incr replies;
            Sample.add fuzzy (ns_to_us (t1 - t0));
            Sample.add probe (ns_to_us (tp - t0));
            check_fuzzy_response st ~truth response
        | _ -> wrong st.tally "fuzzy window answered with the wrong frame count"
        | exception e -> cluster_failure st e)
  done;
  {
    exact_us = Sample.to_array exact;
    fuzzy_us = Sample.to_array fuzzy;
    probe_us = Sample.to_array probe;
    window_us = [||];
    replies = !replies;
    seconds = float_of_int (Clock.monotonic_ns () - t_start) /. 1e9;
    waiting = float_of_int !waiting /. 1e9;
  }

(* Closed loop at depth 32: a window of pipelined requests, wait for all
   replies, next window. *)
let depth32 st ~cursor ~until =
  let replies = ref 0 and waiting = ref 0 and windows = Sample.create () in
  let t_start = Clock.monotonic_ns () in
  while Clock.monotonic_ns () < until do
    let t_window = Clock.monotonic_ns () in
    let plan = st.inputs.plan in
    let reqs = Array.init depth (fun i -> plan.((!cursor + i) mod Array.length plan)) in
    cursor := !cursor + depth;
    st.tally.attempted <- st.tally.attempted + depth;
    let frames =
      Array.to_list
        (Array.map
           (function
             | Exact owner ->
                 st.tally.exact_sent <- st.tally.exact_sent + 1;
                 Wire.Query { owner }
             | Fuzzy (_, observed) ->
                 st.tally.fuzzy_sent <- st.tally.fuzzy_sent + 1;
                 Wire.Query_fuzzy { probe = Probe.of_demographic st.params observed; k = fuzzy_k })
           reqs)
    in
    let t0 = Clock.monotonic_ns () in
    (match Cluster.pipeline st.client frames with
    | responses ->
        waiting := !waiting + (Clock.monotonic_ns () - t0);
        List.iteri
          (fun i (response : Wire.response) ->
            incr replies;
            match (reqs.(i), response) with
            | Exact owner, Reply { generation; reply } ->
                judge st.tally (Checks.check_exact st.gens ~owner ~generation reply)
            | Fuzzy (truth, _), _ -> check_fuzzy_response st ~truth response
            | Exact _, _ -> wrong st.tally "query answered with a non-reply frame")
          responses
    | exception e ->
        cluster_failure st e;
        st.tally.failed <- st.tally.failed + depth - 1);
    Sample.add windows (ns_to_us (Clock.monotonic_ns () - t_window))
  done;
  {
    exact_us = [||];
    fuzzy_us = [||];
    probe_us = [||];
    window_us = (if windows.len = 0 then [||] else [| Stats.median (Sample.to_array windows) |]);
    replies = !replies;
    seconds = float_of_int (Clock.monotonic_ns () - t_start) /. 1e9;
    waiting = float_of_int !waiting /. 1e9;
  }

(* One slice of each loop, with the reader on the daemons' CPU. *)
let serving st f = Affinity.serving ~pids:(List.map (fun (d : Daemons.t) -> d.pid) st.daemons) f

let lookup_block st ~cursor ~slice ~stop_at =
  serving st (fun () ->
      let until () = min stop_at (Clock.monotonic_ns () + int_of_float (slice *. 1e9)) in
      let l1 = depth1 st ~cursor ~until:(until ()) in
      (l1, depth32 st ~cursor ~until:(until ())))

(* ---- the republish coordinator under read load ---- *)

type writer = {
  stop : bool Atomic.t;
  domain : (float list * Fanout.report list * tally) Domain.t;
}

(* Every [churn_period] seconds, republishes the older of the two most
   recent indexes, so the served index alternates.  Each generation is
   registered with the oracle before it is pushed, so a reader can never
   see a generation the oracle does not know. *)
let start_writer st =
  let stop = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        let tally = new_tally () in
        let walls = ref [] and reports = ref [] in
        let next = ref (Clock.seconds () +. churn_period) in
        while not (Atomic.get stop) do
          let now = Clock.seconds () in
          if now < !next then Unix.sleepf (Float.min 0.02 (!next -. now))
          else begin
            Mutex.lock st.coordinator;
            let index, expect = List.nth st.recent 1 in
            let expected = st.generation + 1 in
            Generations.add st.gens expected expect;
            let t0 = Clock.seconds () in
            let report = Fanout.republish st.set index in
            walls := (Clock.seconds () -. t0) :: !walls;
            reports := report :: !reports;
            fanout_ok tally report ~expected;
            st.generation <- expected;
            st.recent <- [ (index, expect); List.hd st.recent ];
            Mutex.unlock st.coordinator;
            next := Clock.seconds () +. churn_period
          end
        done;
        (!walls, !reports, tally))
  in
  { stop; domain }

let stop_writer st w =
  Atomic.set w.stop true;
  let walls, reports, t = Domain.join w.domain in
  st.tally.attempted <- st.tally.attempted + t.attempted;
  st.tally.failed <- st.tally.failed + t.failed;
  Option.iter (wrong st.tally) t.wrong;
  (List.rev walls, List.rev reports)

(* ---- set-up ---- *)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let stop_cluster st =
  Cluster.close st.client;
  List.iter Daemons.stop st.daemons

(* Data generation, the initial index, daemon start and one warm-up
   epoch plus a short warm-up of both loops.  Returns the state and the
   warm-up epoch's decision digest. *)
let setup ~eppi ~shape ~seed ~pool =
  let inputs = generate shape ~seed in
  let initial =
    (Eppi.Construct.run (Rng.create (epoch_seed seed (-1))) ~membership:inputs.membership
       ~epsilons:inputs.epsilons ~policy)
      .index
  in
  write_file "index.csv" (Eppi.Index.to_csv initial);
  write_file "roster.csv" (Roster.to_csv inputs.roster);
  let sockets = List.init replicas (fun i -> Printf.sprintf "r%d.sock" i) in
  let peers = String.concat "," sockets in
  let daemons =
    List.map
      (fun socket ->
        Daemons.start ~eppi ~index_csv:"index.csv" ~roster_csv:"roster.csv"
          ~linkage_seed:inputs.linkage_seed ~peers ~socket
          ~log:(Filename.remove_extension socket ^ ".log"))
      sockets
  in
  List.iter (fun d -> Daemons.wait_ready d) daemons;
  let set = Replica_set.of_addrs (List.map (fun (d : Daemons.t) -> d.addr) daemons) in
  let gens = Generations.create () in
  Generations.add gens 1 (Expect.of_index initial);
  let st =
    {
      shape;
      seed;
      inputs;
      pool;
      daemons;
      set;
      client = Cluster.create ~request_timeout:10.0 ~seed set;
      gens;
      coordinator = Mutex.create ();
      generation = 1;
      recent = [ (initial, Expect.of_index initial) ];
      tally = new_tally ();
      params = (Resolver.default_config ~seed:inputs.linkage_seed).params;
    }
  in
  let warm = run_epoch st ~k:0 ~traced:false in
  ignore (lookup_block st ~cursor:(ref 0) ~slice:0.2 ~stop_at:max_int);
  (st, warm)

(* ---- metrics ---- *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let metrics_json metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num value) unit)
         metrics)
  ^ "}"

let find_num json path = Option.value ~default:0.0 (Json.find_num json path)
let stage_names = [ "decode"; "dispatch"; "queue"; "execute"; "reorder"; "flush" ]

(* Telemetry deltas summed over replicas: per-stage nanoseconds, the
   end-to-end total and the request count. *)
let telemetry_delta before after =
  let sum path snaps = List.fold_left (fun acc j -> acc +. find_num j path) 0.0 snaps in
  let d path = sum path after -. sum path before in
  let stages = List.map (fun s -> (s, d [ "stages"; s; "sum_ns" ])) stage_names in
  (stages, d [ "stages"; "sum_ns" ], d [ "requests" ])

(* Count-weighted mean over replicas of a request class's rolling-window
   mean, in nanoseconds. *)
let class_mean_ns snaps cls =
  let count, weighted =
    List.fold_left
      (fun (c, w) j ->
        let k = find_num j [ "window"; cls; "count" ] in
        (c +. k, w +. (k *. find_num j [ "window"; cls; "mean_s" ])))
      (0.0, 0.0) snaps
  in
  if count = 0.0 then 0.0 else weighted /. count *. 1e9

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- provenance ---- *)

let command_line cmd =
  match Unix.open_process_in cmd with
  | ic ->
      let out = try String.trim (In_channel.input_all ic) with _ -> "" in
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> Some out | _ -> None)
  | exception _ -> None

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then source_files p
         else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
         else [])

let provenance ~workload ~shape ~seed ~seconds ~trace =
  let rev, dirty =
    if Sys.file_exists ".git" then
      ( Option.value ~default:"unknown" (command_line "git rev-parse HEAD 2>/dev/null"),
        match command_line "git status --porcelain --untracked-files=no 2>/dev/null" with
        | Some "" -> "false"
        | Some _ -> "true"
        | None -> "unknown" )
    else ("none", "unknown")
  in
  let digest =
    source_files "lib" @ source_files "bin"
    |> List.map (fun p -> Digest.file p)
    |> String.concat "" |> Digest.string |> Digest.to_hex
  in
  Printf.sprintf
    "provenance {\"git_rev\": %S, \"dirty\": %s, \"source_digest\": %S, \"host\": %S, \"nproc\": \
     %d, \"ocaml\": %S, \"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \"n\": %d, \
     \"m\": %d, \"max_frequency\": %d, \"secure\": %b, \"replicas\": %d}"
    rev dirty digest (Unix.gethostname ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version workload seed seconds
    (if trace then 1 else 0)
    shape.n shape.m shape.max_frequency shape.secure replicas

(* ---- one run ---- *)

let run ~eppi ~workload ~seed ~seconds ~trace =
  let shape =
    match List.assoc_opt workload shapes with
    | Some s -> s
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" workload
          (String.concat ", " (List.map fst shapes));
        exit 2
  in
  let prov = provenance ~workload ~shape ~seed ~seconds ~trace in
  (* Everything the run writes lives in a private directory of the
     checkout, removed on the way out, however the run ends. *)
  let top = Filename.concat (Sys.getcwd ()) ".perfbench" in
  let dir = Filename.concat top (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists top) then Sys.mkdir top 0o755;
  Sys.mkdir dir 0o755;
  (* One domain.  With two, every stop-the-world minor collection waits
     at a barrier for the other domain, whose virtual CPU the host may
     have taken away; over 5 seeds the epoch CPU time spread by 0.17 of
     its median with two domains and by 0.07 with one. *)
  let pool = Pool.create ~size:1 () in
  at_exit (fun () ->
      Daemons.kill_all ();
      Pool.shutdown pool;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      (try Sys.rmdir dir with Sys_error _ -> ());
      try Sys.rmdir top with Sys_error _ -> ());
  Sys.chdir dir;
  (* Set-up runs several times; the median is setup_s, and the warm-up
     epochs (same seed every time) must release identical decisions. *)
  let reps = if trace then 2 else 3 in
  let setup_walls = Array.make reps 0.0 in
  let warms = ref [] in
  let st = ref None in
  for i = 0 to reps - 1 do
    (* Each set-up starts from a heap holding nothing of the one before,
       so the peak heap does not depend on when the collector got round
       to the previous set-up's inputs. *)
    Option.iter stop_cluster !st;
    st := None;
    Gc.full_major ();
    let t0 = Clock.seconds () in
    let s, warm = setup ~eppi ~shape ~seed ~pool in
    setup_walls.(i) <- Clock.seconds () -. t0;
    warms := (warm.build.digest, warm.wall) :: !warms;
    st := Some s
  done;
  let st = Option.get !st in
  let digests = List.map fst !warms in
  let warm_wall = Stats.median (Array.of_list (List.map snd !warms)) in
  log "%s: set-up %.3f s (median of %d)" workload (Stats.median setup_walls) reps;
  let tally = st.tally in
  if List.exists (fun d -> d <> List.hd digests) digests then
    wrong tally "construction with the same seed released different common/betas";
  (* Printed so that separate runs with one seed can be compared too. *)
  Printf.printf "warm_epoch_digest %s over %d set-ups\n" (Digest.to_hex (List.hd digests)) reps;
  (* The measured seconds interleave construction epochs with blocks of
     lookups (one depth-1 slice, one depth-32 slice), so every metric
     samples the whole run: an epoch starts whenever epochs have had less
     than their share of the time so far.  The share is raised when the
     minimum epoch count needs more. *)
  let min_epochs = if trace then max 4 shape.min_epochs else shape.min_epochs in
  let epoch_share =
    Float.min 0.9
      (Float.max shape.epoch_share
         (float_of_int min_epochs *. warm_wall /. float_of_int seconds))
  in
  let stats_before = List.map Daemons.stats st.daemons in
  let writer = if shape.churn then Some (start_writer st) else None in
  let t_measure = Clock.seconds () in
  let stop_at = Clock.monotonic_ns () + (seconds * 1_000_000_000) in
  let epochs = ref [] and epoch_time = ref 0.0 in
  let l1 = ref no_loop and l32 = ref no_loop and cursor = ref 0 in
  let k = ref 1 in
  while Clock.monotonic_ns () < stop_at || !k <= min_epochs do
    let behind = !epoch_time <= epoch_share *. (Clock.seconds () -. t_measure) in
    if behind || Clock.monotonic_ns () >= stop_at then begin
      (* In the traced run every other epoch is traced, to price the tracing. *)
      let e = run_epoch st ~k:!k ~traced:(trace && !k mod 2 = 1) in
      epochs := e :: !epochs;
      epoch_time := !epoch_time +. e.wall;
      incr k
    end
    else begin
      let a, b = lookup_block st ~cursor ~slice:lookup_slice ~stop_at in
      l1 := merge !l1 a;
      l32 := merge !l32 b
    end
  done;
  (* A run too short for its epochs still measures one lookup block. *)
  if !l1.replies = 0 then begin
    let a, b = lookup_block st ~cursor ~slice:lookup_slice ~stop_at:max_int in
    l1 := a;
    l32 := b
  end;
  let swap_walls, writer_reports =
    match writer with Some w -> stop_writer st w | None -> ([], [])
  in
  let epochs = List.rev !epochs and l1 = !l1 and l32 = !l32 in
  let deciles a =
    String.concat " "
      (List.map
         (fun q -> Printf.sprintf "%.0f" (Stats.quantile a q))
         [ 0.1; 0.25; 0.5; 0.75; 0.9 ])
  in
  log "%s: depth-1 deciles (µs) exact %s, fuzzy %s" workload (deciles l1.exact_us)
    (deciles l1.fuzzy_us);
  log "%s: %d epochs: %s s" workload (List.length epochs)
    (String.concat " " (List.map (fun e -> Printf.sprintf "%.3f" e.wall) epochs));
  log "%s: epoch cpu: %s s" workload
    (String.concat " " (List.map (fun e -> Printf.sprintf "%.3f" e.cpu) epochs));
  let stats_loops = List.map Daemons.stats st.daemons in
  (* The daemon aggregates request stages over every class, so the traced
     run prices each class on its own: a short depth-1 loop of exact
     queries, then one of fuzzy probes, each between two Telemetry
     snapshots. *)
  let isolated pick =
    let plan = Array.of_list (List.filter pick (Array.to_list st.inputs.plan)) in
    let before = List.map Daemons.telemetry st.daemons in
    let r =
      serving st (fun () ->
          depth1
            { st with inputs = { st.inputs with plan } }
            ~cursor:(ref 0)
            ~until:(Clock.monotonic_ns () + 500_000_000))
    in
    (telemetry_delta before (List.map Daemons.telemetry st.daemons), r)
  in
  let classes =
    if not trace then None
    else
      Some
        ( isolated (function Exact o -> o < shape.n | Fuzzy _ -> false),
          isolated (function Fuzzy _ -> true | Exact _ -> false) )
  in
  let tele_after = List.map Daemons.telemetry st.daemons in
  let stats_after = List.map Daemons.stats st.daemons in
  let rss = List.fold_left (fun acc d -> Float.max acc (Daemons.peak_rss_mb d)) 0.0 st.daemons in
  let cstats = Cluster.stats st.client in
  log "%s: depth-1 %d replies in %.2f s, depth-32 %d replies in %.2f s, %d swaps under load"
    workload l1.replies l1.seconds l32.replies l32.seconds (List.length swap_walls);
  (* Conservation: per replica, over the cluster, and the daemon's stages. *)
  let counts = List.map Checks.replica_counts_of_stats stats_after in
  let identities =
    List.concat
      (List.mapi
         (fun i c -> Checks.replica_identities (Printf.sprintf "replica%d" i) c)
         counts)
    @ Checks.cluster_identities ~exact_sent:tally.exact_sent ~fuzzy_sent:tally.fuzzy_sent
        ~failovers:cstats.failovers counts
    @ List.mapi
        (fun i j ->
          Checks.stage_identity
            (Printf.sprintf "replica%d.stages" i)
            ~stage_sum_ns:(int_of_float (find_num j [ "conservation"; "stage_sum_ns" ]))
            ~total_ns:(int_of_float (find_num j [ "conservation"; "total_ns" ])))
        tele_after
  in
  let traced_epochs = List.filter (fun e -> e.spans <> []) epochs in
  let span e name = Option.value ~default:0.0 (List.assoc_opt name e.spans) in
  let epoch_parts e =
    [
      span e "phase.beta";
      span e "phase.mixing";
      span e "phase.publish";
      e.fanout_s;
      e.converge_s;
    ]
  in
  let layer_ids =
    List.mapi
      (fun i e ->
        Checks.layer_identity
          (Printf.sprintf "epoch%d.layers" i)
          ~wall:e.wall ~parts:(epoch_parts e) ~tolerance:layer_tolerance)
      traced_epochs
  in
  let identities = identities @ layer_ids in
  List.iter (fun i -> print_endline (Checks.to_line i)) identities;
  if not (List.for_all Checks.holds identities) then wrong tally "a conservation identity failed";
  let recall = ratio (float_of_int tally.fuzzy_hits) (float_of_int tally.fuzzy_answered) in
  Printf.printf "recall_at_%d %.4f over %d fuzzy answers (floor %.2f)\n" fuzzy_k recall
    tally.fuzzy_answered recall_floor;
  if tally.fuzzy_answered > 0 && recall < recall_floor then
    wrong tally (Printf.sprintf "fuzzy recall@%d %.4f below %.2f" fuzzy_k recall recall_floor);
  (* End-to-end metrics. *)
  let untraced = List.filter (fun e -> e.spans = []) epochs in
  let untraced = if untraced = [] then epochs else untraced in
  let epoch_walls = Array.of_list (List.map (fun e -> e.wall) untraced) in
  let epoch_cpus = Array.of_list (List.map (fun e -> e.cpu) untraced) in
  let swaps =
    Array.of_list (if shape.churn then swap_walls else List.map (fun e -> e.fanout_s) epochs)
  in
  let fanout_reports =
    if shape.churn then writer_reports else List.map (fun e -> e.fanout) epochs
  in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let e2e =
    [
      ("setup_s", Stats.median setup_walls, "s");
      (* The mean, not the median: each virtual CPU flips between a fast
         and a slow speed as the host's load on its core comes and goes,
         so epoch CPU times are bimodal, and a median jumps between the
         modes from run to run. *)
      ("epoch_cpu_s", Stats.mean epoch_cpus, "s");
      ( "epoch_peak_mb",
        float_of_int (Gc.quick_stat ()).top_heap_words *. word_bytes /. 1048576.0,
        "MB" );
      ("lookup_p50_us", Stats.quantile l1.exact_us 0.5, "us");
      (* p75, not a higher quantile: on lookup-churn the requests that
         overlap a swap form a slow mode about a tenth of the traffic
         wide, so a p90 sat on its edge and swung with the swap time. *)
      ("lookup_p75_us", Stats.quantile l1.exact_us 0.75, "us");
      ("lookup_qps", float_of_int depth /. (Stats.mean l32.window_us /. 1e6), "1/s");
      ("fuzzy_p50_us", Stats.quantile l1.fuzzy_us 0.5, "us");
      ("swap_p50_ms", Stats.median swaps *. 1e3, "ms");
      ("daemon_rss_mb", rss, "MB");
    ]
  in
  let metrics =
    if not trace then e2e
    else begin
      let mean_of f l = Stats.mean (Array.of_list (List.map f l)) in
      let te = if traced_epochs = [] then epochs else traced_epochs in
      let beta e = span e "phase.beta" and sss e = span e "simnet.run" in
      let cb_wall e = beta e -. sss e in
      let last = (List.nth epochs (List.length epochs - 1)).build in
      let time3 f =
        Stats.median
          (Array.init 3 (fun _ ->
               let t0 = Clock.seconds () in
               ignore (Sys.opaque_identity (f ()));
               Clock.seconds () -. t0))
      in
      let payload = Index_codec.encode last.index in
      let serve_delta key =
        List.fold_left2
          (fun acc a b -> acc +. find_num a [ key ] -. find_num b [ key ])
          0.0 stats_loops stats_before
      in
      let per_replica f r = List.map f r.Fanout.results in
      let dispatched = Array.map float_of_int cstats.dispatched in
      let dsum = Array.fold_left ( +. ) 0.0 dispatched in
      let dmax = Array.fold_left Float.max 0.0 dispatched
      and dmin = Array.fold_left Float.min infinity dispatched in
      let median_of f l = Stats.median (Array.of_list (List.map f l)) in
      let (query_delta, query_loop), (fuzzy_delta, _) = Option.get classes in
      let class_metrics cls (stages, total, requests) =
        List.map
          (fun (s, ns) -> (Printf.sprintf "server.%s.%s_ns" cls s, ratio ns requests, "ns"))
          stages
        @ [ (Printf.sprintf "server.%s.total_ns" cls, ratio total requests, "ns") ]
      in
      let query_server_ns =
        let _, total, requests = query_delta in
        ratio total requests
      in
      let max_residual =
        List.fold_left
          (fun acc (i : Checks.identity) -> Float.max acc (Float.abs i.residual))
          0.0 layer_ids
      in
      [
        ("epoch.wall_s", Stats.median epoch_walls, "s");
        ("protocol.secsumshare_s", mean_of sss te, "s");
        ("protocol.countbelow_wall_s", mean_of cb_wall te, "s");
        ("protocol.gmw_cpu_s", mean_of (fun e -> span e "gmw.execute") te, "s");
        ("protocol.mixing_s", mean_of (fun e -> span e "phase.mixing") te, "s");
        ("protocol.publish_s", mean_of (fun e -> span e "phase.publish") te, "s");
        ("protocol.minor_mwords", mean_of (fun e -> e.minor_words /. 1e6) epochs, "Mwords");
      ]
      @ List.map2 (fun (name, unit) v -> (name, v, unit)) count_metrics last.counts
      @ [
          ( "pool.busy_frac",
            mean_of
              (fun e ->
                ratio
                  (float_of_int e.pool_busy_ns /. 1e9)
                  (float_of_int (Pool.size st.pool) *. cb_wall e))
              te,
            "ratio" );
          ("codec.encode_s", time3 (fun () -> Index_codec.encode last.index), "s");
          ("codec.payload_bytes", float_of_int (String.length payload), "bytes");
          ("codec.decode_s", time3 (fun () -> Index_codec.decode payload), "s");
          ("serve.postings_compile_s", time3 (fun () -> Postings.of_index last.index), "s");
          ("fanout.round_s", mean_of (fun r -> r.Fanout.wall_seconds) fanout_reports, "s");
          ( "fanout.replica_skew_s",
            mean_of
              (fun r ->
                let s = per_replica (fun x -> x.Fanout.seconds) r in
                List.fold_left Float.max 0.0 s -. List.fold_left Float.min infinity s)
              fanout_reports,
            "s" );
          ( "fanout.attempts_ratio",
            mean_of
              (fun r ->
                float_of_int (List.fold_left ( + ) 0 (per_replica (fun x -> x.Fanout.attempts) r))
                /. float_of_int replicas)
              fanout_reports,
            "ratio" );
          ("fanout.converge_s", mean_of (fun e -> e.converge_s) epochs, "s");
          ("cluster.failovers", float_of_int cstats.failovers, "count");
          ("cluster.stale_retries", float_of_int tally.stale_retries, "count");
          ("cluster.dispatch_skew", ratio (dmax -. dmin) dsum, "ratio");
        ]
      @ class_metrics "query" query_delta
      @ class_metrics "fuzzy" fuzzy_delta
      @ [
          ("server.republish.total_ns", class_mean_ns tele_after "republish", "ns");
          ("client.residual_us", Stats.mean query_loop.exact_us -. (query_server_ns /. 1e3), "us");
          ( "serve.cache_hit_ratio",
            (let hits = serve_delta "cache_hits" in
             ratio hits (hits +. serve_delta "cache_misses")),
            "ratio" );
          ( "serve.negative_hit_ratio",
            ratio (serve_delta "negative_hits") (serve_delta "unknown"),
            "ratio" );
          ("serve.swaps", serve_delta "swaps", "count");
          ( "serve.shed",
            serve_delta "shed_rate" +. serve_delta "shed_queue" +. serve_delta "fuzzy_shed",
            "count" );
          ( "fuzzy.scanned_per_probe",
            ratio (serve_delta "fuzzy_scanned") (serve_delta "fuzzy_queries"),
            "count" );
          ("fuzzy.probe_build_us", Stats.median l1.probe_us, "us");
          ("lookup.p90_us", Stats.quantile l1.exact_us 0.9, "us");
          ("lookup.p99_us", Stats.quantile l1.exact_us 0.99, "us");
          ("fuzzy.p99_us", Stats.quantile l1.fuzzy_us 0.99, "us");
          ("fuzzy.recall_at_10", recall, "ratio");
          ("bench.loadgen_busy_frac", 1.0 -. ratio l1.waiting l1.seconds, "ratio");
          ( "bench.trace_overhead_frac",
            ratio (median_of (fun e -> e.wall) te) (Stats.median epoch_walls) -. 1.0,
            "ratio" );
          ("bench.epoch_residual_frac", max_residual, "ratio");
          ("fail_ratio", ratio (float_of_int tally.failed) (float_of_int tally.attempted), "ratio");
        ]
    end
  in
  stop_cluster st;
  print_endline prov;
  let correct = tally.wrong = None in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
    tally.attempted tally.failed (metrics_json metrics);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let eppi = ref "_build/default/bin/eppi_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  epoch or lookup-churn");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or the per-layer breakdown (1)");
      ("--eppi", Arg.Set_string eppi, "PATH  the eppi CLI that serves as replica daemon");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let eppi =
    if Filename.is_relative !eppi then Filename.concat (Sys.getcwd ()) !eppi else !eppi
  in
  if not (Sys.file_exists eppi) then begin
    Printf.eprintf "perfbench: daemon binary %s not found\n" eppi;
    exit 2
  end;
  (* A hung daemon must not hang the run past its time limit, and a
     terminated run must not leave daemons behind: both exit through
     at_exit, which stops every child. *)
  let bail code _ = exit code in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (bail 3));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (bail 4));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (bail 4));
  ignore (Unix.alarm 170);
  run ~eppi ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
