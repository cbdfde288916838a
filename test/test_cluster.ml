(* Tests for the replication layer (lib/cluster): replica-set parsing,
   the pure round-robin pick and backoff schedule, coordinator fan-out
   against a partially dead replica set with the convergence check, and
   the cluster client — transparent failover when a replica dies mid-run,
   the typed stale-generation guard, replay conservation, and a set of
   one as the client for a single daemon, restarts included. *)

open Eppi_prelude
module Serve = Eppi_serve.Serve
module Server = Eppi_net.Server
module Net_client = Eppi_net.Client
module Wire = Eppi_net.Wire
module Addr = Eppi_net.Addr
module Replica_set = Eppi_cluster.Replica_set
module Fanout = Eppi_cluster.Fanout
module Cluster = Eppi_cluster.Client
module Probe = Eppi_fuzzy.Probe
module Resolver = Eppi_fuzzy.Resolver
module Roster = Eppi_fuzzy.Roster

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  if m = 0 then true else go 0

(* Same deterministic index shapes as test_net. *)
let test_index ~n ~m =
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for k = 0 to j mod 5 do
      Bitmatrix.set matrix ~row:j ~col:((j + (k * 7)) mod m) true
    done
  done;
  Eppi.Index.of_matrix matrix

let test_index_v2 ~n ~m =
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for k = 0 to (j + 2) mod 4 do
      Bitmatrix.set matrix ~row:j ~col:((j + 3 + (k * 5)) mod m) true
    done
  done;
  Eppi.Index.of_matrix matrix

(* ---------- Replica sets ---------- *)

let test_replica_set () =
  (match Replica_set.parse " /tmp/a.sock, host:9001 ,:9002" with
  | Ok set ->
      check_int "three members" 3 (Replica_set.size set);
      check_bool "order preserved" true
        (Replica_set.addrs set
        = [
            Addr.Unix_socket "/tmp/a.sock";
            Addr.Tcp ("host", 9001);
            Addr.Tcp ("", 9002);
          ]);
      let canonical = Replica_set.to_string set in
      (* Canonical form is stable under re-parsing (loopback is spelled
         out, so compare strings rather than constructors). *)
      check_bool "round-trips" true
        (match Replica_set.parse canonical with
        | Ok again -> Replica_set.to_string again = canonical
        | Error _ -> false)
  | Error msg -> Alcotest.fail msg);
  let reject what s expect =
    match Replica_set.parse s with
    | Ok _ -> Alcotest.fail (what ^ ": must be rejected")
    | Error msg ->
        check_bool (what ^ ": error names the problem") true (contains msg expect)
  in
  reject "empty string" "" "empty";
  reject "empty element" "a.sock,,b.sock" "empty";
  reject "bad port" "a.sock,host:70000" "host:70000";
  reject "trailing colon" "host:" "trailing colon";
  reject "duplicate replica" "a.sock, a.sock" "duplicate";
  (match Replica_set.of_addrs [ Addr.Unix_socket "/x" ] with
  | set -> check_int "singleton set" 1 (Replica_set.size set));
  (try
     ignore (Replica_set.of_addrs []);
     Alcotest.fail "empty of_addrs must raise"
   with Invalid_argument _ -> ());
  try
    ignore (Replica_set.of_string "host:");
    Alcotest.fail "of_string must raise on rejection"
  with Invalid_argument _ -> ()

(* ---------- Round-robin pick, pure ---------- *)

let test_select () =
  let case name ~rr slots expect = check_bool name true (Cluster.select ~rr slots = expect) in
  case "rr empty" ~rr:0 [||] None;
  case "rr picks at cursor" ~rr:1 [| true; true; true |] (Some 1);
  case "rr wraps modulo" ~rr:5 [| true; true; true |] (Some 2);
  case "rr negative cursor normalized" ~rr:(-1) [| true; true; true |] (Some 2);
  case "rr skips unselectable" ~rr:1 [| true; false; false |] (Some 0);
  case "rr all down" ~rr:0 [| false; false |] None

(* ---------- Backoff schedule, pure ---------- *)

(* Fan-out's retry schedule: jitter must stay inside [full/2, full) of the
   capped exponential, and the delay is capped at 2 s however deep the
   attempt count goes. *)
let test_backoff_delay () =
  let cap = 2.0 in
  let full ~base ~attempt = Float.min (base *. (2.0 ** float_of_int (attempt - 1))) cap in
  List.iter
    (fun (base, attempt, u) ->
      let d = Eppi_cluster.backoff_delay ~base ~attempt ~u in
      let f = full ~base ~attempt in
      check_bool
        (Printf.sprintf "base %g attempt %d u %g in [full/2, full)" base attempt u)
        true
        (d >= (f /. 2.0) -. 1e-12 && d < f))
    [
      (0.05, 1, 0.0);
      (0.05, 1, 0.999);
      (0.05, 3, 0.5);
      (0.05, 10, 0.0);
      (0.05, 10, 0.999);
      (1.5, 2, 0.25);
      (0.001, 7, 0.75);
    ];
  (* Deterministic endpoints: u = 0 is exactly half the full delay. *)
  check_bool "u=0 is half" true (Eppi_cluster.backoff_delay ~base:0.1 ~attempt:1 ~u:0.0 = 0.05);
  (* Deep attempts saturate at the cap: delay lives in [1, 2). *)
  let deep = Eppi_cluster.backoff_delay ~base:0.05 ~attempt:60 ~u:0.999 in
  check_bool "deep attempt capped below 2 s" true (deep < cap);
  check_bool "deep attempt at least cap/2" true (deep >= cap /. 2.0);
  (match Eppi_cluster.backoff_delay ~base:0.05 ~attempt:0 ~u:0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attempt 0 must be rejected");
  match Eppi_cluster.backoff_delay ~base:0.05 ~attempt:1 ~u:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "u = 1 must be rejected"

(* ---------- Convergence check, pure ---------- *)

let test_converged () =
  let a = Addr.Unix_socket "/a" and b = Addr.Unix_socket "/b" in
  let ok g = Ok { Eppi_cluster.generation = g; swaps = 0; peers = [] } in
  check_bool "empty list" true (Fanout.converged [] = None);
  check_bool "agreement" true (Fanout.converged [ (a, ok 3); (b, ok 3) ] = Some 3);
  check_bool "single replica" true (Fanout.converged [ (a, ok 1) ] = Some 1);
  check_bool "disagreement" true (Fanout.converged [ (a, ok 3); (b, ok 2) ] = None);
  check_bool "any error spoils it" true
    (Fanout.converged [ (a, ok 3); (b, Error "unreachable") ] = None);
  (* The replica state comes out of a Stats document's own keys. *)
  let status doc = Eppi_cluster.cluster_status_of_stats (Json.parse_exn doc) in
  check_bool "status read from a stats document" true
    (status {|{"queries": 4, "generation": 3, "swaps": 2, "peers": ["a.sock", "h:1"]}|}
    = Ok { Eppi_cluster.generation = 3; swaps = 2; peers = [ "a.sock"; "h:1" ] });
  List.iter
    (fun doc -> check_bool doc true (Result.is_error (status doc)))
    [ {|{"generation": 3, "swaps": 2}|}; {|{"generation": 3, "swaps": 2, "peers": [1]}|};
      {|{"generation": "3", "swaps": 2, "peers": []}|} ]

(* ---------- Live daemons ---------- *)

let sock_counter = ref 0

let sock_path () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "eppi-cluster-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

type daemon = {
  d_addr : Addr.t;
  d_path : string;
  d_domain : unit Domain.t;
  mutable d_alive : bool;
}

let start_daemon ?resolver ?(path = sock_path ()) index =
  let addr = Addr.Unix_socket path in
  let server = Server.create (Serve.create ?resolver index) in
  let listener = Server.listen addr in
  let domain = Domain.spawn (fun () -> Server.run server listener) in
  { d_addr = addr; d_path = path; d_domain = domain; d_alive = true }

let kill_daemon d =
  if d.d_alive then begin
    d.d_alive <- false;
    (try
       let c = Net_client.connect d.d_addr in
       (try Net_client.shutdown c with _ -> ());
       Net_client.close c
     with _ -> ());
    Domain.join d.d_domain;
    try Sys.remove d.d_path with Sys_error _ -> ()
  end

let with_daemons n index f =
  let daemons = List.init n (fun _ -> start_daemon index) in
  Fun.protect ~finally:(fun () -> List.iter kill_daemon daemons) (fun () -> f daemons)

(* Fan-out over 2 live replicas and 1 that never existed: the dead one
   must not block the others or poison the report, and the survivors
   converge at the new generation within the round. *)
let test_fanout_partial () =
  let index1 = test_index ~n:20 ~m:9 in
  let index2 = test_index_v2 ~n:25 ~m:9 in
  with_daemons 2 index1 (fun daemons ->
      let live = List.map (fun d -> d.d_addr) daemons in
      let dead = Addr.Unix_socket (sock_path ()) in
      let set = Replica_set.of_addrs (live @ [ dead ]) in
      let report =
        Fanout.republish ~retries:1 ~retry_delay:0.01 ~request_timeout:5.0 ~seed:7 set
          index2
      in
      check_int "two succeeded" 2 report.succeeded;
      check_int "one failed" 1 report.failed;
      check_bool "successes agree on generation" true (report.generation = Some 2);
      check_int "results in set order" 3 (List.length report.results);
      List.iteri
        (fun i (r : Fanout.replica_result) ->
          check_bool "result order matches set order" true
            (r.addr = List.nth (Replica_set.addrs set) i);
          check_bool "attempts counted" true (r.attempts >= 1))
        report.results;
      let dead_result = List.nth report.results 2 in
      check_bool "dead replica reports an error" true (Result.is_error dead_result.outcome);
      check_int "dead replica exhausted its retries" 2 dead_result.attempts;
      (* Convergence: survivors agree; the full set (dead included) does not. *)
      let survivors = Replica_set.of_addrs live in
      check_bool "survivors converged" true
        (Fanout.converged (Fanout.status ~request_timeout:5.0 survivors) = Some 2);
      check_bool "dead replica spoils convergence" true
        (Fanout.converged (Fanout.status ~request_timeout:5.0 set) = None))

(* Kill the replica carrying the traffic mid-run: the next window fails
   over transparently, every query still gets an answer, and the client
   records exactly what happened. *)
let test_client_failover () =
  let n = 20 in
  let index = test_index ~n ~m:9 in
  with_daemons 2 index (fun daemons ->
      let set = Replica_set.of_addrs (List.map (fun d -> d.d_addr) daemons) in
      (* Round-robin alternates the two replicas, so the first query
         after the kill lands on the dead one and the failover path runs. *)
      let c = Cluster.create ~request_timeout:5.0 ~cooldown:30.0 ~seed:11 set in
      Fun.protect
        ~finally:(fun () -> Cluster.close c)
        (fun () ->
          for owner = 0 to 9 do
            let generation, reply = Cluster.query c ~owner in
            check_int "pre-kill generation" 1 generation;
            check_bool "pre-kill reply" true
              (reply = Serve.Providers (Eppi.Index.query index ~owner))
          done;
          kill_daemon (List.hd daemons);
          for owner = 0 to n - 1 do
            let generation, reply = Cluster.query c ~owner in
            check_int "post-kill generation" 1 generation;
            check_bool "post-kill reply" true
              (reply = Serve.Providers (Eppi.Index.query index ~owner))
          done;
          let stats = Cluster.stats c in
          check_int "one failover" 1 stats.failovers;
          check_int "dead replica marked down once" 1 stats.failures.(0);
          check_int "survivor never failed" 0 stats.failures.(1);
          check_bool "failover latency recorded" true
            (match stats.failover_seconds with [ s ] -> s >= 0.0 | _ -> false);
          check_bool "survivor carried the tail" true (stats.answered.(1) >= n);
          (* Requests stranded on the dead socket were re-issued; its
             accounting was reset so nothing counts as forever-inflight. *)
          check_int "no phantom inflight on the dead replica" stats.dispatched.(0)
            stats.answered.(0)))

(* Replica 0 is republished, replica 1 is not; round-robin alternates, so
   the second query answers from behind the observed floor and must raise
   the typed guard, after which the retry lands on the fresh replica. *)
let test_stale_generation () =
  let index1 = test_index ~n:20 ~m:9 in
  let index2 = test_index_v2 ~n:25 ~m:9 in
  with_daemons 2 index1 (fun daemons ->
      let fresh = List.hd daemons in
      let nc = Net_client.connect fresh.d_addr in
      (match
         Fun.protect
           ~finally:(fun () -> Net_client.close nc)
           (fun () -> Net_client.republish_index nc index2)
       with
      | Ok generation -> check_int "fresh replica at generation" 2 generation
      | Error e -> Alcotest.fail e);
      let set = Replica_set.of_addrs (List.map (fun d -> d.d_addr) daemons) in
      let c = Cluster.create ~request_timeout:5.0 ~cooldown:30.0 ~seed:3 set in
      Fun.protect
        ~finally:(fun () -> Cluster.close c)
        (fun () ->
          let generation, _ = Cluster.query c ~owner:4 in
          check_int "first answer from the fresh replica" 2 generation;
          (match Cluster.query c ~owner:4 with
          | exception Cluster.Stale_generation { newest; got } ->
              check_int "newest is the observed floor" 2 newest;
              check_int "got the laggard's generation" 1 got
          | _ -> Alcotest.fail "stale reply must raise");
          (* The laggard is cooling down, so the retry is served fresh. *)
          let generation, reply = Cluster.query c ~owner:4 in
          check_int "retry lands fresh" 2 generation;
          check_bool "retry answers from the new index" true
            (reply = Serve.Providers (Eppi.Index.query index2 ~owner:4));
          let stats = Cluster.stats c in
          check_int "staleness floor" 2 stats.max_generation;
          check_int "cooldown is not a failover" 0 stats.failovers))

(* Replay conservation through the cluster: served + unknown + shed
   covers every request, windows split exactly. *)
let test_replay_conservation () =
  let n = 20 in
  let index = test_index ~n ~m:9 in
  with_daemons 2 index (fun daemons ->
      let set = Replica_set.of_addrs (List.map (fun d -> d.d_addr) daemons) in
      let c = Cluster.create ~request_timeout:5.0 ~seed:17 set in
      Fun.protect
        ~finally:(fun () -> Cluster.close c)
        (fun () ->
          (* 101 requests over depth 8: 13 windows, the last ragged; every
             3rd owner is out of range to exercise the unknown path. *)
          let workload =
            Array.init 101 (fun i -> if i mod 3 = 0 then n + i else i mod n)
          in
          let summary = Eppi_net.Replay.run ~depth:8 (Cluster.pipeline c) workload in
          check_int "every request accounted" summary.requests
            (summary.served + summary.unknown + summary.shed);
          check_int "requests" 101 summary.requests;
          check_int "unknowns counted" 34 summary.unknown;
          check_bool "providers listed" true (summary.providers_listed > 0);
          let stats = Cluster.stats c in
          check_int "no failovers on a healthy cluster" 0 stats.failovers;
          let total = Array.fold_left ( + ) 0 stats.dispatched in
          check_int "round-robin spread the windows" 101 total;
          check_bool "both replicas served" true
            (stats.dispatched.(0) > 0 && stats.dispatched.(1) > 0)))

(* Every replica down: the typed cluster-level error, not a hang or a
   raw Unix error, naming each replica with why its dial failed. *)
let test_no_replica () =
  let a = sock_path () and b = sock_path () in
  let dead = Replica_set.of_string (a ^ "," ^ b) in
  let c = Cluster.create ~request_timeout:5.0 ~cooldown:30.0 ~seed:5 dead in
  Fun.protect
    ~finally:(fun () -> Cluster.close c)
    (fun () ->
      match Cluster.query c ~owner:0 with
      | exception Cluster.No_replica msg ->
          let absent = Unix.error_message Unix.ENOENT in
          check_bool "names both replicas with the reason" true
            (contains msg (a ^ ": " ^ absent ^ "; " ^ b ^ ": " ^ absent))
      | _ -> Alcotest.fail "dead cluster must raise No_replica")

(* A set of one is the client for a single daemon: exact queries, a
   replay and a fuzzy window all go through [Cluster.pipeline]. *)
let test_set_of_one () =
  let n = 30 in
  let index = test_index ~n ~m:9 in
  let config = Resolver.default_config ~seed:0x5EED in
  let roster = Roster.generate (Rng.create 5) ~n in
  let resolver = Resolver.build config roster in
  let d = start_daemon ~resolver index in
  Fun.protect
    ~finally:(fun () -> kill_daemon d)
    (fun () ->
      let c = Cluster.create ~request_timeout:5.0 ~seed:23 (Replica_set.of_addrs [ d.d_addr ]) in
      Fun.protect
        ~finally:(fun () -> Cluster.close c)
        (fun () ->
          (match Cluster.pipeline c [ Wire.Query { owner = 4 }; Wire.Query { owner = n + 1 } ] with
          | [ Wire.Reply { generation = 1; reply }; Wire.Reply { generation = 1; reply = unknown } ]
            ->
              check_bool "exact reply" true
                (reply = Serve.Providers (Eppi.Index.query index ~owner:4));
              check_bool "unknown owner" true (unknown = Serve.Unknown_owner)
          | _ -> Alcotest.fail "two query replies at generation 1 expected");
          let workload = Array.init 50 (fun i -> i mod (n + 5)) in
          let summary = Eppi_net.Replay.run ~depth:8 (Cluster.pipeline c) workload in
          check_int "replay served" 45 summary.served;
          check_int "replay unknown" 5 summary.unknown;
          check_int "replay generations" 1 summary.last_generation;
          let probe = Probe.of_demographic config.Resolver.params roster.(7) in
          (match Cluster.pipeline c [ Wire.Query_fuzzy { probe; k = 3 } ] with
          | [ Wire.Fuzzy_reply { generation = 1; result = Serve.Candidates (top :: _) } ] ->
              check_int "fuzzy probe resolves its owner" 7 top.Serve.owner;
              check_bool "fuzzy providers are the postings row" true
                (top.Serve.providers = Eppi.Index.query index ~owner:7)
          | _ -> Alcotest.fail "fuzzy window did not resolve");
          check_int "no failovers" 0 (Cluster.stats c).failovers))

(* A set of one whose daemon restarts on the same path: the window that
   hits the dead socket raises [No_replica] (the client never re-dials
   inside a window), and once the cooldown has passed the next window
   dials again and is answered by the new daemon at generation 1. *)
let test_set_of_one_restart () =
  let index = test_index ~n:8 ~m:5 in
  let d = start_daemon index in
  let c =
    Cluster.create ~request_timeout:5.0 ~cooldown:0.05 ~seed:29 (Replica_set.of_addrs [ d.d_addr ])
  in
  let restarted = ref None in
  Fun.protect
    ~finally:(fun () ->
      Cluster.close c;
      kill_daemon d;
      Option.iter kill_daemon !restarted)
    (fun () ->
      let query () = Cluster.pipeline c [ Wire.Query { owner = 3 } ] in
      check_bool "first window answered" true
        (match query () with [ Wire.Reply { generation = 1; _ } ] -> true | _ -> false);
      kill_daemon d;
      let fresh = start_daemon ~path:d.d_path index in
      restarted := Some fresh;
      (match query () with
      | exception Cluster.No_replica msg ->
          check_bool "names the replica" true (contains msg d.d_path)
      | _ -> Alcotest.fail "the window on the dead socket must raise No_replica");
      Unix.sleepf 0.1;
      (match query () with
      | [ Wire.Reply { generation; reply } ] ->
          check_int "answered by the restarted daemon" 1 generation;
          check_bool "reply intact" true
            (reply = Serve.Providers (Eppi.Index.query index ~owner:3))
      | _ -> Alcotest.fail "one reply expected after the cooldown");
      check_int "one failure recorded" 1 (Cluster.stats c).failures.(0))

let () =
  Alcotest.run "cluster"
    [
      ( "replica set",
        [ Alcotest.test_case "parse, print, reject" `Quick test_replica_set ] );
      ( "policies",
        [
          Alcotest.test_case "pick table" `Quick test_select;
          Alcotest.test_case "backoff jitter stays in bound" `Quick test_backoff_delay;
          Alcotest.test_case "convergence check" `Quick test_converged;
        ] );
      ( "fanout",
        [ Alcotest.test_case "partial success and convergence" `Quick test_fanout_partial ]
      );
      ( "client",
        [
          Alcotest.test_case "transparent failover on kill" `Quick test_client_failover;
          Alcotest.test_case "stale generation guard" `Quick test_stale_generation;
          Alcotest.test_case "replay conservation" `Quick test_replay_conservation;
          Alcotest.test_case "no replica left" `Quick test_no_replica;
          Alcotest.test_case "set of one answers every window" `Quick test_set_of_one;
          Alcotest.test_case "set of one across a restart" `Quick test_set_of_one_restart;
        ] );
    ]
