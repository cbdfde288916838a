(* eppi: the command-line interface to the library.

   Subcommands:
     generate   synthesize an information-network dataset (CSV)
     construct  build an e-PPI over a dataset (centralized or secure path)
     query      look up owners in a local index file or a replica set of daemons
     serve      run the persistent daemon (--listen or --stdio)
     republish  hot-swap the index of every daemon in a replica set
     stats      metrics snapshot of one daemon (JSON, --watch for deltas)
     top        live request-stage telemetry of one daemon, or a replica set's rows
     shutdown   gracefully stop one daemon
     evaluate   success ratio and attack confidences of an index
     inspect    dataset statistics

   query and republish --connect a replica set through Eppi_cluster (one
   address is a set of one); stats and shutdown take one address.  A
   command that cannot reach its target prints one line and exits 1.

   Example session:
     eppi generate --providers 2000 --owners 500 -o net.csv
     eppi construct -d net.csv --policy chernoff --gamma 0.9 -o index.csv
     eppi query -i index.csv --owner 42
     eppi serve -i index.csv --listen /tmp/eppi.sock &
     while [ ! -S /tmp/eppi.sock ]; do sleep 0.1; done
     eppi query --connect /tmp/eppi.sock --owner 42 --owner 7
     eppi republish --connect /tmp/eppi.sock -i index2.csv
     eppi shutdown --connect /tmp/eppi.sock
     eppi evaluate -d net.csv -i index.csv *)

open Cmdliner
open Eppi_prelude

(* A command that cannot use its input or reach its target, or whose
   target answers out of protocol, prints one line and exits 1. *)
let fail ~what msg =
  Printf.eprintf "%s: %s\n" what msg;
  exit 1

(* [read ()] loads the input file [path]: one that cannot be opened or
   parsed, or whose header declares more than can be allocated, fails the
   command. *)
let guard ~what path read =
  match read () with
  | v -> v
  | exception Sys_error msg -> fail ~what msg
  | exception Failure msg -> fail ~what (Printf.sprintf "%s: %s" path msg)
  | exception (Invalid_argument _ | Out_of_memory as e) ->
      fail ~what (Printf.sprintf "%s: %s" path (Printexc.to_string e))

(* Read an input file through [parse], which takes its channel. *)
let load ~what parse path = guard ~what path (fun () -> In_channel.with_open_bin path parse)

let load_index ~what = load ~what Eppi.Index.input_csv
let load_dataset ~what =
  load ~what (fun ic -> Eppi_dataset.Dataset.of_csv (In_channel.input_all ic))

(* [write_with path f] hands [f] the output file's channel, or stdout
   without a path. *)
let write_with path f =
  match path with
  | None -> f stdout
  | Some path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          f oc;
          close_out oc)

let write_output path content = write_with path (fun oc -> output_string oc content)

(* ---- common args ---- *)

let seed_arg =
  let doc = "Seed for all randomness (deterministic output)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc)

let dataset_arg =
  let doc = "Dataset CSV produced by $(b,eppi generate)." in
  Arg.(required & opt (some file) None & info [ "d"; "dataset" ] ~docv:"FILE" ~doc)

let index_arg =
  let doc = "Published-index CSV produced by $(b,eppi construct)." in
  Arg.(required & opt (some file) None & info [ "i"; "index" ] ~docv:"FILE" ~doc)

let output_arg =
  let doc = "Write to $(docv) instead of standard output." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let linkage_seed_arg =
  let doc =
    "Shared linkage secret keying the fuzzy resolver's Bloom encodings and blocking hashes.  \
     Daemon and clients must agree on it; there is deliberately no default — a well-known seed \
     would let anyone replay dictionary probes (docs/FUZZY.md)."
  in
  Arg.(value & opt (some int) None & info [ "linkage-seed" ] ~docv:"INT" ~doc)

let trace_arg =
  let doc =
    "Record a trace of the run and write it to $(docv) as Chrome trace-event JSON \
     (loadable in Perfetto or chrome://tracing: one track per domain, spans with GC \
     deltas, counter tracks for the pool workers).  A per-phase summary table is \
     printed to standard error.  See docs/OBSERVABILITY.md."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Run [f] under a tracing session when [--trace FILE] was given: the
   Chrome export and the summary table are emitted even if [f] raises, so
   a crashed run still leaves its trace behind. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some file ->
      Eppi_obs.Trace.enable ();
      let finish () =
        Eppi_obs.Trace.disable ();
        Eppi_obs.Chrome.write file;
        Eppi_obs.Summary.print Format.err_formatter
          (Eppi_obs.Summary.compute (Eppi_obs.Trace.tracks ()));
        Printf.eprintf "trace written to %s\n" file
      in
      Fun.protect ~finally:finish f

let policy_term =
  let policy_name =
    let doc = "Beta policy: $(b,basic), $(b,inc-exp) or $(b,chernoff)." in
    Arg.(value & opt string "chernoff" & info [ "policy" ] ~docv:"NAME" ~doc)
  in
  let delta =
    let doc = "Delta for the inc-exp policy." in
    Arg.(value & opt float 0.02 & info [ "delta" ] ~docv:"FLOAT" ~doc)
  in
  let gamma =
    let doc = "Target success ratio for the chernoff policy." in
    Arg.(value & opt float 0.9 & info [ "gamma" ] ~docv:"FLOAT" ~doc)
  in
  let build name delta gamma =
    match name with
    | "basic" -> Ok Eppi.Policy.Basic
    | "inc-exp" -> Ok (Eppi.Policy.Inc_exp delta)
    | "chernoff" -> Ok (Eppi.Policy.Chernoff gamma)
    | other -> Error (Printf.sprintf "unknown policy %S" other)
  in
  Term.(term_result' (const build $ policy_name $ delta $ gamma))

(* ---- generate ---- *)

let generate_cmd =
  let providers =
    Arg.(value & opt int 2500 & info [ "providers" ] ~docv:"INT" ~doc:"Provider count m.")
  in
  let owners =
    Arg.(value & opt int 1000 & info [ "owners" ] ~docv:"INT" ~doc:"Owner/identity count n.")
  in
  let common_fraction =
    Arg.(
      value
      & opt float 0.0
      & info [ "common-fraction" ] ~docv:"FLOAT"
          ~doc:"Fraction of owners planted as common (near-ubiquitous) identities.")
  in
  let epsilon =
    Arg.(
      value
      & opt (some float) None
      & info [ "epsilon" ] ~docv:"FLOAT"
          ~doc:"Constant privacy degree for every owner (default: uniform random).")
  in
  let roster =
    Arg.(
      value
      & opt (some string) None
      & info [ "roster" ] ~docv:"FILE"
          ~doc:
            "Also write a demographic roster CSV: one identity per owner id, the ground truth \
             the serving daemon's fuzzy resolver is built from ($(b,eppi serve --roster)).")
  in
  let run seed providers owners common_fraction epsilon output roster =
    let rng = Rng.create seed in
    let profile = { Eppi_dataset.Dataset.default_profile with common_fraction } in
    let dataset = Eppi_dataset.Dataset.generate ~profile rng ~providers ~owners in
    let dataset =
      match epsilon with
      | Some e -> Eppi_dataset.Dataset.constant_epsilons dataset e
      | None -> Eppi_dataset.Dataset.uniform_epsilons rng dataset
    in
    write_output output (Eppi_dataset.Dataset.to_csv dataset);
    (match roster with
    | None -> ()
    | Some path ->
        let people = Eppi_fuzzy.Roster.generate rng ~n:owners in
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Eppi_fuzzy.Roster.to_csv people));
        Printf.eprintf "roster: %d identities written to %s\n" owners path);
    Printf.eprintf "%s\n" (Eppi_dataset.Dataset.stats_summary dataset)
  in
  let term =
    Term.(
      const run $ seed_arg $ providers $ owners $ common_fraction $ epsilon $ output_arg $ roster)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Synthesize an information-network dataset") term

(* ---- construct ---- *)

let construct_cmd =
  let secure =
    Arg.(
      value & flag
      & info [ "secure" ]
          ~doc:
            "Run the distributed secure construction (SecSumShare + MPC over a simulated \
             network) instead of the centralized reference path.  Prints protocol metrics.")
  in
  let c_arg =
    Arg.(value & opt int 3 & info [ "c" ] ~docv:"INT" ~doc:"Coordinator count (secure path).")
  in
  let domains_arg =
    Arg.(
      value
      & opt int 0
      & info [ "domains" ] ~docv:"INT"
          ~doc:
            "Domain-pool size for the secure construction's sharded MPC stage: 1 forces the \
             sequential fallback, 0 (default) uses the runtime's recommended domain count.  \
             The constructed index is identical at every setting (see docs/PERF.md).")
  in
  let drop_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "drop" ] ~docv:"RATE"
          ~doc:
            "Secure path only: per-message drop probability injected on every simulated \
             link.  A nonzero rate engages the reliability sublayer and failure detector, \
             and the MPC stage runs over the simulated network; the output stays \
             bit-identical to the fault-free run.  See docs/ROBUSTNESS.md.")
  in
  let crash_arg =
    Arg.(
      value
      & opt_all (pair ~sep:':' float int) []
      & info [ "crash" ] ~docv:"TIME:PROVIDER"
          ~doc:
            "Secure path only: fail-stop the given provider at the given simulated time \
             (repeatable).  The construction degrades gracefully, excluding the dead \
             provider and recomputing every guarantee over the survivors.")
  in
  let run seed dataset_path policy secure c domains drop crashes trace output =
    let dataset = load_dataset ~what:"construct" dataset_path in
    let rng = Rng.create seed in
    let faulty = drop > 0.0 || crashes <> [] in
    if faulty && not secure then begin
      Printf.eprintf "--drop/--crash need --secure\n";
      exit 2
    end;
    let index =
      with_trace trace @@ fun () ->
      if secure then begin
        let plan =
          if not faulty then None
          else
            Some
              {
                Eppi_simnet.Simnet.no_faults with
                fault_seed = seed;
                default_link = { Eppi_simnet.Simnet.perfect_link with drop };
                crashes;
              }
        in
        let size = if domains <= 0 then None else Some domains in
        match
          Eppi_prelude.Pool.with_pool ?size (fun pool ->
              Eppi_protocol.Construct.run_ft ?sss_plan:plan ?mpc_plan:plan ~pool ~c rng
                ~membership:dataset.membership ~epsilons:dataset.epsilons ~policy)
        with
        | Failed (reason, rep) ->
            Printf.eprintf "construction failed after %d attempts: %s\n" rep.attempts reason;
            exit 1
        | (Complete (r, rep) | Degraded (r, rep)) as outcome ->
            let verdict =
              match outcome with
              | Eppi_protocol.Construct.Degraded _ -> "degraded"
              | _ -> "complete"
            in
            Printf.eprintf
              "secure construction (%s): %d/%d providers, %d attempts, %.4fs simulated \
               (secsumshare %.4fs + mpc %.4fs), %d messages, %d bytes, circuit %d gates, \
               %d+%d retransmissions, %d duplicates suppressed, lambda=%.4f\n"
              verdict
              (List.length rep.survivors)
              (Eppi_prelude.Bitmatrix.cols dataset.membership)
              rep.attempts r.metrics.total_time r.metrics.secsumshare_time r.metrics.mpc_time
              r.metrics.messages r.metrics.bytes r.metrics.circuit_stats.size
              rep.sss_retransmissions rep.mpc_retransmissions rep.duplicates r.lambda;
            if rep.excluded <> [] then
              Printf.eprintf "excluded dead providers: %s\n"
                (String.concat ", " (List.map string_of_int rep.excluded));
            r.index
      end
      else begin
        let r =
          Eppi.Construct.run rng ~membership:dataset.membership ~epsilons:dataset.epsilons
            ~policy
        in
        let commons =
          Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 r.common
        in
        Printf.eprintf "constructed: %d common identities, lambda=%.4f, xi=%.2f\n" commons
          r.lambda r.xi;
        r.index
      end
    in
    write_with output (fun oc -> Eppi.Index.output_csv oc index)
  in
  let term =
    Term.(
      const run $ seed_arg $ dataset_arg $ policy_term $ secure $ c_arg $ domains_arg
      $ drop_arg $ crash_arg $ trace_arg $ output_arg)
  in
  Cmd.v (Cmd.info "construct" ~doc:"Build an e-PPI over a dataset") term

(* ---- query ---- *)

let connect_info =
  let doc =
    "Replica set: one or more comma-separated addresses of running $(b,eppi serve --listen) \
     daemons, each a Unix-socket path or $(i,HOST:PORT); one address is a set of one."
  in
  Arg.info [ "connect" ] ~docv:"ADDRS" ~doc

let connect_arg = Arg.(value & opt (some string) None & connect_info)
let connect_set_arg = Arg.(required & opt (some string) None & connect_info)

let replica_set_of_string ~what addrs =
  match Eppi_cluster.Replica_set.parse addrs with
  | Ok set -> set
  | Error msg ->
      Printf.eprintf "%s: bad replica set %S: %s\n" what addrs msg;
      exit 2

(* Run [f] on a cluster client over the replica set [addrs]: the one
   data-plane transport, whatever the set's size.  A request that gets no
   answer for 30 s counts as a failure instead of hanging forever. *)
let with_cluster ~what addrs f =
  let set = replica_set_of_string ~what addrs in
  let client = Eppi_cluster.Client.create ~request_timeout:30.0 set in
  match Fun.protect ~finally:(fun () -> Eppi_cluster.Client.close client) (fun () -> f client) with
  | result -> result
  | exception Eppi_cluster.Client.No_replica msg -> fail ~what ("no replica answered: " ^ msg)
  | exception Eppi_net.Client.Protocol_error msg -> fail ~what msg

(* The one-line JSON summary of a `query --replay-log` run: [requests],
   the reply counters, then wall time and throughput. *)
let print_replay_summary ~requests ~wall_seconds counters =
  let qps = float_of_int requests /. Float.max 1e-9 wall_seconds in
  print_endline
    (Json.to_string
       (Obj
          ((("requests", Json.int requests) :: List.map (fun (k, v) -> (k, Json.int v)) counters)
          @ [ ("wall_seconds", Num wall_seconds); ("qps", Num (Float.round qps)) ])))

let query_cmd =
  let owners =
    Arg.(
      value & opt_all int []
      & info [ "owner" ] ~docv:"INT" ~doc:"Owner identity (repeatable: one reply line each).")
  in
  let index_path =
    let doc = "Published-index CSV produced by $(b,eppi construct) (local mode)." in
    Arg.(value & opt (some file) None & info [ "i"; "index" ] ~docv:"FILE" ~doc)
  in
  let replay_log =
    let doc =
      "With $(b,--connect): replay a request log (CSV or JSONL, see docs/SERVE.md) through the \
       daemon as pipelined queries and print a JSON summary instead of per-owner replies."
    in
    Arg.(value & opt (some file) None & info [ "replay-log" ] ~docv:"FILE" ~doc)
  in
  let depth =
    Arg.(
      value & opt int 32
      & info [ "depth" ] ~docv:"INT" ~doc:"Pipeline depth for $(b,--replay-log).")
  in
  let print_reply = function
    | Eppi_serve.Serve.Providers providers ->
        Printf.printf "%s\n" (String.concat "," (List.map string_of_int providers))
    | Eppi_serve.Serve.Unknown_owner -> print_endline "unknown"
    | Eppi_serve.Serve.Shed_rate_limit | Eppi_serve.Serve.Shed_queue_full -> print_endline "shed"
  in
  let usage_error msg =
    Printf.eprintf "query: %s\n" msg;
    exit 2
  in
  let parse_dob s =
    if s = "" then (0, 0, 0)
    else
      match String.split_on_char '-' s with
      | [ y; m; d ] -> (
          match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
          | Some y, Some m, Some d when y > 0 && m >= 1 && m <= 12 && d >= 1 && d <= 31 ->
              (y, m, d)
          | _ -> usage_error (Printf.sprintf "bad --dob %S (want YYYY-MM-DD)" s))
      | _ -> usage_error (Printf.sprintf "bad --dob %S (want YYYY-MM-DD)" s)
  in
  let run_fuzzy addr ~linkage_seed ~first ~last ~dob ~zip ~k =
    let seed =
      match linkage_seed with
      | Some s -> s
      | None -> usage_error "--fuzzy requires --linkage-seed (the daemon's shared secret)"
    in
    if first = "" && last = "" && dob = "" && zip = "" then
      usage_error "--fuzzy needs at least one of --first/--last/--dob/--zip";
    let record : Eppi_linkage.Demographic.t =
      {
        first = String.lowercase_ascii first;
        last = String.lowercase_ascii last;
        dob = parse_dob dob;
        zip;
        gender = Eppi_linkage.Demographic.Other (* not encoded in probes *);
      }
    in
    let config = Eppi_fuzzy.Resolver.default_config ~seed in
    (* Encoding happens here, client-side: only the Bloom filters and
       keyed blocking hashes leave this process. *)
    let probe = Eppi_fuzzy.Probe.of_demographic config.params record in
    let result =
      with_cluster ~what:"query" addr (fun cluster ->
          match Eppi_cluster.Client.pipeline cluster [ Eppi_net.Wire.Query_fuzzy { probe; k } ] with
          | [ Eppi_net.Wire.Fuzzy_reply { result; _ } ] -> result
          | [ other ] -> Eppi_net.Client.unexpected "fuzzy query" other
          | _ -> raise (Eppi_net.Client.Protocol_error "fuzzy query: response count mismatch"))
    in
    match (result : Eppi_serve.Serve.fuzzy_reply) with
    | Candidates [] ->
        Printf.eprintf "no match above threshold\n";
        exit 1
    | Candidates candidates ->
        List.iter
          (fun (cand : Eppi_serve.Serve.candidate) ->
            Printf.printf "%d %.4f %s\n" cand.owner cand.score
              (String.concat "," (List.map string_of_int cand.providers)))
          candidates
    | No_resolver ->
        Printf.eprintf "daemon has no fuzzy resolver (start it with --roster)\n";
        exit 1
    | Probe_mismatch ->
        Printf.eprintf "probe geometry rejected: linkage parameters disagree with the daemon\n";
        exit 1
    | Fuzzy_shed ->
        Printf.eprintf "shed\n";
        exit 1
  in
  let run index_path connect owners replay_log depth fuzzy first last dob zip k linkage_seed =
    if fuzzy then begin
      if owners <> [] then usage_error "--fuzzy excludes --owner";
      if replay_log <> None then usage_error "--fuzzy excludes --replay-log";
      if k < 1 then usage_error "--k must be positive";
      match (index_path, connect) with
      | None, Some addr -> run_fuzzy addr ~linkage_seed ~first ~last ~dob ~zip ~k
      | _ -> usage_error "--fuzzy needs --connect (fuzzy resolution lives in the daemon)"
    end
    else if first <> "" || last <> "" || dob <> "" || zip <> "" then
      usage_error "--first/--last/--dob/--zip need --fuzzy"
    else
    match (index_path, connect) with
    | Some _, Some _ | None, None -> usage_error "give exactly one of --index or --connect"
    | Some path, None ->
        if replay_log <> None then usage_error "--replay-log needs --connect";
        if owners = [] then usage_error "--owner required";
        let index = load_index ~what:"query" path in
        List.iter
          (fun owner ->
            if owner < 0 || owner >= Eppi.Index.owners index then begin
              Printf.eprintf "owner %d out of range [0, %d)\n" owner (Eppi.Index.owners index);
              exit 1
            end;
            print_reply (Eppi_serve.Serve.Providers (Eppi.Index.query index ~owner)))
          owners
    | None, Some addr ->
        let workload =
          match replay_log with
          | Some log ->
              if owners <> [] then usage_error "--replay-log excludes --owner";
              Some (guard ~what:"query" log (fun () -> Eppi_net.Replay.load log))
          | None ->
              if owners = [] then usage_error "--owner required";
              None
        in
        with_cluster ~what:"query" addr (fun cluster ->
            let pipeline = Eppi_cluster.Client.pipeline cluster in
            match workload with
            | Some workload ->
                let s = Eppi_net.Replay.run ~depth pipeline workload in
                print_replay_summary ~requests:s.requests ~wall_seconds:s.wall_seconds
                  [ ("served", s.served); ("unknown", s.unknown); ("shed", s.shed);
                    ("providers_listed", s.providers_listed);
                    ("first_generation", s.first_generation);
                    ("last_generation", s.last_generation);
                    ("failovers", (Eppi_cluster.Client.stats cluster).failovers) ]
            | None ->
                List.iter
                  (function
                    | Eppi_net.Wire.Reply { reply; _ } -> print_reply reply
                    | other -> Eppi_net.Client.unexpected "query" other)
                  (pipeline (List.map (fun owner -> Eppi_net.Wire.Query { owner }) owners)))
  in
  let fuzzy =
    let doc =
      "Approximate-identity lookup: resolve the demographics given with \
       $(b,--first)/$(b,--last)/$(b,--dob)/$(b,--zip) against the daemon's roster, then print \
       one line per candidate: owner id, match score, provider list.  Demographics are \
       Bloom-encoded locally under $(b,--linkage-seed); plaintext never crosses the wire."
    in
    Arg.(value & flag & info [ "fuzzy" ] ~doc)
  in
  let first =
    Arg.(value & opt string "" & info [ "first" ] ~docv:"NAME" ~doc:"First name (fuzzy probe).")
  in
  let last =
    Arg.(value & opt string "" & info [ "last" ] ~docv:"NAME" ~doc:"Last name (fuzzy probe).")
  in
  let dob =
    Arg.(
      value & opt string ""
      & info [ "dob" ] ~docv:"YYYY-MM-DD" ~doc:"Date of birth (fuzzy probe).")
  in
  let zip =
    Arg.(value & opt string "" & info [ "zip" ] ~docv:"ZIP" ~doc:"Zip code (fuzzy probe).")
  in
  let k =
    Arg.(
      value & opt int 10 & info [ "k" ] ~docv:"INT" ~doc:"Candidate limit for $(b,--fuzzy).")
  in
  let term =
    Term.(
      const run $ index_path $ connect_arg $ owners $ replay_log $ depth $ fuzzy $ first
      $ last $ dob $ zip $ k $ linkage_seed_arg)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "QueryPPI: list candidate providers for an owner, from a local index file or a replica \
          set of running daemons")
    term

(* ---- evaluate ---- *)

let evaluate_cmd =
  let run seed dataset_path index_path =
    let dataset = load_dataset ~what:"evaluate" dataset_path in
    let index = load_index ~what:"evaluate" index_path in
    let membership = dataset.membership in
    let published = Eppi.Index.matrix index in
    let ratio =
      Eppi.Metrics.success_ratio ~membership ~published ~epsilons:dataset.epsilons
    in
    Printf.printf "owners: %d  providers: %d\n" dataset.owners dataset.providers;
    Printf.printf "success ratio (fp_j >= eps_j): %.4f\n" ratio;
    let worst = ref 0.0 and total = ref 0.0 in
    for j = 0 to dataset.owners - 1 do
      let conf = Eppi.Attack.primary_confidence ~membership ~published ~owner:j in
      worst := Float.max !worst conf;
      total := !total +. conf
    done;
    Printf.printf "primary attack confidence: mean %.4f, worst %.4f\n"
      (!total /. float_of_int dataset.owners)
      !worst;
    let rng = Rng.create seed in
    let sampled = Rng.sample_without_replacement rng ~k:(min 5 dataset.owners) ~n:dataset.owners in
    Array.iter
      (fun j ->
        Printf.printf
          "  owner %d: eps=%.2f freq=%d published=%d fp=%.3f recall=%b\n" j
          dataset.epsilons.(j)
          (Eppi_prelude.Bitmatrix.row_count membership j)
          (Eppi.Index.query_count index ~owner:j)
          (Eppi.Metrics.false_positive_rate ~membership ~published ~owner:j)
          (Eppi.Index.recall_ok ~membership index ~owner:j))
      sampled
  in
  let term = Term.(const run $ seed_arg $ dataset_arg $ index_arg) in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Measure privacy metrics of a published index against its dataset")
    term

(* ---- attack ---- *)

let attack_cmd =
  let colluders =
    Arg.(
      value & opt int 0
      & info [ "colluders" ] ~docv:"INT"
          ~doc:"Number of colluding providers (chosen at random) for the collusion analysis.")
  in
  let sigma_threshold =
    Arg.(
      value & opt float 0.5
      & info [ "sigma-threshold" ] ~docv:"FLOAT"
          ~doc:"Frequency fraction above which an identity counts as common.")
  in
  let run seed dataset_path index_path colluders sigma_threshold =
    let dataset = load_dataset ~what:"attack" dataset_path in
    let index = load_index ~what:"attack" index_path in
    let membership = dataset.membership in
    let published = Eppi.Index.matrix index in
    let rng = Rng.create seed in
    (* Primary attack over all owners. *)
    let confidences =
      Array.init dataset.owners (fun j ->
          Eppi.Attack.primary_confidence ~membership ~published ~owner:j)
    in
    let s = Stats.summary confidences in
    Format.printf "primary attack confidence: %a@." Stats.pp_summary s;
    (* Common-identity attack. *)
    let common =
      Eppi.Attack.common_identity_attack ~membership ~published ~sigma_threshold
    in
    Printf.printf
      "common-identity attack (sigma' = %.2f): %d suspects, %d truly common, confidence %.4f\n"
      sigma_threshold (List.length common.suspected) common.truly_common common.confidence;
    (* Collusion refinement on the worst owner. *)
    if colluders > 0 then begin
      let worst = ref 0 in
      Array.iteri (fun j c -> if c > confidences.(!worst) then worst := j) confidences;
      let chosen =
        Array.to_list (Rng.sample_without_replacement rng ~k:colluders ~n:dataset.providers)
      in
      Printf.printf
        "with %d random colluders, confidence against the most exposed owner (%d): %.4f\n"
        colluders !worst
        (Eppi.Attack.colluding_confidence ~membership ~published ~owner:!worst
           ~colluders:chosen)
    end
  in
  let term = Term.(const run $ seed_arg $ dataset_arg $ index_arg $ colluders $ sigma_threshold) in
  Cmd.v (Cmd.info "attack" ~doc:"Run the threat-model attacks against a published index") term

(* ---- link ---- *)

let link_cmd =
  let persons =
    Arg.(value & opt int 200 & info [ "persons" ] ~docv:"INT" ~doc:"Ground-truth patients.")
  in
  let providers =
    Arg.(value & opt int 20 & info [ "providers" ] ~docv:"INT" ~doc:"Hospitals.")
  in
  let bloom =
    Arg.(
      value & flag
      & info [ "bloom" ]
          ~doc:"Use privacy-preserving Bloom-filter field encodings instead of plaintext.")
  in
  let run seed persons providers bloom output =
    let rng = Rng.create seed in
    let registrations =
      Eppi_linkage.Demographic.population rng ~persons ~providers ~max_registrations:4
    in
    let config =
      if bloom then
        {
          Eppi_linkage.Linkage.mode =
            Eppi_linkage.Linkage.Bloom { Eppi_linkage.Bloom.default_params with bits = 256 };
          match_threshold = 0.82;
        }
      else Eppi_linkage.Linkage.default_config
    in
    let linked = Eppi_linkage.Linkage.link config registrations in
    let quality = Eppi_linkage.Linkage.evaluate linked registrations in
    Printf.eprintf
      "%d registrations -> %d entities (truth %d); precision %.3f recall %.3f f1 %.3f\n"
      (Array.length registrations) linked.entities persons quality.precision quality.recall
      quality.f1;
    (* Emit a dataset CSV so the result chains into `eppi construct`. *)
    let membership = Eppi_linkage.Linkage.to_membership linked registrations ~providers in
    let dataset =
      {
        Eppi_dataset.Dataset.providers;
        owners = linked.entities;
        membership;
        epsilons = Array.make linked.entities 0.5;
      }
    in
    write_output output (Eppi_dataset.Dataset.to_csv dataset)
  in
  let term = Term.(const run $ seed_arg $ persons $ providers $ bloom $ output_arg) in
  Cmd.v
    (Cmd.info "link"
       ~doc:
         "Generate a messy multi-provider patient population, link it (optionally \
          privacy-preservingly), and emit the linked dataset for `construct`")
    term

(* ---- serve ---- *)

let serve_cmd =
  let rate =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~docv:"FLOAT"
          ~doc:
            "Enable admission control: the refill rate (requests/s) of the daemon's one token \
             bucket, which exact and fuzzy queries share.  Off by default.")
  in
  let burst =
    Arg.(
      value & opt int 1000
      & info [ "burst" ] ~docv:"INT" ~doc:"Token-bucket burst capacity (with $(b,--rate)).")
  in
  let listen =
    let doc =
      "Run as a persistent daemon on $(docv) (a Unix-socket path or $(i,HOST:PORT)).  Serves \
       until an $(b,eppi shutdown) frame arrives; $(b,eppi republish) hot-swaps the index \
       without a restart."
    in
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let stdio =
    let doc =
      "Run the daemon over standard input/output (inetd-style framing) instead of a socket: \
       the same loop as $(b,--listen), with one connection.  It answers every frame read \
       before end of input, then exits."
    in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let peers =
    let doc =
      "Comma-separated replica set this daemon belongs to (with $(b,--listen)).  Descriptive, \
       not connective: the daemon never dials its peers, it only echoes the set in \
       cluster-status replies so clients and $(b,eppi top) can discover the other replicas \
       from any one member."
    in
    Arg.(value & opt (some string) None & info [ "peers" ] ~docv:"ADDRS" ~doc)
  in
  let roster =
    let doc =
      "Roster CSV ($(b,eppi generate --roster)) naming each owner id's demographics.  Builds \
       the approximate-identity resolver, enabling $(b,eppi query --fuzzy) against the daemon.  \
       Requires $(b,--linkage-seed)."
    in
    Arg.(value & opt (some file) None & info [ "roster" ] ~docv:"FILE" ~doc)
  in
  let usage_error msg =
    Printf.eprintf "serve: %s\n" msg;
    exit 2
  in
  let run index_path rate burst listen stdio peers roster linkage_seed trace =
    let address =
      match (listen, stdio) with
      | Some _, true -> usage_error "--listen and --stdio are mutually exclusive"
      | None, false ->
          usage_error
            "give --listen ADDR or --stdio (to replay a request log against a daemon, use \
             `eppi query --connect ADDR --replay-log FILE`)"
      | None, true -> None
      | Some addr, false -> (
          match Eppi_net.Addr.parse addr with
          | Ok address -> Some address
          | Error e ->
              usage_error
                (Printf.sprintf "bad --listen %S: %s" addr (Eppi_net.Addr.parse_error_to_string e)))
    in
    let index = load_index ~what:"serve" index_path in
    let n = Eppi.Index.owners index in
    let admission = Option.map (fun rate -> { Eppi_serve.Admission.rate; burst }) rate in
    let config = { Eppi_serve.Serve.admission } in
    let resolver =
      match (roster, linkage_seed) with
      | None, _ -> None
      | Some _, None ->
          usage_error
            "--roster requires --linkage-seed (the shared linkage secret; never a built-in \
             default on a network path)"
      | Some path, Some seed ->
          let people = load ~what:"serve" Eppi_fuzzy.Roster.input_csv path in
          if Array.length people <> n then
            usage_error
              (Printf.sprintf "roster names %d identities but the index has %d owners"
                 (Array.length people) n);
          Some (Eppi_fuzzy.Resolver.build (Eppi_fuzzy.Resolver.default_config ~seed) people)
    in
    let engine = Eppi_serve.Serve.create ~config ?resolver index in
    (* What the daemon serves, told once it can serve it: a listen address
       that fails leaves its one error line alone on stderr. *)
    let announce () =
      if resolver <> None then Printf.eprintf "roster: %d identities, fuzzy resolver enabled\n" n;
      Printf.eprintf "index: %d owners, %d providers; postings store %d bytes\n" n
        (Eppi_serve.Postings.providers (Eppi_serve.Serve.postings engine))
        (Eppi_serve.Postings.memory_bytes (Eppi_serve.Serve.postings engine))
    in
    match address with
    | Some address ->
        let peer_list =
          match peers with
          | None -> []
          | Some addrs ->
              (* Validate eagerly — a typo should fail startup, not every
                 later Cluster_status consumer — but store the strings
                 verbatim, as the operator wrote them. *)
              ignore (replica_set_of_string ~what:"serve" addrs);
              String.split_on_char ',' addrs |> List.map String.trim
        in
        let config = { Eppi_net.Server.default_config with peers = peer_list } in
        let server = Eppi_net.Server.create ~config engine in
        (* Announced only once bound: a path another daemon serves, or
           one that is not a socket, fails before any "listening" line. *)
        let ready () =
          announce ();
          Printf.eprintf "listening on %s (generation %d%s)\n%!"
            (Eppi_net.Addr.to_string address)
            (Eppi_serve.Serve.generation engine)
            (if peer_list = [] then ""
             else Printf.sprintf ", replica set of %d" (List.length peer_list))
        in
        (match with_trace trace (fun () -> Eppi_net.Server.serve ~ready server address) with
        | () -> ()
        | exception Failure msg -> fail ~what:"serve" msg
        | exception Unix.Unix_error (e, _, _) ->
            fail ~what:"serve"
              (Printf.sprintf "%s: %s" (Eppi_net.Addr.to_string address) (Unix.error_message e)));
        Printf.eprintf "daemon stopped; final metrics:\n";
        print_endline (Eppi_serve.Metrics.to_json (Eppi_serve.Serve.metrics engine))
    | None ->
        (* No idle sweep: a stdio peer may pause as long as it likes. *)
        let config = { Eppi_net.Server.default_config with idle_timeout = 0.0 } in
        let server = Eppi_net.Server.create ~config engine in
        announce ();
        with_trace trace (fun () -> Eppi_net.Server.run_stdio server)
  in
  let term =
    Term.(
      const run $ index_arg $ rate $ burst $ listen $ stdio $ peers $ roster
      $ linkage_seed_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Compile a published index into the read-optimized serving engine and serve it as a \
          persistent daemon ($(b,--listen) or $(b,--stdio))")
    term

(* ---- republish / stats / top / shutdown: daemon administration ---- *)

(* The daemon a one-daemon command talks to: [--connect] parses as a
   replica set, and a set of more than one is refused. *)
let one_daemon ~what addrs =
  match Eppi_cluster.Replica_set.addrs (replica_set_of_string ~what addrs) with
  | [ addr ] -> addr
  | _ ->
      Printf.eprintf "%s: talks to one daemon; give one address, not %S\n" what addrs;
      exit 2

(* [Eppi_cluster.ask], with the address in front of the reason. *)
let on_daemon addr f =
  Result.map_error (Printf.sprintf "%s: %s" (Eppi_net.Addr.to_string addr))
    (Eppi_cluster.ask addr f)

let with_daemon ~what addr f =
  match on_daemon addr f with Ok result -> result | Error msg -> fail ~what msg

(* Run [refresh] every [interval] seconds ([iterations] times, 0 = until
   interrupted).  Each refresh dials anew, so a daemon restarted between
   refreshes reappears.  A first refresh that cannot reach its target
   fails like any one-shot command; a later one prints its line and the
   watch goes on. *)
let watch ~what ~interval ~iterations refresh =
  Eppi_prelude.Clock.periodic ~sleep:Unix.sleepf ~interval
    ?iterations:(if iterations <= 0 then None else Some iterations)
    (fun tick ->
      (match refresh () with
      | Ok () -> ()
      | Error msg -> if tick = 1 then fail ~what msg else Printf.eprintf "%s: %s\n%!" what msg);
      flush stdout;
      true)

let republish_cmd =
  let require_arg =
    let doc =
      "Exit non-zero unless at least $(docv) replicas installed the index (default: all of \
       them)."
    in
    Arg.(value & opt (some int) None & info [ "require" ] ~docv:"K" ~doc)
  in
  let run addrs index_path require =
    let set = replica_set_of_string ~what:"republish" addrs in
    let size = Eppi_cluster.Replica_set.size set in
    let require = Option.value ~default:size require in
    if require < 1 || require > size then begin
      Printf.eprintf "republish: --require %d outside 1..%d, the replica set's size\n" require size;
      exit 2
    end;
    let index = load_index ~what:"republish" index_path in
    let report = Eppi_cluster.Fanout.republish set index in
    List.iter
      (fun (r : Eppi_cluster.Fanout.replica_result) ->
        match r.outcome with
        | Ok generation ->
            Printf.printf "%s: generation %d (%d attempt%s, %.3fs)\n"
              (Eppi_net.Addr.to_string r.addr) generation r.attempts
              (if r.attempts = 1 then "" else "s")
              r.seconds
        | Error msg ->
            Printf.printf "%s: failed after %d attempt%s: %s\n"
              (Eppi_net.Addr.to_string r.addr) r.attempts
              (if r.attempts = 1 then "" else "s")
              msg)
      report.results;
    Printf.printf "republished %d/%d replicas%s in %.3fs\n%!" report.succeeded size
      (match report.generation with
      | Some g -> Printf.sprintf " at generation %d" g
      | None -> "")
      report.wall_seconds;
    if report.succeeded < require then
      fail ~what:"republish"
        (Printf.sprintf "%d of %d replicas installed the index, %d required" report.succeeded
           size require)
  in
  let term = Term.(const run $ connect_set_arg $ index_arg $ require_arg) in
  Cmd.v
    (Cmd.info "republish"
       ~doc:
         "Hot-swap the index of every daemon in a replica set: queries keep flowing, the new \
          generation takes effect atomically.  The index is encoded once, as the compact binary \
          codec, and pushed to every replica concurrently; transient failures retry with \
          jittered backoff, and a dead replica never blocks the others")
    term

(* Seconds → a human-sized unit.  Telemetry spans ns..s; a fixed unit
   would drown either end in zeros. *)
let fmt_duration s =
  if s <= 0.0 then "-"
  else if s < 1e-6 then Printf.sprintf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

(* One `stats --watch` line: per-interval counter deltas with rates, plus
   the point-in-time fields that don't diff (generation, percentiles). *)
let stats_delta_line ~dt ?prev cur =
  let get v k = Option.value ~default:0 (Json.find_int v [ k ]) in
  let getf v k = Option.value ~default:0.0 (Json.find_num v [ k ]) in
  let d k = get cur k - match prev with Some p -> get p k | None -> 0 in
  let rate k = float_of_int (d k) /. dt in
  Printf.sprintf
    "queries %6d (%8.1f/s)  served %6d  shed %4d  fuzzy %5d  audits %4d  gen %d  swaps %d  \
     p50 %s  p99 %s"
    (d "queries") (rate "queries") (d "served")
    (d "shed_rate" + d "shed_queue")
    (d "fuzzy_queries") (d "audits") (get cur "generation") (get cur "swaps")
    (fmt_duration (getf cur "p50_s"))
    (fmt_duration (getf cur "p99_s"))

let stats_cmd =
  let watch_arg =
    let doc =
      "Refresh every $(docv) seconds, printing one line of per-interval counter deltas (with \
       rates) per refresh instead of a one-shot snapshot.  The first line is the delta from \
       zero, i.e. the daemon's lifetime totals.  Interrupt with Ctrl-C."
    in
    Arg.(value & opt (some float) None & info [ "watch" ] ~docv:"SECS" ~doc)
  in
  let json_arg =
    let doc =
      "Print the raw JSON snapshot on every refresh instead of the delta line — for scripting.  \
       Without $(b,--watch) this is already the default output."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let iterations_arg =
    let doc = "With $(b,--watch): stop after $(docv) refreshes (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let run addrs interval json iterations =
    let addr = one_daemon ~what:"stats" addrs in
    match interval with
    | None -> print_endline (with_daemon ~what:"stats" addr Eppi_net.Client.stats_json)
    | Some interval ->
        let interval = if interval <= 0.0 then 1.0 else interval in
        let prev = ref None in
        watch ~what:"stats" ~interval ~iterations (fun () ->
            match on_daemon addr Eppi_net.Client.stats_json with
            | Error _ as e ->
                (* A restarted daemon counts from zero again. *)
                prev := None;
                e
            | Ok raw ->
                (if json then print_endline raw
                 else
                   match Json.parse raw with
                   | Error e -> Printf.eprintf "stats: unparseable reply: %s\n" e
                   | Ok cur ->
                       print_endline (stats_delta_line ~dt:interval ?prev:!prev cur);
                       prev := Some cur);
                Ok ())
  in
  let term = Term.(const run $ connect_set_arg $ watch_arg $ json_arg $ iterations_arg) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print a running daemon's metrics snapshot (JSON, one line), or watch it live: \
          $(b,--watch SECS) prints per-interval counter deltas, $(b,--json) keeps the raw \
          snapshot for scripting")
    term

(* ---- top: live request-stage telemetry ---- *)

(* Render one Telemetry reply ({!Eppi_net.Telemetry.json}) as the
   `eppi top` screen: window rates per request class, the stage latency
   decomposition with its conservation check, and the slow-request ring.
   Both tables take their stages from [Telemetry.stage_names]. *)
let render_top v =
  let b = Buffer.create 1024 in
  let geti path = Option.value ~default:0 (Json.find_int v path) in
  let getf path = Option.value ~default:0.0 (Json.find_num v path) in
  let getb path = match Json.find v path with Some (Json.Bool x) -> x | _ -> false in
  Printf.bprintf b
    "eppi top — %d requests  gen %d  swaps %d  telemetry %s  trace %s (dropped %d)\n"
    (geti [ "requests" ]) (geti [ "generation" ]) (geti [ "swaps" ])
    (if getb [ "telemetry_enabled" ] then "on" else "off")
    (if getb [ "trace"; "enabled" ] then "on" else "off")
    (geti [ "trace"; "dropped" ]);
  Printf.bprintf b "\nwindow (last %.0fs)   count      rate      p50      p99\n"
    (getf [ "window"; "span_s" ]);
  Array.iter
    (fun cls ->
      let path k = [ "window"; cls; k ] in
      let count = geti (path "count") in
      if count > 0 || cls = "query" then
        Printf.bprintf b "  %-11s %9d %7.1f/s %8s %8s\n" cls count
          (getf (path "rate"))
          (fmt_duration (getf (path "p50_s")))
          (fmt_duration (getf (path "p99_s"))))
    Eppi_net.Telemetry.classes;
  Printf.bprintf b "\nstage           count       sum      mean      p50      p99\n";
  Array.iter
    (fun st ->
      let path k = [ "stages"; st; k ] in
      Printf.bprintf b "  %-11s %7d %9s %9s %8s %8s\n" st (geti (path "count"))
        (fmt_duration (float_of_int (geti (path "sum_ns")) /. 1e9))
        (fmt_duration (getf (path "mean_s")))
        (fmt_duration (getf (path "p50_s")))
        (fmt_duration (getf (path "p99_s"))))
    Eppi_net.Telemetry.stage_names;
  let stage_sum = geti [ "conservation"; "stage_sum_ns" ] in
  let total = geti [ "conservation"; "total_ns" ] in
  Printf.bprintf b "  %-11s %7d %9s%s\n" "= total"
    (geti [ "stages"; "total"; "count" ])
    (fmt_duration (float_of_int total /. 1e9))
    (if getb [ "conservation"; "exact" ] then "  (conservation: exact)"
     else Printf.sprintf "  (conservation: off by %dns)" (total - stage_sum));
  (match Json.find v [ "slow" ] with
  | Some (Json.List (_ :: _ as ss)) ->
      Printf.bprintf b "\n%-11s %7s" "slowest" "total";
      Array.iter (Printf.bprintf b " %8s") Eppi_net.Telemetry.stage_names;
      Buffer.add_char b '\n';
      List.iteri
        (fun i w ->
          if i < 8 then begin
            let f k =
              fmt_duration (float_of_int (Option.value ~default:0 (Json.find_int w [ k ])) /. 1e9)
            in
            Printf.bprintf b "  %-9s %7s"
              (Option.value ~default:"?" (Json.find_str w [ "kind" ]))
              (f "total_ns");
            Array.iter
              (fun st -> Printf.bprintf b " %8s" (f (st ^ "_ns")))
              Eppi_net.Telemetry.stage_names;
            Buffer.add_char b '\n'
          end)
        ss
  | _ -> ());
  Buffer.contents b

(* Probe one replica for the cluster top view: generation/swaps from
   Cluster_status plus lifetime query count and p99 from the stats
   snapshot, on one short-lived connection.  A dead replica is a row, not
   an error. *)
let probe_replica addr =
  Eppi_cluster.ask ~request_timeout:5.0 addr (fun client ->
      (Eppi_net.Client.cluster_status client, Eppi_net.Client.stats_json client))

let render_cluster_top set =
  let probes =
    List.map (fun addr -> (addr, probe_replica addr)) (Eppi_cluster.Replica_set.addrs set)
  in
  let converged =
    Eppi_cluster.Fanout.converged
      (List.map (fun (addr, probe) -> (addr, Result.map fst probe)) probes)
  in
  let b = Buffer.create 512 in
  Printf.bprintf b "eppi top — cluster of %d  %s\n\n" (List.length probes)
    (match converged with
    | Some g -> Printf.sprintf "converged at generation %d" g
    | None -> "NOT converged");
  Printf.bprintf b "replica                           gen  swaps   queries      p50      p99\n";
  List.iter
    (fun (addr, probe) ->
      let name = Eppi_net.Addr.to_string addr in
      match probe with
      | Error msg -> Printf.bprintf b "  %-30s down: %s\n" name msg
      | Ok ((s : Eppi_net.Wire.cluster_status), stats_raw) ->
          let stats = Result.value ~default:Json.Null (Json.parse stats_raw) in
          let latency k = fmt_duration (Option.value ~default:0.0 (Json.find_num stats [ k ])) in
          Printf.bprintf b "  %-30s %4d %6d %9d %8s %8s\n" name s.generation s.swaps
            (Option.value ~default:0 (Json.find_int stats [ "queries" ]))
            (latency "p50_s") (latency "p99_s"))
    probes;
  Buffer.contents b

let cluster_top_json set =
  Json.to_string
    (List
       (List.map
          (fun addr ->
            let addr_field = ("addr", Json.Str (Eppi_net.Addr.to_string addr)) in
            match probe_replica addr with
            | Error msg -> Json.Obj [ addr_field; ("up", Bool false); ("error", Str msg) ]
            | Ok ((s : Eppi_net.Wire.cluster_status), _) ->
                Obj
                  [ addr_field; ("up", Bool true); ("generation", Json.int s.generation);
                    ("swaps", Json.int s.swaps); ("peers", Json.int (List.length s.peers)) ])
          (Eppi_cluster.Replica_set.addrs set)))

let top_cmd =
  let interval_arg =
    let doc = "Seconds between refreshes." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECS" ~doc)
  in
  let once_arg =
    let doc = "Render one snapshot and exit instead of refreshing." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let json_arg =
    let doc = "Print the raw telemetry JSON once and exit — for scripting (implies $(b,--once))." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let iterations_arg =
    let doc = "Stop after $(docv) refreshes (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let run addrs interval once json iterations =
    let interval = if interval <= 0.0 then 1.0 else interval in
    let set = replica_set_of_string ~what:"top" addrs in
    let one =
      match Eppi_cluster.Replica_set.addrs set with
      | [ addr ] ->
          fun () ->
            Result.bind (on_daemon addr Eppi_net.Client.telemetry_json) (fun raw ->
                if json then Ok (print_endline raw)
                else
                  match Json.parse raw with
                  | Error e -> Error ("unparseable reply: " ^ e)
                  | Ok v -> Ok (print_string (render_top v)))
      | _ ->
          (* Replica set: one aggregated row per replica, probed per
             refresh over short-lived connections, so a dead replica shows
             as "down" instead of wedging the screen. *)
          fun () ->
            Ok
              (if json then print_endline (cluster_top_json set)
               else print_string (render_cluster_top set))
    in
    if once || json then Result.iter_error (fail ~what:"top") (one ())
    else
      (* Clear + home per refresh: a live top-style screen without a TUI
         dep. *)
      watch ~what:"top" ~interval ~iterations (fun () ->
          print_string "\027[2J\027[H";
          one ())
  in
  let term =
    Term.(const run $ connect_set_arg $ interval_arg $ once_arg $ json_arg $ iterations_arg)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Watch a running daemon's live telemetry: rolling-window p50/p99/throughput per \
          request class, the decode/execute/flush stage decomposition with its conservation \
          check, and the slowest-request ring.  $(b,--json) dumps the raw snapshot for \
          scripting.  With a comma-separated replica set ($(b,--connect A,B,C)): one row per \
          replica — \
          generation, swaps, query count, p50, p99 — plus a convergence verdict")
    term

let shutdown_cmd =
  let run addrs =
    with_daemon ~what:"shutdown" (one_daemon ~what:"shutdown" addrs) Eppi_net.Client.shutdown;
    Printf.eprintf "daemon stopped\n"
  in
  let term = Term.(const run $ connect_set_arg) in
  Cmd.v (Cmd.info "shutdown" ~doc:"Gracefully stop a running daemon") term

(* ---- inspect ---- *)

let inspect_cmd =
  let run dataset_path =
    let dataset = load_dataset ~what:"inspect" dataset_path in
    print_endline (Eppi_dataset.Dataset.stats_summary dataset)
  in
  let term = Term.(const run $ dataset_arg) in
  Cmd.v (Cmd.info "inspect" ~doc:"Print dataset statistics") term

let () =
  let doc = "e-PPI: locator service with personalized privacy preservation" in
  let info = Cmd.info "eppi" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            construct_cmd;
            query_cmd;
            serve_cmd;
            republish_cmd;
            stats_cmd;
            top_cmd;
            shutdown_cmd;
            evaluate_cmd;
            attack_cmd;
            link_cmd;
            inspect_cmd;
          ]))
