open Eppi_prelude
module Simnet = Eppi_simnet.Simnet
module Circuit = Eppi_circuit.Circuit
module Gmw = Eppi_mpc.Gmw
module Trace = Eppi_obs.Trace

type metrics = {
  secsumshare_time : float;
  mpc_time : float;
  publication_time : float;
  total_time : float;
  messages : int;
  bytes : int;
  circuit_stats : Circuit.stats;
  mpc_comm : Gmw.comm_stats;
}

type result = {
  index : Eppi.Index.t;
  betas : float array;
  common : bool array;
  mixed : bool array;
  lambda : float;
  xi : float;
  metrics : metrics;
}

type fault_report = {
  excluded : int list;
  survivors : int list;
  attempts : int;
  sss_retransmissions : int;
  mpc_retransmissions : int;
  duplicates : int;
  retried_rounds : int;
}

type outcome =
  | Complete of result * fault_report
  | Degraded of result * fault_report
  | Failed of string * fault_report

let modulus_for m = Modarith.modulus (Modarith.next_prime (m + 1))

(* Publication is a local scan of each provider's n bits. *)
let publication_cost ~n = 2e-8 *. float_of_int n

(* Release phase (public computation at a designated coordinator) followed
   by local randomized publication.  The rng draw order here is
   load-bearing for bit-identical replays. *)
let release_and_publish ~rng_release ~rng_publish ~mixing ~policy ~epsilons ~membership
    ~(cb : Countbelow.result) =
  let n = Bitmatrix.rows membership in
  let m = Bitmatrix.cols membership in
  Trace.begin_span "phase.mixing";
  let mix = Eppi.Mixing.plan rng_release ~mode:mixing ~epsilons ~common:cb.common in
  let betas =
    Array.init n (fun j ->
        if cb.common.(j) || mix.mixed.(j) then 1.0
        else begin
          match cb.frequencies.(j) with
          | None -> 1.0 (* unreachable: non-common identities carry a frequency *)
          | Some f ->
              Eppi.Policy.beta policy
                ~sigma:(float_of_int f /. float_of_int m)
                ~epsilon:epsilons.(j) ~m
        end)
  in
  let n_mixed = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mix.mixed in
  Trace.end_span "phase.mixing" ~args:[ ("n_common", cb.n_common); ("decoys", n_mixed) ];
  (* Phase 2: local randomized publication at every provider. *)
  Trace.begin_span "phase.publish";
  let published = Eppi.Publish.publish_matrix rng_publish ~betas membership in
  let index = Eppi.Index.of_matrix published in
  Trace.end_span "phase.publish" ~args:[ ("owners", n); ("providers", m) ];
  (index, betas, mix)

(* One construction over the providers whose columns [membership] holds,
   under fault plans already in its node ids.  [tally] sees each stage's
   reliability report, including a stalled stage's.  Without plans the
   stages cannot stall, and this is the whole of {!run}. *)
let attempt ~transport ~pool ~sss_plan ~mpc_plan ~c ~mixing ~tally rng ~membership
    ~epsilons ~policy =
  let n = Bitmatrix.rows membership in
  let m = Bitmatrix.cols membership in
  let q = modulus_for m in
  (* Each phase draws from its own child stream: how many draws one phase
     makes (which varies with the circuit shapes) can never perturb the
     next phase, so the construction output is bit-identical across
     transports, domain counts and fault plans. *)
  let rng_sss = Rng.split rng in
  let rng_mpc = Rng.split rng in
  let rng_release = Rng.split rng in
  let rng_publish = Rng.split rng in
  (* Per-domain pool accounting across the MPC stage: a zero sample opens
     each worker's counter track, the closing sample carries the busy
     delta — one counter track per pool domain in the exported trace. *)
  let pool_before =
    if Trace.enabled () then begin
      let b = Pool.stats pool in
      Array.iteri
        (fun i _ ->
          Trace.counter (Printf.sprintf "pool/worker-%d" i) [ ("busy_us", 0); ("jobs", 0) ])
        b;
      Some b
    end
    else None
  in
  Trace.begin_span "phase.beta";
  let stalled stage (r : Link.report) =
    tally stage r;
    Trace.end_span "phase.beta" ~args:[ ("excluded", List.length r.suspects) ];
    Error (stage, r.suspects)
  in
  match Secsumshare.run ?plan:sss_plan rng_sss ~membership ~c ~q with
  | exception Link.Stalled r -> stalled `Secsumshare r
  | sss -> (
      tally `Secsumshare sss.link;
      let thresholds =
        Array.map (fun epsilon -> Countbelow.integer_threshold ~policy ~epsilon ~m) epsilons
      in
      match
        Countbelow.run ~transport ~pool ?plan:mpc_plan rng_mpc
          ~shares:sss.coordinator_shares ~q ~thresholds
      with
      | exception Link.Stalled r -> stalled `Countbelow r
      | cb ->
          Option.iter (tally `Countbelow) cb.link;
          let sss_time = sss.link.protocol_time in
          let messages = sss.net.messages_sent + cb.comm.messages in
          let bytes = sss.net.bytes_sent + cb.comm.bytes in
          Trace.end_span "phase.beta"
            ~args:
              [
                ("messages", messages);
                ("bytes", bytes);
                ("sim_us", int_of_float ((sss_time +. cb.time) *. 1e6));
              ];
          (match pool_before with
          | None -> ()
          | Some before ->
              let after = Pool.stats pool in
              Array.iteri
                (fun i (b : Pool.worker_stat) ->
                  let a = after.(i) in
                  Trace.counter (Printf.sprintf "pool/worker-%d" i)
                    [ ("busy_us", (a.busy_ns - b.busy_ns) / 1000); ("jobs", a.jobs - b.jobs) ])
                before);
          let index, betas, mix =
            release_and_publish ~rng_release ~rng_publish ~mixing ~policy ~epsilons ~membership
              ~cb
          in
          let publication_time = publication_cost ~n in
          let metrics =
            {
              secsumshare_time = sss_time;
              mpc_time = cb.time;
              publication_time;
              total_time = sss_time +. cb.time +. publication_time;
              messages;
              bytes;
              circuit_stats = cb.circuit_stats;
              mpc_comm = cb.comm;
            }
          in
          Ok
            {
              index;
              betas;
              common = cb.common;
              mixed = mix.mixed;
              lambda = mix.lambda;
              xi = mix.xi;
              metrics;
            })

let run ?(transport = `Cost_model) ?(pool = Pool.sequential) ?(c = 3)
    ?(mixing = Eppi.Mixing.Bernoulli) rng ~membership ~epsilons ~policy =
  if Array.length epsilons <> Bitmatrix.rows membership then
    invalid_arg "Protocol.Construct.run: epsilons length mismatch";
  match
    attempt ~transport ~pool ~sss_plan:None ~mpc_plan:None ~c ~mixing
      ~tally:(fun _ _ -> ())
      rng ~membership ~epsilons ~policy
  with
  | Ok result -> result
  | Error _ -> failwith "Protocol.Construct.run: a stage stalled on a fault-free network"

(* ---------- fault-tolerant construction ---------- *)

let max_attempts = 3

(* Project a fault plan expressed in original provider ids onto the id space
   of an attempt's net: survivors (in increasing original id order) become
   nodes 0..m'-1, and entries touching excluded providers — or providers
   beyond the net's node count, for the c-coordinator MPC net — vanish. *)
let remap_plan (plan : Simnet.fault_plan) ~survivors ~nodes =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun k p -> Hashtbl.replace tbl p k) survivors;
  let map p =
    match Hashtbl.find_opt tbl p with Some k when k < nodes -> Some k | _ -> None
  in
  {
    plan with
    Simnet.links =
      List.filter_map
        (fun ((s, d), lf) ->
          match (map s, map d) with Some s, Some d -> Some ((s, d), lf) | _ -> None)
        plan.Simnet.links;
    crashes =
      List.filter_map (fun (t, p) -> Option.map (fun p -> (t, p)) (map p)) plan.Simnet.crashes;
    partitions =
      List.map
        (fun pt -> { pt with Simnet.islands = List.map (List.filter_map map) pt.Simnet.islands })
        plan.Simnet.partitions;
    slow = List.filter_map (fun (p, f) -> Option.map (fun p -> (p, f)) (map p)) plan.Simnet.slow;
  }

(* Survivor-column view of the membership matrix. *)
let submatrix membership survivors =
  let n = Bitmatrix.rows membership in
  let sub = Bitmatrix.create ~rows:n ~cols:(List.length survivors) in
  List.iteri
    (fun k p ->
      for j = 0 to n - 1 do
        if Bitmatrix.get membership ~row:j ~col:p then Bitmatrix.set sub ~row:j ~col:k true
      done)
    survivors;
  sub

let run_ft ?sss_plan ?mpc_plan ?(pool = Pool.sequential) ?(c = 3)
    ?(mixing = Eppi.Mixing.Bernoulli) rng ~membership ~epsilons ~policy =
  let m = Bitmatrix.cols membership in
  if Array.length epsilons <> Bitmatrix.rows membership then
    invalid_arg "Protocol.Construct.run_ft: epsilons length mismatch";
  let sss_retrans = ref 0 in
  let mpc_retrans = ref 0 in
  let duplicates = ref 0 in
  let retried_rounds = ref 0 in
  let tally stage (r : Link.report) =
    duplicates := !duplicates + r.duplicates;
    match stage with
    | `Secsumshare -> sss_retrans := !sss_retrans + r.retransmissions
    | `Countbelow ->
        mpc_retrans := !mpc_retrans + r.retransmissions;
        retried_rounds := !retried_rounds + r.retried_rounds
  in
  (* alive.(p): original provider p is still in the survivor set.  Both the
     reports and the retries read it, so neither is quadratic in m. *)
  let alive = Array.make m true in
  let report ~survivors ~attempts =
    {
      excluded = List.filter (fun p -> not alive.(p)) (List.init m Fun.id);
      survivors;
      attempts;
      sss_retransmissions = !sss_retrans;
      mpc_retransmissions = !mpc_retrans;
      duplicates = !duplicates;
      retried_rounds = !retried_rounds;
    }
  in
  (* Every attempt draws its phase streams from [rng] in turn, so the first
     is exactly {!run}'s and a retry is a fresh run over the survivor set,
     deterministic in (rng, attempt number). *)
  let rec loop k survivors =
    let m' = List.length survivors in
    if k > max_attempts then
      Failed
        ( Printf.sprintf "gave up after %d attempts" max_attempts,
          report ~survivors ~attempts:(k - 1) )
    else if m' < c then
      Failed
        ( Printf.sprintf "only %d providers survive, need at least c = %d" m' c,
          report ~survivors ~attempts:(k - 1) )
    else begin
      Trace.begin_span "construct.attempt";
      let outcome =
        attempt ~transport:`Cost_model ~pool
          ~sss_plan:(Option.map (remap_plan ~survivors ~nodes:m') sss_plan)
          ~mpc_plan:(Option.map (remap_plan ~survivors ~nodes:c) mpc_plan)
          ~c ~mixing ~tally rng
          ~membership:(if m' = m then membership else submatrix membership survivors)
          ~epsilons ~policy
      in
      let suspects = match outcome with Ok _ -> [] | Error (_, s) -> s in
      Trace.end_span "construct.attempt"
        ~args:
          [
            ("attempt", k);
            ("providers", m');
            ("excluded", List.length suspects);
            ("sss_retransmissions", !sss_retrans);
            ("mpc_retransmissions", !mpc_retrans);
          ];
      match outcome with
      | Ok result ->
          let rep = report ~survivors ~attempts:k in
          if rep.excluded = [] then Complete (result, rep) else Degraded (result, rep)
      | Error (stage, []) ->
          let name = match stage with `Secsumshare -> "SecSumShare" | `Countbelow -> "CountBelow" in
          Failed (name ^ " stalled with no identified culprit", report ~survivors ~attempts:k)
      | Error (_, suspects) ->
          (* Suspects are attempt-local node ids; translate back. *)
          let orig = Array.of_list survivors in
          List.iter (fun i -> alive.(orig.(i)) <- false) suspects;
          loop (k + 1) (List.filter (fun p -> alive.(p)) survivors)
    end
  in
  loop 1 (List.init m Fun.id)
