(* Chaos harness: the fault-tolerant construction under injected faults.

   Three campaigns, each asserting the robustness contract rather than just
   timing it (a chaos run that silently produced a wrong index would be
   worse than a crash):

   + {b loss sweep} — construction at increasing drop rates.  Every
     completed run must be bit-identical to the lossless baseline (the
     reliability sublayer masks loss; protocol randomness is pre-split so
     retransmissions consume no protocol state), and a second run with the
     same fault seed must reproduce the first exactly.
   + {b provider crash} — a provider fail-stops mid-SecSumShare.  The
     outcome must be [Degraded], excluding exactly that provider, and every
     surviving owner's published row must still satisfy its ε guarantee
     over the survivor set: common/mixed rows published everywhere, other
     rows' β matching the policy recomputed for m', and recall intact.
   + {b coordinator crash} — a CountBelow coordinator dies mid-MPC; same
     contract, exercised through the reliable GMW transport.

   Writes BENCH_chaos.json and gates on the verdicts it records: the
   harness exits non-zero unless every lossy run is bit-identical and
   both crash runs degrade within the ε contract.

   Environment knobs: CHAOS_N (identities, default 60), CHAOS_M (providers,
   default 12), CHAOS_DROPS (comma list of drop rates, default
   0.02,0.05,0.1), CHAOS_SEED (fault seed, default 2014). *)

open Eppi_prelude
module Construct = Eppi_protocol.Construct
module Simnet = Eppi_simnet.Simnet

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let drop_rates () =
  match Sys.getenv_opt "CHAOS_DROPS" with
  | None -> [ 0.02; 0.05; 0.1 ]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun tok -> float_of_string_opt (String.trim tok))
      |> List.filter (fun d -> d >= 0.0 && d < 1.0)

let drop_plan ~seed drop =
  {
    Simnet.no_faults with
    fault_seed = seed;
    default_link = { Simnet.perfect_link with drop };
  }

(* The ε contract over whatever provider set the run ended with: common and
   mixed identities are published by everyone, the rest at the policy's β
   for the survivor count; recall must be intact either way. *)
let check_epsilon_invariant ~what (r : Construct.result) (rep : Construct.fault_report)
    ~membership ~epsilons ~policy =
  let n = Array.length epsilons in
  let m' = List.length rep.survivors in
  let sub = Bitmatrix.create ~rows:n ~cols:m' in
  List.iteri
    (fun k p ->
      for j = 0 to n - 1 do
        if Bitmatrix.get membership ~row:j ~col:p then Bitmatrix.set sub ~row:j ~col:k true
      done)
    rep.survivors;
  Array.iteri
    (fun j epsilon ->
      let f = Bitmatrix.row_count sub j in
      let sigma = float_of_int f /. float_of_int m' in
      if r.common.(j) || r.mixed.(j) then begin
        if r.betas.(j) <> 1.0 then
          failwith (Printf.sprintf "%s: identity %d common/mixed but beta <> 1" what j);
        if Eppi.Index.query_count r.index ~owner:j <> m' then
          failwith
            (Printf.sprintf "%s: identity %d common/mixed but not published at all %d" what j m')
      end
      else begin
        let expected = Eppi.Policy.beta policy ~sigma ~epsilon ~m:m' in
        if Float.abs (r.betas.(j) -. expected) > 1e-9 then
          failwith
            (Printf.sprintf "%s: identity %d beta %.6f, policy says %.6f for m'=%d" what j
               r.betas.(j) expected m')
      end;
      if not (Eppi.Index.recall_ok ~membership:sub r.index ~owner:j) then
        failwith (Printf.sprintf "%s: identity %d lost a true positive" what j))
    epsilons

let run () =
  let n = getenv_int "CHAOS_N" 60 in
  let m = getenv_int "CHAOS_M" 12 in
  let seed = getenv_int "CHAOS_SEED" 2014 in
  Bench_util.heading
    (Printf.sprintf "Chaos: fault-tolerant construction (n=%d identities, m=%d providers)" n m);
  let rng = Rng.create 4242 in
  let freqs = Array.init n (fun j -> 1 + (j mod m)) in
  let membership = Bench_util.matrix_of_frequencies rng ~m ~freqs in
  let epsilons = Array.init n (fun j -> 0.2 +. (0.6 *. float_of_int (j mod 5) /. 4.0)) in
  let policy = Eppi.Policy.Chernoff 0.9 in
  let construct ?sss_plan ?mpc_plan () =
    Construct.run_ft ?sss_plan ?mpc_plan (Rng.create 99) ~membership ~epsilons ~policy
  in
  let complete what = function
    | Construct.Complete (r, rep) -> (r, rep)
    | Construct.Degraded (_, rep) ->
        failwith
          (Printf.sprintf "%s: degraded (excluded %s) where loss alone must be masked" what
             (String.concat "," (List.map string_of_int rep.excluded)))
    | Construct.Failed (reason, _) -> failwith (Printf.sprintf "%s: failed: %s" what reason)
  in
  (* A crash run's verdict: the outcome kind, and whether the ε contract
     holds — the run finished excluding exactly the victim, and every
     surviving owner's row is right for the survivor set.  Only the
     provider campaign records its survivor count. *)
  let crash what ~victim ~survivors outcome =
    let holds r (rep : Construct.fault_report) =
      rep.excluded = [ victim ]
      &&
      match check_epsilon_invariant ~what r rep ~membership ~epsilons ~policy with
      | () -> true
      | exception Failure msg ->
          Bench_util.note "%s" msg;
          false
    in
    let name, rep, contract =
      match outcome with
      | Construct.Complete (r, rep) -> ("complete", rep, holds r rep)
      | Construct.Degraded (r, rep) -> ("degraded", rep, holds r rep)
      | Construct.Failed (reason, rep) ->
          Bench_util.note "%s: failed: %s" what reason;
          ("failed", rep, false)
    in
    Bench_util.note "%s: %s after %d attempts, excluded [%s], epsilon contract %s over %d survivors"
      what name rep.attempts
      (String.concat ";" (List.map string_of_int rep.excluded))
      (if contract then "holds" else "BROKEN")
      (List.length rep.survivors);
    Json.Obj
      ([ ("victim", Json.int victim); ("outcome", Str name); ("attempts", Json.int rep.attempts) ]
      @ (if survivors then [ ("survivors", Json.int (List.length rep.survivors)) ] else [])
      @ [ ("epsilon_contract", Bool contract) ])
  in

  (* Campaign 1: loss sweep, bit-identity against the lossless baseline. *)
  let baseline, _ = complete "baseline" (construct ()) in
  Bench_util.note "lossless baseline: lambda=%.3f" baseline.lambda;
  let sweep =
    List.map
      (fun drop ->
        let what = Printf.sprintf "drop %.2f" drop in
        let plan = drop_plan ~seed drop in
        let r, rep = complete what (construct ~sss_plan:plan ~mpc_plan:plan ()) in
        let bit_identical =
          r.betas = baseline.betas
          && Bitmatrix.equal (Eppi.Index.matrix r.index) (Eppi.Index.matrix baseline.index)
        in
        let r2, rep2 = complete what (construct ~sss_plan:plan ~mpc_plan:plan ()) in
        if
          not (Bitmatrix.equal (Eppi.Index.matrix r2.index) (Eppi.Index.matrix r.index))
          || rep2.sss_retransmissions <> rep.sss_retransmissions
          || rep2.mpc_retransmissions <> rep.mpc_retransmissions
        then failwith (what ^ ": same fault seed did not reproduce the run");
        Bench_util.note "%s: %s lossless (retransmissions sss=%d mpc=%d, duplicates=%d)" what
          (if bit_identical then "bit-identical to" else "DIVERGED from")
          rep.sss_retransmissions rep.mpc_retransmissions rep.duplicates;
        Json.Obj
          [ ("drop", Num drop); ("bit_identical", Bool bit_identical);
            ("sss_retransmissions", Json.int rep.sss_retransmissions);
            ("mpc_retransmissions", Json.int rep.mpc_retransmissions);
            ("duplicates", Json.int rep.duplicates);
            ("retried_rounds", Json.int rep.retried_rounds) ])
      (drop_rates ())
  in

  (* Campaign 2: a provider fail-stops mid-SecSumShare, under loss. *)
  let victim = m - 2 in
  let crash_plan =
    { (drop_plan ~seed 0.02) with crashes = [ (0.0, victim) ] }
  in
  let provider_crash =
    crash "provider crash" ~victim ~survivors:true (construct ~sss_plan:crash_plan ())
  in

  (* Campaign 3: a CountBelow coordinator dies mid-MPC. *)
  let mpc_crash = { Simnet.no_faults with fault_seed = seed; crashes = [ (0.002, 1) ] } in
  let coordinator_crash =
    crash "coordinator crash" ~victim:1 ~survivors:false (construct ~mpc_plan:mpc_crash ())
  in

  let open Bench_util in
  let degraded_within_contract key v =
    Json.find_str v [ key; "outcome" ] = Some "degraded" && flag v [ key; "epsilon_contract" ]
  in
  publish "BENCH_chaos.json"
    (Obj
       [ ("bench", Str "chaos"); ("n_identities", Json.int n); ("m_providers", Json.int m);
         ("fault_seed", Json.int seed); ("loss_sweep", List sweep);
         ("provider_crash", provider_crash); ("coordinator_crash", coordinator_crash) ])
    [ ( "loss sweep populated, every lossy run bit-identical to lossless",
        fun v ->
          let runs = items v [ "loss_sweep" ] in
          List.length runs >= min 2 (List.length (drop_rates ()))
          && List.for_all (fun r -> flag r [ "bit_identical" ]) runs );
      ( "provider crash degrades within the epsilon contract",
        degraded_within_contract "provider_crash" );
      ( "coordinator crash degrades within the epsilon contract",
        degraded_within_contract "coordinator_crash" ) ]
