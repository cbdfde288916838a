(** End-to-end distributed ε-PPI construction (paper Section IV).

    Orchestrates the two phases over the simulated network:

    + {b β calculation}: SecSumShare among all m providers (ring protocol,
      all identities batched) → CountBelow via generic MPC among the c
      coordinators → public release of λ and the final per-identity β
      (common and mixed identities at 1, others at the policy's β* computed
      from the released non-sensitive frequency);
    + {b Randomized publication}: every provider locally flips its negative
      bits at rate β_j.

    The result carries both the functional output (the published index,
    exactly distribution-equal to the centralized {!Eppi.Construct.run}) and
    the performance metrics the Fig. 6 experiments read: simulated
    start-to-end time, message/byte counts, and the MPC circuit size. *)

open Eppi_prelude

type metrics = {
  secsumshare_time : float;
  mpc_time : float;
  publication_time : float;
  total_time : float;  (** Start-to-end simulated seconds. *)
  messages : int;
  bytes : int;
  circuit_stats : Eppi_circuit.Circuit.stats;
  mpc_comm : Eppi_mpc.Gmw.comm_stats;
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

val modulus_for : int -> Modarith.modulus
(** Smallest prime above [m + 1]: large enough that no membership sum wraps
    and the "never common" threshold m+1 stays representable. *)

val run :
  ?transport:Countbelow.transport ->
  ?pool:Pool.t ->
  ?c:int ->
  ?mixing:Eppi.Mixing.mode ->
  Rng.t ->
  membership:Bitmatrix.t ->
  epsilons:float array ->
  policy:Eppi.Policy.t ->
  result
(** [c] defaults to 3 (the paper's configuration).  The matrix is
    owner-major.

    [transport] and [pool] select how CountBelow runs (see
    {!Countbelow.run}); every phase draws from its own {!Rng.split} child
    stream, so for a fixed seed the construction output — [common],
    [betas], the published [index] — is bit-identical across transports
    and pool sizes.
    @raise Invalid_argument on dimension mismatches, [c < 2] or [m < c]. *)

(** {1 Fault-tolerant construction}

    {!run} assumes the fault-free network of the paper's experiments;
    {!run_ft} runs the same construction under
    {!Eppi_simnet.Simnet.fault_plan}s.  A stage given a plan turns on its
    reliability layer and failure detector (see {!Link}); when the detector
    declares providers dead, the whole β phase is re-run over the surviving
    provider set (thresholds, modulus and σ all recomputed for
    m' = m - |excluded|), so every surviving owner's published row still
    satisfies its ε false-positive guarantee — over the survivors.  Without
    plans, {!run_ft} is {!run} with its default transport.
    See docs/ROBUSTNESS.md. *)

(** What happened, accumulated across retry attempts. *)
type fault_report = {
  excluded : int list;  (** Original provider ids declared dead. *)
  survivors : int list;
      (** Original ids of the providers in the final run, in order: column k
          of the result's index belongs to provider [List.nth survivors k]. *)
  attempts : int;  (** β-phase attempts, counting the successful one. *)
  sss_retransmissions : int;
  mpc_retransmissions : int;
  duplicates : int;  (** Duplicate deliveries suppressed across both stages. *)
  retried_rounds : int;  (** MPC rounds that needed at least one retransmission. *)
}

type outcome =
  | Complete of result * fault_report
      (** No provider was excluded (loss, duplication and stragglers may
          still have been survived — see the report's counters).  The index
          spans all m providers. *)
  | Degraded of result * fault_report
      (** Some providers were excluded; the index spans the survivors'
          columns only, and β/ε guarantees hold over the survivor set. *)
  | Failed of string * fault_report
      (** The construction could not complete: attempts exhausted, fewer
          than c survivors, or a stall with no identifiable culprit. *)

val run_ft :
  ?sss_plan:Eppi_simnet.Simnet.fault_plan ->
  ?mpc_plan:Eppi_simnet.Simnet.fault_plan ->
  ?pool:Pool.t ->
  ?c:int ->
  ?mixing:Eppi.Mixing.mode ->
  Rng.t ->
  membership:Bitmatrix.t ->
  epsilons:float array ->
  policy:Eppi.Policy.t ->
  outcome
(** Both fault plans are expressed in {e original provider id} space:
    [sss_plan] drives the m-provider ring net, [mpc_plan] the c-coordinator
    MPC net (coordinator k is the k-th surviving provider; plan entries for
    other providers are ignored).  On each retry the plans are re-projected
    onto the survivor set, so a crashed provider's faults disappear with it.
    When [mpc_plan] is omitted the CountBelow stage opens its layers in
    process over [pool]; with it, over the simulated network.  Every attempt
    draws its four phase streams from the rng in turn, the first exactly as
    {!run} does, so a run that completes without excluding anyone publishes
    {!run}'s index bit for bit, and the outcome is a pure function of (rng
    seed, fault plans, inputs).  At most 3 attempts are made.
    @raise Invalid_argument on dimension mismatches or [c < 2]. *)
