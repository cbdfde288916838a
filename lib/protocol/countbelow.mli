(** The CountBelow stage: generic MPC among the c coordinators
    (paper Algorithm 2 and Section IV-B.2).

    The coordinators feed their SecSumShare output vectors into the compiled
    {!Eppi_sfdl.Programs.count_below} circuit, which reconstructs each
    identity's frequency {i inside the circuit}, compares it against a
    public per-identity threshold, and reveals only: the common bit, the
    frequency of non-common identities (deemed non-sensitive by the paper's
    threat model — high frequency is what makes an identity attackable), and
    the count of common identities for the λ computation.

    The integer thresholds are derived from the β policy so that
    "frequency >= threshold" is {i exactly} "β* >= 1": the protocol and the
    centralized reference classify identities identically (tested). *)

open Eppi_prelude

type result = {
  common : bool array;
  frequencies : int option array;  (** [Some f] for non-common identities. *)
  n_common : int;
  circuit_stats : Eppi_circuit.Circuit.stats;
  comm : Eppi_mpc.Gmw.comm_stats;
  time : float;
      (** Simulated MPC execution time: the cost model's LAN estimate by
          default, or the emergent completion time when running over the
          simulated network (see [transport]). *)
  link : Link.report option;
      (** The reliability accounting of the simulated network run; [None]
          when the in-process engine ran. *)
}

(** How the MPC stage runs: [`Cost_model] executes the in-process engine
    and prices it with {!Eppi_mpc.Cost} on {!Eppi_mpc.Cost.lan}; [`Simnet]
    runs the protocol round-by-round over the simulated network
    ({!Mpcnet}, {!Eppi_simnet.Simnet.default_config}) so the time emerges
    from message passing. *)
type transport = [ `Cost_model | `Simnet ]

(** How the count-below computation is organized:

    - [`Monolithic] — the paper-literal formulation: one circuit over all n
      identities, walked sequentially.  Always used over the simulated
      network (it replays a single protocol instance).
    - [`Sharded] — the multicore pipeline (default under [`Cost_model]):
      one comparator circuit per identity, memo-compiled per distinct
      [(c, q, threshold)], evaluated on the domain pool with a per-shard
      {!Rng.split}.  Classification outputs are bit-identical to
      [`Monolithic] (GMW outputs are deterministic given the inputs); the
      reported [circuit_stats]/[comm] sum the shards, with the
      multiplicative depth taken as the max — shards batch into common
      broadcast rounds. *)
type strategy = [ `Monolithic | `Sharded ]

val integer_threshold : policy:Eppi.Policy.t -> epsilon:float -> m:int -> int
(** Smallest frequency count at which the policy's raw β reaches 1; [m + 1]
    when no frequency is common (ε = 0). *)

val run :
  ?transport:transport ->
  ?pool:Pool.t ->
  ?strategy:strategy ->
  ?plan:Eppi_simnet.Simnet.fault_plan ->
  Rng.t ->
  shares:int array array ->
  q:Modarith.modulus ->
  thresholds:int array ->
  result
(** [shares] is the c x n coordinator matrix from {!Secsumshare};
    [thresholds.(j)] is the count above which identity j is common (values
    above [q - 1] are clamped to [q - 1], which is unreachable by any sum of
    memberships since q > m).

    [pool] (default {!Pool.sequential}) supplies the domains the sharded
    strategy evaluates on; it is ignored by monolithic runs.  [strategy]
    defaults to [`Sharded] under [`Cost_model] and is forced to
    [`Monolithic] over the simulated network.  A fault [plan] runs the
    monolithic circuit over the simulated network under that plan, with
    {!Mpcnet}'s reliability layer on, whatever [transport] says.  Outputs
    ([common], [frequencies], [n_common]) are identical for every
    transport, strategy and pool size, and for every plan the run
    completes under.
    @raise Invalid_argument on shape violations or zero identities.
    @raise Link.Stalled if the plan stalled the MPC; the report's
    [suspects] are the blamed coordinators. *)
