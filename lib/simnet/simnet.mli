(** Deterministic discrete-event network simulator.

    Stands in for the paper's Emulab testbed and Netty transport: parties are
    nodes exchanging typed messages over links with a latency + bandwidth
    model, and each node owns a busy clock so local computation serializes
    with message handling.  The protocol experiments (Fig. 6) read their
    "execution time" from {!completion_time}: the instant the last node
    finishes its last event — the same start-to-end metric the paper uses.

    Determinism: event ties break by insertion order, and any randomness a
    protocol needs must come from its own seeded {!Eppi_prelude.Rng}.  Fault
    injection draws come from a dedicated stream seeded by
    {!fault_plan.fault_seed}, so the same plan perturbs the same messages no
    matter what the protocol itself draws. *)

type node_id = int

type 'msg t

type config = {
  latency : float;  (** Per-message propagation delay, seconds. *)
  bandwidth : float;  (** Bytes per second. *)
}

val default_config : config
(** LAN-like: 0.5 ms latency, 100 MB/s. *)

(** {1 Fault plans}

    A {!fault_plan} is a seeded, declarative description of everything that
    goes wrong during a run, and the only source of faults: a net created
    without one delivers every message exactly once, and draws nothing. *)

type link_fault = {
  drop : float;  (** Per-message loss probability on this link. *)
  duplicate : float;  (** Probability a message is delivered twice. *)
  reorder : float;
      (** Probability a message picks up extra delay in [0, jitter), letting
          later messages overtake it. *)
}

val perfect_link : link_fault
(** No loss, no duplication, no reordering. *)

type partition = {
  starts : float;  (** Partition begins (inclusive, sim time). *)
  stops : float;  (** Partition heals (exclusive). *)
  islands : node_id list list;
      (** Groups that can still talk among themselves.  Nodes listed in no
          island form one extra implicit island.  While the partition is
          active, any send crossing island boundaries is dropped. *)
}

type fault_plan = {
  fault_seed : int;  (** Seeds the dedicated fault rng. *)
  default_link : link_fault;  (** Applied to every link not in [links]. *)
  links : ((node_id * node_id) * link_fault) list;
      (** Per-directed-link overrides, keyed [(src, dst)]. *)
  crashes : (float * node_id) list;
      (** [(time, node)]: node fail-stops at [time].  From then on it
          receives nothing, its pending and future timers are cancelled, and
          {!work} charges it nothing.  Messages it sent before crashing are
          still delivered. *)
  partitions : partition list;
  slow : (node_id * float) list;
      (** Straggler multipliers: {!work} durations on the node are scaled by
          the factor (must be > 0). *)
  jitter : float;
      (** Max extra delay, seconds, added to reordered messages and
          duplicate copies. *)
}

val no_faults : fault_plan
(** Perfect links, no crashes, no partitions, no stragglers; [jitter] 2 ms. *)

val create : ?config:config -> ?plan:fault_plan -> nodes:int -> unit -> 'msg t
(** @raise Invalid_argument if the plan names a node outside
    [0 .. nodes-1], a negative crash time, or a slow factor <= 0. *)

val nodes : 'msg t -> int
val now : 'msg t -> float

val on_receive : 'msg t -> node_id -> ('msg t -> src:node_id -> 'msg -> unit) -> unit
(** Install the message handler of a node (replaces any previous one). *)

val send : 'msg t -> src:node_id -> dst:node_id -> size:int -> 'msg -> unit
(** Enqueue a message of [size] bytes; it is delivered at
    [now + latency + size/bandwidth], queued behind the destination's busy
    clock.  Self-sends are delivered with zero network delay. *)

val broadcast : 'msg t -> src:node_id -> size:int -> 'msg -> unit
(** Send to every node except [src]. *)

val at : 'msg t -> delay:float -> node_id -> ('msg t -> unit) -> unit
(** Schedule a local timer callback on a node.  The timer is silently
    cancelled if the node has crashed by the time it fires. *)

val work : 'msg t -> node_id -> float -> unit
(** Charge computation time to a node; subsequent events on that node are
    delayed accordingly.  Call from within a handler.  No-op on a crashed
    node; scaled by the node's straggler multiplier if the fault plan names
    one. *)

val crash : 'msg t -> node_id -> unit
(** Fail-stop the node now: it silently drops everything addressed to it,
    its pending timers are cancelled, and further {!work} is not charged. *)

val is_crashed : 'msg t -> node_id -> bool

val run : 'msg t -> unit
(** Process events until quiescence.
    @raise Failure if the event count exceeds a safety bound (runaway
    protocol). *)

(** Traffic and timing accounting. *)
type metrics = {
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  messages_duplicated : int;  (** Extra copies injected by the fault plan. *)
  bytes_sent : int;
  completion_time : float;  (** When the last node went idle. *)
}

val metrics : 'msg t -> metrics
val node_busy_time : 'msg t -> node_id -> float
(** Total computation time charged to the node via {!work}. *)
