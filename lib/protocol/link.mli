(** The reliability sublayer both protocol stages send their messages
    through: sequence numbers, acknowledgements, retransmission with
    exponential backoff, receiver-side duplicate suppression, and the
    evidence a timeout failure detector blames nodes on.

    It engages iff the stage was given a {!Eppi_simnet.Simnet.fault_plan}.
    Without one the network is perfect: every packet goes out once, nothing
    is acknowledged and no timer is armed, so the stage does exactly the
    bare protocol's traffic and timing.  Under a plan, loss, duplication and
    reordering are masked as long as every packet eventually gets through,
    and a destination still silent after [max_retries] resends is blamed.
    The layer draws no randomness, so a stage's outputs do not depend on
    whether it was on. *)

open Eppi_simnet

type timing = {
  rto : float;  (** Initial retransmission timeout, seconds. *)
  backoff : float;  (** Multiplier applied to the timeout after each resend. *)
  max_rto : float;  (** Cap on the backed-off timeout. *)
  max_retries : int;  (** Resends before the destination is blamed. *)
}

(** What the layer saw during one stage run.  Counters are zero and lists
    empty on a fault-free run. *)
type report = {
  suspects : int list;
      (** Nodes blamed with direct evidence (an exhausted resend budget, or
          a stage's deadline finding their contribution missing), sorted. *)
  stalled : int list;
      (** Live victims: nodes a stage found blocked by someone else's
          failure.  Never suspects on that evidence alone. *)
  retransmissions : int;  (** Data packets resent after a timeout. *)
  duplicates : int;  (** Received copies suppressed by sequence number. *)
  retried_rounds : int;  (** Distinct rounds in which some packet was resent. *)
  protocol_time : float;
      (** Sim time the stage finished.  Fault-free this is the net's
          completion time (no timers exist); under a plan it is the instant
          of {!finish}, or of the last fresh delivery if the stage never
          finished, so trailing retransmission and deadline timers do not
          count. *)
}

exception Stalled of report
(** Raised by a stage that could not complete under its fault plan. *)

type 'm packet
(** A stage payload on the wire, or an acknowledgement. *)

type 'm t

val create : Simnet.fault_plan option -> timing -> nodes:int -> 'm t
(** A fresh simulated net of [nodes] nodes under the plan, if any. *)

val net : 'm t -> 'm packet Simnet.t
val reliable : _ t -> bool
(** Whether a fault plan was given. *)

val on_receive : 'm t -> Simnet.node_id -> (src:Simnet.node_id -> 'm -> unit) -> unit
(** Install a node's handler.  It sees each payload once: acknowledgements
    and duplicate copies are consumed by the layer. *)

val send :
  'm t -> src:Simnet.node_id -> dst:Simnet.node_id -> size:int -> round:int -> 'm -> unit
(** Send a [size]-byte payload; under a plan, resend it until acknowledged
    or the budget runs out.  [round] only labels the packet for
    [retried_rounds]. *)

val broadcast : 'm t -> src:Simnet.node_id -> size:int -> round:int -> 'm -> unit
(** {!send} to every node except [src], in node order. *)

val blame : _ t -> Simnet.node_id -> unit
(** Record direct evidence against a node (a stage's deadline detector). *)

val finish : _ t -> unit
(** The stage is complete: stop resending and fix [protocol_time] now. *)

val finished : _ t -> bool

val report : _ t -> stalled:Simnet.node_id list -> report
(** The layer's accounting once the net has run; [stalled] is the stage's
    own list of live victims. *)
