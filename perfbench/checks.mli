(** The benchmark's correctness oracle and conservation identities.  Pure:
    nothing here talks to a daemon, so the tests can feed each check a
    deliberately wrong input and watch it fire. *)

(** {1 Expected answers} *)

module Expect : sig
  type t
  (** One published index in a form that checks a reply in time linear in
      the reply's length. *)

  val of_index : Eppi.Index.t -> t
  val owners : t -> int

  val row_ok : t -> owner:int -> int list -> bool
  (** [row_ok e ~owner ps] holds iff [ps] is exactly
      [Eppi.Index.query index ~owner]: strictly ascending, every provider
      published for [owner], and as many as the index publishes. *)
end

module Generations : sig
  type t
  (** Which index each generation names.  Safe to share between one
      writer domain and reader domains: readers see an immutable map. *)

  val create : unit -> t
  val add : t -> int -> Expect.t -> unit
  val find : t -> int -> Expect.t option
end

(** {1 Oracle} *)

type verdict =
  | Correct
  | Failed of string
      (** No correct answer: shed, a fuzzy reject, or [Unknown_owner] for
          an owner the index has.  Counted in [failed]. *)
  | Wrong of string
      (** An answer that is wrong for the generation it names.  Fails the
          run. *)

val check_exact :
  Generations.t -> owner:int -> generation:int -> Eppi_serve.Serve.reply -> verdict
(** Owners at or beyond the index's owner count must come back
    [Unknown_owner]; every other owner must get the generation's row. *)

val check_fuzzy :
  Generations.t -> generation:int -> truth:int -> Eppi_serve.Serve.fuzzy_reply -> verdict * bool
(** Every candidate's row is checked like an exact reply; the flag says
    whether [truth] is among the candidates (a recall hit). *)

val codec_roundtrip_ok : Eppi.Index.t -> bool
(** [Index_codec.decode (encode i)] is [i]. *)

(** {1 Conservation} *)

type identity = {
  name : string;
  residual : float;  (** Measured minus predicted, in the identity's own unit. *)
  tolerance : float;  (** Largest [|residual|] accepted; 0 for exact identities. *)
}

val holds : identity -> bool

val to_line : identity -> string
(** ["conservation <name> residual=<r> tolerance=<t> ok|FAILED"]. *)

type replica_counts = {
  queries : int;
  served : int;
  unknown : int;
  shed : int;  (** Rate- and queue-shed exact queries. *)
  fuzzy_queries : int;
  fuzzy_answered : int;  (** Resolved plus empty. *)
  fuzzy_rejected : int;
  fuzzy_shed : int;
}

val replica_counts_of_stats : Eppi_prelude.Json.t -> replica_counts
(** Read a daemon's [Stats] reply.  @raise Failure on a missing field. *)

val replica_identities : string -> replica_counts -> identity list
(** Per replica: [served + unknown + shed = queries], and the same for
    fuzzy requests. *)

val cluster_identities :
  exact_sent:int -> fuzzy_sent:int -> failovers:int -> replica_counts list -> identity list
(** Summed over replicas, the queries received equal the queries sent.
    Only asserted when no failover re-issued a window ([failovers = 0]):
    a re-issued window reaches a second replica. *)

val stage_identity : string -> stage_sum_ns:int -> total_ns:int -> identity
(** The daemon's six request stages sum to its end-to-end total exactly. *)

val layer_identity : string -> wall:float -> parts:float list -> tolerance:float -> identity
(** Layer times add up to a wall time; the residual is relative to
    [wall]. *)
