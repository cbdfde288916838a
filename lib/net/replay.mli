(** Trace-driven replay over the real socket path.

    Loads a request log ({!Eppi_serve.Workload.of_csv_log} /
    [of_jsonl_log] formats) and drives it through any pipelined transport
    as windows of [Query] frames — {!Client.pipeline} on one connection,
    [Eppi_cluster.Client.pipeline] over a replica set (the CLI's replay
    mode, whatever the set's size).  The [bench -- net] target and the
    CLI share it. *)

type summary = {
  requests : int;
  served : int;  (** Replies carrying a provider list. *)
  unknown : int;
  shed : int;  (** Both shed classes summed. *)
  providers_listed : int;  (** Total response volume. *)
  first_generation : int;  (** Generation of the first reply. *)
  last_generation : int;  (** Generation of the last reply. *)
  wall_seconds : float;
}

val load : string -> int array
(** Read a request-log file; a first non-blank character of [{] selects
    the JSONL parser, anything else the CSV parser.
    @raise Sys_error on an unreadable path, [Failure] on a malformed log. *)

val run : ?depth:int -> (Wire.request list -> Wire.response list) -> int array -> summary
(** [run pipeline workload] replays the workload as windows of [depth]
    queries (default 32), each window one [pipeline] call.  Conservation
    holds by construction: [served + unknown + shed = requests] — every
    request is answered.
    @raise Invalid_argument on a non-positive depth;
    @raise Client.Protocol_error on a reply that is not a query reply, and
    whatever [pipeline] raises. *)
