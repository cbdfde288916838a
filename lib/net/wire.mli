(** The locator daemon's binary wire protocol.

    Every frame is a fixed 7-byte header — magic byte, protocol version,
    frame tag, 32-bit big-endian payload length — followed by the payload.
    Integers inside payloads are zigzag LEB128 varints, so small ids cost
    one byte; posting lists are a varint count followed by the ids.

    The protocol is strictly request/response: the server sends exactly one
    response frame per request frame, in request order, which is what lets
    {!Client} pipeline N requests over one socket and match replies by
    position.  Request and response tags live in disjoint ranges, so one
    {!Decoder} serves both ends of the connection and a frame arriving on
    the wrong side is a typed protocol error, not a misparse.

    Decoding is incremental ({!Decoder}): feed whatever bytes the socket
    produced, get back complete frames; partial headers and split payloads
    reassemble across feeds.  A frame too large for the decoder's buffer
    is received into a buffer of its own, handed out as the frame's
    payload without another copy.  That buffer grows with the bytes that
    arrive, through the sizes length / 2{^k}, ..., length / 2, length for
    the length its header announces, so it never holds much more than
    twice what the peer has sent.  Every malformed input is a typed {!error} —
    wrong magic, unknown version or tag, a payload longer than the
    configured bound, or a payload whose body does not parse.  A decoder
    that has reported an error is poisoned and keeps reporting it: the only
    safe continuation after a framing error is closing the connection. *)

type request =
  | Query of { owner : int }
      (** QueryPPI for one owner id.  Many lookups travel as pipelined
          Query frames ({!Client.pipeline}); tags 0x02 and 0x12, the
          retired Batch request and reply, decode as {!Unknown_tag}. *)
  | Audit of { provider : int }  (** Provider-side audit (inverse postings). *)
  | Stats
      (** The daemon's one status request: its reply is one JSON document
          with the engine's counters, the request-stage telemetry and the
          replica state ({!Server.stats_json}).  Tags 0x0B and 0x0C, the
          retired Telemetry and Cluster_status requests, and their replies
          0x1A and 0x1B decode as {!Unknown_tag}. *)
  | Ping  (** Liveness probe. *)
  | Shutdown  (** Graceful stop: the server flushes replies and exits. *)
  | Republish_binary of { data : string }
      (** Hot-swap: install the index serialized with {!Index_codec} —
          the compact bit-packed payload ({!Index_codec.encode}), ~8x
          smaller than {!Eppi.Index.to_csv} on typical ε-PPI indexes.
          The payload carries its own codec version byte.  Tag 0x05, the
          retired CSV republish, decodes as {!Unknown_tag}. *)
  | Query_fuzzy of { probe : Eppi_fuzzy.Probe.t; k : int }
      (** Approximate-identity lookup: resolve the probe against the
          published resolver, return at most [k] candidates with their
          ε-PPI rows.  The payload carries {e only} keyed blocking hashes,
          the filter geometry, and Bloom-encoded field filters (set-bit
          indexes, ascending) — plaintext demographics never cross the
          wire, and neither does the linkage seed: a probe keyed with the
          wrong seed scores as noise. *)
  | Traced of { trace_id : int; request : request }
      (** Trace-context envelope: any other request wrapped with the
          client's trace id (non-negative varint), so the daemon can tag
          its server-side spans with the same id and the two processes'
          tracks join in one exported Chrome/Perfetto trace.  Additive
          within protocol version 1: a daemon that predates the tag
          rejects it as {!Unknown_tag}, so clients only wrap when tracing
          is enabled (see {!Client.connect}).  Envelopes
          never nest, and the inner frame must be a request. *)

type response =
  | Reply of { generation : int; reply : Eppi_serve.Serve.reply }
  | Audit_reply of { generation : int; owners : int list option }
      (** [None]: the provider id is out of range. *)
  | Stats_json of string
  | Republished of { generation : int }  (** The freshly installed generation. *)
  | Pong
  | Shutting_down
  | Server_error of string
      (** The request could not be served (e.g. a republish payload the
          codec rejects), or the frame could not be decoded. *)
  | Fuzzy_reply of { generation : int; result : Eppi_serve.Serve.fuzzy_reply }
      (** Candidate scores travel as basis-point varints (the resolver
          quantizes scores to 1e-4, so the encoding is lossless). *)

type frame =
  | Request of request
  | Response of response

val version : int
(** Protocol version carried in every header (currently 1). *)

val default_max_payload : int
(** Decoder payload bound: 64 MiB — room for the binary republish frame
    of a large index. *)

val request_tag : request -> int
(** The frame tag a request travels under — also how the daemon's
    telemetry and trace spans name request kinds. *)

val encode_request : Buffer.t -> request -> unit
val encode_response : Buffer.t -> response -> unit

val frame_to_string : frame -> string
(** One whole frame (header + payload) as a string. *)

type error =
  | Bad_magic of int  (** First byte of a frame was not the magic. *)
  | Bad_version of int  (** Unknown protocol version. *)
  | Unknown_tag of int  (** Version understood, frame tag not. *)
  | Oversized of { length : int; limit : int }
      (** Declared payload length exceeds the decoder's bound. *)
  | Corrupt of string
      (** Header fine, payload body malformed (truncated varint, bad
          count, trailing bytes, …). *)

val error_to_string : error -> string

module Decoder : sig
  type t

  val create : ?max_payload:int -> unit -> t
  (** @raise Invalid_argument on a non-positive payload bound. *)

  val feed : t -> Bytes.t -> off:int -> len:int -> unit
  (** Append [len] bytes of [buf] starting at [off] (as read from a
      socket).  @raise Invalid_argument on an out-of-bounds slice. *)

  val feed_string : t -> string -> unit

  val next : t -> (frame option, error) result
  (** [Ok (Some frame)]: one complete frame was consumed from the buffer
      (call again — a single feed may contain several frames).
      [Ok None]: the buffered bytes are a valid prefix; feed more.
      [Error e]: the stream is broken at the current position; the decoder
      is poisoned and every subsequent call returns the same error. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed as frames. *)
end
