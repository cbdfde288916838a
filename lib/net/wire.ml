(* Frame layout:
     byte 0        magic 0xE5
     byte 1        version (1)
     byte 2        tag
     bytes 3..6    payload length, 32-bit big-endian
     bytes 7..     payload
   Request tags sit in 0x01..0x0F, response tags in 0x11..0x1F, so the two
   directions can never be confused by a misrouted frame. *)

type request =
  | Query of { owner : int }
  | Audit of { provider : int }
  | Stats
  | Ping
  | Shutdown
  | Republish_binary of { data : string }
  | Query_fuzzy of {
      probe : Eppi_fuzzy.Probe.t;
      k : int;
    }
      (* The probe carries only keyed blocking hashes, filter geometry and
         Bloom-encoded filters — never plaintext demographics.  The
         linkage seed itself stays off the wire: a probe keyed with the
         wrong seed scores as noise and resolves nothing. *)
  | Traced of {
      trace_id : int;
      request : request;
    }
      (* Trace-context envelope: any other request wrapped with the
         client's trace id, so client and daemon spans join in one
         exported trace.  Additive within version 1 — a peer that
         predates it rejects the tag as [Unknown_tag], so clients only
         wrap when the operator has turned tracing on.  Never nests. *)

type response =
  | Reply of { generation : int; reply : Eppi_serve.Serve.reply }
  | Audit_reply of { generation : int; owners : int list option }
  | Stats_json of string
  | Republished of { generation : int }
  | Pong
  | Shutting_down
  | Server_error of string
  | Fuzzy_reply of {
      generation : int;
      result : Eppi_serve.Serve.fuzzy_reply;
    }

type frame =
  | Request of request
  | Response of response

let magic = 0xE5
let version = 1
let header_bytes = 7
let default_max_payload = 1 lsl 26

let tag_query = 0x01
let tag_audit = 0x03
let tag_stats = 0x04
let tag_ping = 0x06
let tag_shutdown = 0x07
let tag_republish_binary = 0x08
let tag_query_fuzzy = 0x09
let tag_traced = 0x0A
let tag_reply = 0x11
let tag_audit_reply = 0x13
let tag_stats_json = 0x14
let tag_republished = 0x15
let tag_pong = 0x16
let tag_shutting_down = 0x17
let tag_server_error = 0x18
let tag_fuzzy_reply = 0x19

(* Retired tags decode as [Unknown_tag] and are never reused: 0x02 and
   0x12 carried the Batch request and its reply (pipelined Query frames
   do that job), 0x05 the CSV republish, 0x0B/0x1A the Telemetry request
   and reply and 0x0C/0x1B the Cluster_status ones (the Stats document
   carries both). *)
let retired tag = tag = 0x02 || tag = 0x05 || tag = 0x12
let known_request_tag tag = tag >= tag_query && tag <= tag_traced && not (retired tag)

(* Probe limits: sane ceilings well above anything the CLI or bench
   generates, well below anything that could balloon a decode. *)
let max_fuzzy_k = 100_000
let max_probe_keys = 64
let max_probe_bits = 1 lsl 20
let max_probe_hashes = 1024

type error =
  | Bad_magic of int
  | Bad_version of int
  | Unknown_tag of int
  | Oversized of {
      length : int;
      limit : int;
    }
  | Corrupt of string

let error_to_string = function
  | Bad_magic b -> Printf.sprintf "bad magic byte 0x%02X (expected 0x%02X)" b magic
  | Bad_version v -> Printf.sprintf "unknown protocol version %d (speak %d)" v version
  | Unknown_tag t -> Printf.sprintf "unknown frame tag 0x%02X" t
  | Oversized { length; limit } ->
      Printf.sprintf "payload of %d bytes exceeds the %d-byte bound" length limit
  | Corrupt msg -> Printf.sprintf "corrupt payload: %s" msg

(* ---- varints: zigzag LEB128 over OCaml's 63-bit ints ---- *)

(* Zigzag maps the int's bit pattern so small magnitudes of either sign
   encode short; [lsr] below is logical, so the loop terminates after at
   most 9 bytes (ceil 63/7) for any input. *)
let put_varint b n =
  let u = ref ((n lsl 1) lxor (n asr 62)) in
  let continue = ref true in
  while !continue do
    let byte = !u land 0x7F in
    u := !u lsr 7;
    if !u = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

exception Corrupt_payload of string

(* A read cursor over one payload string. *)
type cursor = {
  payload : string;
  mutable pos : int;
}

let get_varint c =
  let u = ref 0 and shift = ref 0 and value = ref None in
  while !value = None do
    if c.pos >= String.length c.payload then raise (Corrupt_payload "truncated varint");
    if !shift > 56 then raise (Corrupt_payload "varint longer than 9 bytes");
    let byte = Char.code c.payload.[c.pos] in
    c.pos <- c.pos + 1;
    u := !u lor ((byte land 0x7F) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then value := Some ((!u lsr 1) lxor (- (!u land 1)))
  done;
  Option.get !value

let get_count c ~what ~limit =
  let n = get_varint c in
  if n < 0 || n > limit then raise (Corrupt_payload (Printf.sprintf "%s count %d" what n));
  n

(* ---- payload encoders ---- *)

let put_int_list b ids =
  put_varint b (List.length ids);
  List.iter (put_varint b) ids

(* A filter travels as its set-bit indexes, ascending: Bloom filters on
   serving-grade parameters are sparse (a short field sets at most
   hashes * bigrams bits of 256+), so index varints beat raw bitmap bytes,
   and ascending order gives the decoder a strictness check for free. *)
let put_bitvec b bv =
  let indexes = Eppi_prelude.Bitvec.to_index_list bv in
  put_varint b (List.length indexes);
  List.iter (put_varint b) indexes

let put_probe b (probe : Eppi_fuzzy.Probe.t) =
  put_varint b (Array.length probe.keys);
  Array.iter (put_varint b) probe.keys;
  put_varint b probe.bits;
  put_varint b probe.hashes;
  put_bitvec b probe.first;
  put_bitvec b probe.last;
  put_bitvec b probe.dob;
  put_bitvec b probe.zip

let put_reply b (reply : Eppi_serve.Serve.reply) =
  match reply with
  | Providers providers ->
      Buffer.add_char b '\x00';
      put_int_list b providers
  | Unknown_owner -> Buffer.add_char b '\x01'
  | Shed_rate_limit -> Buffer.add_char b '\x02'
  | Shed_queue_full -> Buffer.add_char b '\x03'

let request_tag = function
  | Query _ -> tag_query
  | Audit _ -> tag_audit
  | Stats -> tag_stats
  | Ping -> tag_ping
  | Shutdown -> tag_shutdown
  | Republish_binary _ -> tag_republish_binary
  | Query_fuzzy _ -> tag_query_fuzzy
  | Traced _ -> tag_traced

let rec payload_of_request b = function
  | Query { owner } -> put_varint b owner
  | Audit { provider } -> put_varint b provider
  | Stats | Ping | Shutdown -> ()
  | Republish_binary { data } -> Buffer.add_string b data
  | Query_fuzzy { probe; k } ->
      put_varint b k;
      put_probe b probe
  | Traced { trace_id; request } ->
      (match request with
      | Traced _ -> invalid_arg "Wire: Traced frames do not nest"
      | _ -> ());
      if trace_id < 0 then invalid_arg "Wire: trace id must be non-negative";
      put_varint b trace_id;
      Buffer.add_char b (Char.chr (request_tag request));
      payload_of_request b request

let payload_of_response b = function
  | Reply { generation; reply } ->
      put_varint b generation;
      put_reply b reply;
      tag_reply
  | Audit_reply { generation; owners } ->
      put_varint b generation;
      (match owners with
      | None -> Buffer.add_char b '\x00'
      | Some ids ->
          Buffer.add_char b '\x01';
          put_int_list b ids);
      tag_audit_reply
  | Stats_json json ->
      Buffer.add_string b json;
      tag_stats_json
  | Republished { generation } ->
      put_varint b generation;
      tag_republished
  | Pong -> tag_pong
  | Shutting_down -> tag_shutting_down
  | Server_error message ->
      Buffer.add_string b message;
      tag_server_error
  | Fuzzy_reply { generation; result } ->
      put_varint b generation;
      (match result with
      | Candidates candidates ->
          Buffer.add_char b '\x00';
          put_varint b (List.length candidates);
          List.iter
            (fun (cand : Eppi_serve.Serve.candidate) ->
              put_varint b cand.owner;
              (* Scores are quantized to 1e-4 at the resolver, so basis
                 points round-trip them bit-exactly. *)
              put_varint b (int_of_float (Float.round (cand.score *. 10000.)));
              put_int_list b cand.providers)
            candidates
      | No_resolver -> Buffer.add_char b '\x01'
      | Probe_mismatch -> Buffer.add_char b '\x02'
      | Fuzzy_shed -> Buffer.add_char b '\x03');
      tag_fuzzy_reply

let add_frame b payload_of value =
  let body = Buffer.create 64 in
  let tag = payload_of body value in
  let len = Buffer.length body in
  Buffer.add_char b (Char.chr magic);
  Buffer.add_char b (Char.chr version);
  Buffer.add_char b (Char.chr tag);
  Buffer.add_char b (Char.chr ((len lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((len lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((len lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (len land 0xFF));
  Buffer.add_buffer b body

let encode_request b request =
  add_frame b
    (fun body request ->
      payload_of_request body request;
      request_tag request)
    request

let encode_response b response = add_frame b payload_of_response response

let frame_to_string = function
  | Request request ->
      let b = Buffer.create 64 in
      encode_request b request;
      Buffer.contents b
  | Response response ->
      let b = Buffer.create 64 in
      encode_response b response;
      Buffer.contents b

(* ---- payload decoders ---- *)

let get_int_list c ~what =
  (* Each id costs at least one byte, so the count can never exceed the
     bytes that remain — reject early instead of allocating on a lie. *)
  let count = get_count c ~what ~limit:(String.length c.payload - c.pos) in
  List.init count (fun _ -> get_varint c)

let get_reply c : Eppi_serve.Serve.reply =
  if c.pos >= String.length c.payload then raise (Corrupt_payload "truncated reply");
  let kind = Char.code c.payload.[c.pos] in
  c.pos <- c.pos + 1;
  match kind with
  | 0 -> Providers (get_int_list c ~what:"provider")
  | 1 -> Unknown_owner
  | 2 -> Shed_rate_limit
  | 3 -> Shed_queue_full
  | k -> raise (Corrupt_payload (Printf.sprintf "unknown reply kind %d" k))

let get_bitvec c ~bits =
  (* Each index costs at least a byte; no filter sets more than [bits]. *)
  let limit = min bits (String.length c.payload - c.pos) in
  let count = get_count c ~what:"filter bit" ~limit in
  let prev = ref (-1) in
  let indexes =
    List.init count (fun _ ->
        let i = get_varint c in
        if i <= !prev || i >= bits then
          raise (Corrupt_payload (Printf.sprintf "filter index %d out of order or range" i));
        prev := i;
        i)
  in
  Eppi_prelude.Bitvec.of_index_list bits indexes

let get_probe c : Eppi_fuzzy.Probe.t =
  let key_count = get_count c ~what:"blocking key" ~limit:max_probe_keys in
  let keys = Array.init key_count (fun _ -> get_varint c) in
  let bits = get_varint c in
  if bits < 1 || bits > max_probe_bits then
    raise (Corrupt_payload (Printf.sprintf "filter bits %d" bits));
  let hashes = get_varint c in
  if hashes < 1 || hashes > max_probe_hashes then
    raise (Corrupt_payload (Printf.sprintf "filter hashes %d" hashes));
  let first = get_bitvec c ~bits in
  let last = get_bitvec c ~bits in
  let dob = get_bitvec c ~bits in
  let zip = get_bitvec c ~bits in
  { keys; bits; hashes; first; last; dob; zip }

(* The payload from the cursor on: the payload itself when that is all of
   it, so a republish payload is not copied again. *)
let rest c =
  let s =
    if c.pos = 0 then c.payload else String.sub c.payload c.pos (String.length c.payload - c.pos)
  in
  c.pos <- String.length c.payload;
  s

let rec parse_payload tag payload =
  let c = { payload; pos = 0 } in
  let frame =
    if tag = tag_query then Request (Query { owner = get_varint c })
    else if tag = tag_audit then Request (Audit { provider = get_varint c })
    else if tag = tag_stats then Request Stats
    else if tag = tag_ping then Request Ping
    else if tag = tag_shutdown then Request Shutdown
    else if tag = tag_republish_binary then Request (Republish_binary { data = rest c })
    else if tag = tag_query_fuzzy then begin
      let k = get_varint c in
      if k < 1 || k > max_fuzzy_k then
        raise (Corrupt_payload (Printf.sprintf "fuzzy k %d" k));
      Request (Query_fuzzy { probe = get_probe c; k })
    end
    else if tag = tag_traced then begin
      let trace_id = get_varint c in
      if trace_id < 0 then raise (Corrupt_payload (Printf.sprintf "trace id %d" trace_id));
      if c.pos >= String.length payload then raise (Corrupt_payload "truncated traced frame");
      let inner_tag = Char.code payload.[c.pos] in
      c.pos <- c.pos + 1;
      if inner_tag = tag_traced then raise (Corrupt_payload "nested traced frame");
      if not (known_request_tag inner_tag) then
        raise (Corrupt_payload (Printf.sprintf "traced frame wraps tag 0x%02X" inner_tag));
      match parse_payload inner_tag (rest c) with
      | Request request -> Request (Traced { trace_id; request })
      | Response _ -> assert false (* the inner tag range admits requests only *)
    end
    else if tag = tag_reply then begin
      let generation = get_varint c in
      Response (Reply { generation; reply = get_reply c })
    end
    else if tag = tag_audit_reply then begin
      let generation = get_varint c in
      if c.pos >= String.length payload then raise (Corrupt_payload "truncated option");
      let present = Char.code payload.[c.pos] in
      c.pos <- c.pos + 1;
      match present with
      | 0 -> Response (Audit_reply { generation; owners = None })
      | 1 -> Response (Audit_reply { generation; owners = Some (get_int_list c ~what:"owner") })
      | k -> raise (Corrupt_payload (Printf.sprintf "unknown option tag %d" k))
    end
    else if tag = tag_stats_json then Response (Stats_json (rest c))
    else if tag = tag_republished then Response (Republished { generation = get_varint c })
    else if tag = tag_pong then Response Pong
    else if tag = tag_shutting_down then Response Shutting_down
    else if tag = tag_server_error then Response (Server_error (rest c))
    else if tag = tag_fuzzy_reply then begin
      let generation = get_varint c in
      if c.pos >= String.length payload then raise (Corrupt_payload "truncated fuzzy reply");
      let kind = Char.code payload.[c.pos] in
      c.pos <- c.pos + 1;
      let result : Eppi_serve.Serve.fuzzy_reply =
        match kind with
        | 0 ->
            (* A candidate costs at least three bytes (owner, score,
               provider count). *)
            let count =
              get_count c ~what:"candidate" ~limit:((String.length payload - c.pos) / 3 + 1)
            in
            Candidates
              (List.init count (fun _ ->
                   let owner = get_varint c in
                   let bp = get_varint c in
                   if bp < 0 || bp > 10_000 then
                     raise (Corrupt_payload (Printf.sprintf "score %d bp" bp));
                   let providers = get_int_list c ~what:"provider" in
                   ({ owner; score = float_of_int bp /. 10000.0; providers }
                     : Eppi_serve.Serve.candidate)))
        | 1 -> No_resolver
        | 2 -> Probe_mismatch
        | 3 -> Fuzzy_shed
        | k -> raise (Corrupt_payload (Printf.sprintf "unknown fuzzy reply kind %d" k))
      in
      Response (Fuzzy_reply { generation; result })
    end
    else assert false (* the decoder rejects unknown tags at the header *)
  in
  if c.pos <> String.length payload then
    raise (Corrupt_payload (Printf.sprintf "%d trailing bytes" (String.length payload - c.pos)));
  frame

let known_tag tag =
  known_request_tag tag
  || (tag >= tag_reply && tag <= tag_fuzzy_reply && not (retired tag))

(* ---- the incremental decoder ---- *)

module Decoder = struct
  (* Bytes fed but not yet consumed wait in [buf]: whole frames and the
     start of the next.  A frame too large for [buf] leaves it once its
     header reaches the front: its payload is received into a buffer of
     its own, which [next] hands out as the frame's string when it is
     full, with no further copy. *)
  type large = { tag : int; length : int; mutable payload : Bytes.t; mutable fill : int }

  type t = {
    mutable buf : Bytes.t;
    mutable off : int;  (* consumed prefix *)
    mutable len : int;  (* valid bytes (off <= len) *)
    max_payload : int;
    mutable poison : error option;
    mutable large : large option;  (* a frame too large for [buf], received so far *)
  }

  let create ?(max_payload = default_max_payload) () =
    if max_payload <= 0 then invalid_arg "Wire.Decoder.create: non-positive payload bound";
    { buf = Bytes.create 4096; off = 0; len = 0; max_payload; poison = None; large = None }

  let buffered t =
    t.len - t.off + match t.large with Some l -> header_bytes + l.fill | None -> 0

  (* The smallest of [length], [length / 2], [length / 4], ... that holds
     both [need] bytes and 4 KB.  It is under twice the larger of the two,
     so a peer reserves about twice what it has sent, whatever its header
     announces; and a buffer grown through these sizes allocates at most
     twice [length] in all, ending at exactly [length]. *)
  let capacity ~length need =
    let c = ref length in
    while !c / 2 >= max need 4096 do
      c := !c / 2
    done;
    !c

  let feed t bytes ~off ~len =
    if off < 0 || len < 0 || off + len > Bytes.length bytes then
      invalid_arg "Wire.Decoder.feed: slice out of bounds";
    let taken =
      match t.large with
      | None -> 0
      | Some l ->
          let n = min len (l.length - l.fill) in
          if l.fill + n > Bytes.length l.payload then begin
            let grown = Bytes.create (capacity ~length:l.length (l.fill + n)) in
            Bytes.blit l.payload 0 grown 0 l.fill;
            l.payload <- grown
          end;
          Bytes.blit bytes off l.payload l.fill n;
          l.fill <- l.fill + n;
          n
    in
    let off = off + taken and len = len - taken in
    (* Reclaim the consumed prefix, then grow if the tail still lacks room. *)
    if t.off > 0 && t.len + len > Bytes.length t.buf then begin
      Bytes.blit t.buf t.off t.buf 0 (t.len - t.off);
      t.len <- t.len - t.off;
      t.off <- 0
    end;
    if t.len + len > Bytes.length t.buf then begin
      let capacity = ref (Bytes.length t.buf) in
      while t.len + len > !capacity do
        capacity := !capacity * 2
      done;
      let grown = Bytes.create !capacity in
      Bytes.blit t.buf 0 grown 0 t.len;
      t.buf <- grown
    end;
    Bytes.blit bytes off t.buf t.len len;
    t.len <- t.len + len

  let feed_string t s = feed t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

  let byte t i = Char.code (Bytes.get t.buf (t.off + i))

  let fail t e =
    t.poison <- Some e;
    Error e

  let parse t tag payload =
    match parse_payload tag payload with
    | frame -> Ok (Some frame)
    | exception Corrupt_payload msg -> fail t (Corrupt msg)

  let next t =
    match (t.poison, t.large) with
    | Some e, _ -> Error e
    | None, Some l ->
        if l.fill < l.length then Ok None
        else begin
          (* Full, so exactly [length] bytes long; nothing writes it again. *)
          t.large <- None;
          parse t l.tag (Bytes.unsafe_to_string l.payload)
        end
    | None, None ->
        let available = t.len - t.off in
        (* Validate the header prefix byte-by-byte so garbage is rejected
           as soon as it arrives, not once 7 bytes accumulate. *)
        if available >= 1 && byte t 0 <> magic then fail t (Bad_magic (byte t 0))
        else if available >= 2 && byte t 1 <> version then fail t (Bad_version (byte t 1))
        else if available >= 3 && not (known_tag (byte t 2)) then fail t (Unknown_tag (byte t 2))
        else if available < header_bytes then Ok None
        else begin
          let length = (byte t 3 lsl 24) lor (byte t 4 lsl 16) lor (byte t 5 lsl 8) lor byte t 6 in
          if length > t.max_payload then fail t (Oversized { length; limit = t.max_payload })
          else if header_bytes + length > Bytes.length t.buf then begin
            (* Every byte buffered behind the header is this frame's, and
               some of it has yet to arrive. *)
            let fill = available - header_bytes in
            let payload = Bytes.create (capacity ~length fill) in
            Bytes.blit t.buf (t.off + header_bytes) payload 0 fill;
            t.large <- Some { tag = byte t 2; length; payload; fill };
            t.off <- 0;
            t.len <- 0;
            Ok None
          end
          else if available < header_bytes + length then Ok None
          else begin
            let payload = Bytes.sub_string t.buf (t.off + header_bytes) length in
            let tag = byte t 2 in
            t.off <- t.off + header_bytes + length;
            if t.off = t.len then begin
              t.off <- 0;
              t.len <- 0
            end;
            parse t tag payload
          end
        end
end
