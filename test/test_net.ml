(* Tests for the network front-end (lib/net): wire-codec round-trips for
   every frame type, typed decode errors on garbage, split-read
   reassembly, the address parser, and the live daemon — a select loop in
   a spawned domain answering pipelined queries concurrently with a
   hot-swap republish. *)

open Eppi_prelude
open Eppi_net
module Serve = Eppi_serve.Serve
module Workload = Eppi_serve.Workload
module Probe = Eppi_fuzzy.Probe
module Resolver = Eppi_fuzzy.Resolver
module Roster = Eppi_fuzzy.Roster
module Bloom = Eppi_linkage.Bloom
module Demographic = Eppi_linkage.Demographic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  if m = 0 then true else go 0

(* Same deterministic index shape as test_serve: row j holds 1 + (j mod 5)
   providers at deterministic positions. *)
let test_index ~n ~m =
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for k = 0 to j mod 5 do
      Bitmatrix.set matrix ~row:j ~col:((j + (k * 7)) mod m) true
    done
  done;
  Eppi.Index.of_matrix matrix

(* A second index over the same dimensions with different postings, so a
   hot swap visibly changes the answers. *)
let test_index_v2 ~n ~m =
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for k = 0 to (j + 2) mod 4 do
      Bitmatrix.set matrix ~row:j ~col:((j + 3 + (k * 5)) mod m) true
    done
  done;
  Eppi.Index.of_matrix matrix

(* ---------- Wire codec ---------- *)

(* Fuzzy-probe samples built with the real encoder, so the frames carry
   realistic sparse filters; the partial probe has empty fields and no
   blocking keys. *)
let sample_params = (Resolver.default_config ~seed:0x5EED).Resolver.params

let sample_probe =
  Probe.of_demographic sample_params
    { Demographic.first = "maria"; last = "garcia"; dob = (1961, 4, 18); zip = "60614"; gender = Female }

let partial_probe =
  Probe.of_demographic sample_params
    { Demographic.first = "jo"; last = ""; dob = (0, 0, 0); zip = ""; gender = Other }

let sample_frames =
  let open Wire in
  List.map
    (fun r -> Request r)
    [
      Query { owner = 0 };
      Query { owner = 1 };
      Query { owner = -5 };
      Query { owner = max_int };
      Query { owner = min_int };
      Audit { provider = 12 };
      Stats;
      Republish_binary { data = "" };
      Republish_binary { data = "\x01\x02\x03\xFF\x00binary payload" };
      Query_fuzzy { probe = sample_probe; k = 1 };
      Query_fuzzy { probe = partial_probe; k = 10_000 };
      Ping;
      Shutdown;
      Telemetry;
      Cluster_status;
      (* Trace envelopes: ids at both ends of the varint range, wrapping
         payload-free and payload-heavy inner requests alike. *)
      Traced { trace_id = 0; request = Query { owner = 42 } };
      Traced { trace_id = 0x7FFF_FFFF; request = Audit { provider = 300 } };
      Traced { trace_id = 1; request = Query_fuzzy { probe = sample_probe; k = 3 } };
      Traced { trace_id = 9; request = Telemetry };
      Traced { trace_id = 2; request = Cluster_status };
    ]
  @ List.map
      (fun r -> Response r)
      [
        Reply { generation = 1; reply = Serve.Providers [] };
        Reply { generation = 7; reply = Serve.Providers [ 0; 3; 9; 1024 ] };
        Reply { generation = 2; reply = Serve.Unknown_owner };
        Reply { generation = 3; reply = Serve.Shed_rate_limit };
        Reply { generation = 4; reply = Serve.Shed_queue_full };
        Audit_reply { generation = 1; owners = None };
        Audit_reply { generation = 2; owners = Some [] };
        Audit_reply { generation = 3; owners = Some [ 0; 5; 6 ] };
        Stats_json "{\"queries\": 0}";
        Stats_json "";
        Republished { generation = 2 };
        (* Candidate scores are quantized to 1e-4 by the resolver, so the
           basis-point wire encoding must round-trip them bit-exactly. *)
        Fuzzy_reply
          {
            generation = 9;
            result =
              Serve.Candidates
                [
                  { Serve.owner = 0; score = 1.0; providers = [ 0; 3; 9 ] };
                  { Serve.owner = 31; score = 9148. /. 10000.; providers = [] };
                  { Serve.owner = 7; score = 0.0; providers = [ 2 ] };
                ];
          };
        Fuzzy_reply { generation = 4; result = Serve.Candidates [] };
        Fuzzy_reply { generation = 1; result = Serve.No_resolver };
        Fuzzy_reply { generation = 2; result = Serve.Probe_mismatch };
        Fuzzy_reply { generation = 3; result = Serve.Fuzzy_shed };
        Telemetry_json "{\"requests\": 12, \"conservation\": {\"exact\": true}}";
        Telemetry_json "";
        Cluster_status_reply { generation = 1; swaps = 0; peers = [] };
        Cluster_status_reply
          { generation = 42; swaps = 17; peers = [ "/tmp/a.sock"; "host:9001"; ":9002" ] };
        Cluster_status_reply { generation = 0; swaps = 0; peers = [ "" ] };
        Pong;
        Shutting_down;
        Server_error "republish: truncated payload";
      ]

(* Feed [s] to a fresh decoder in [chunk]-byte pieces, draining frames
   after every feed. *)
let decode_chunked ~chunk s =
  let d = Wire.Decoder.create () in
  let frames = ref [] in
  let failed = ref None in
  let pos = ref 0 in
  while !failed = None && !pos < String.length s do
    let len = min chunk (String.length s - !pos) in
    Wire.Decoder.feed_string d (String.sub s !pos len);
    let continue = ref true in
    while !continue do
      match Wire.Decoder.next d with
      | Ok (Some frame) -> frames := frame :: !frames
      | Ok None -> continue := false
      | Error e ->
          failed := Some e;
          continue := false
    done;
    pos := !pos + len
  done;
  match !failed with
  | Some e -> Error e
  | None -> Ok (List.rev !frames, Wire.Decoder.buffered d)

let test_codec_roundtrip () =
  List.iteri
    (fun i frame ->
      check_bool
        (Printf.sprintf "frame %d round-trips" i)
        true
        (decode_chunked ~chunk:4096 (Wire.frame_to_string frame) = Ok ([ frame ], 0)))
    sample_frames

let test_codec_split_reads () =
  let stream = String.concat "" (List.map Wire.frame_to_string sample_frames) in
  List.iter
    (fun chunk ->
      check_bool
        (Printf.sprintf "chunk size %d reassembles" chunk)
        true
        (decode_chunked ~chunk stream = Ok (sample_frames, 0)))
    [ 1; 2; 3; 7; 64; String.length stream ]

let test_codec_partial_frame () =
  let d = Wire.Decoder.create () in
  check_bool "empty decoder wants bytes" true (Wire.Decoder.next d = Ok None);
  let s = Wire.frame_to_string (Wire.Request (Wire.Query { owner = 12345 })) in
  Wire.Decoder.feed_string d (String.sub s 0 (String.length s - 1));
  check_bool "partial frame wants bytes" true (Wire.Decoder.next d = Ok None);
  Wire.Decoder.feed_string d (String.sub s (String.length s - 1) 1);
  check_bool "completed frame decodes" true
    (Wire.Decoder.next d = Ok (Some (Wire.Request (Wire.Query { owner = 12345 }))));
  check_int "nothing buffered" 0 (Wire.Decoder.buffered d)

(* Hand-rolled frame header: magic, version, tag, 32-bit BE length. *)
let header ~tag ~len =
  let b = Buffer.create 7 in
  Buffer.add_char b '\xE5';
  Buffer.add_char b '\x01';
  Buffer.add_char b (Char.chr tag);
  List.iter (fun sh -> Buffer.add_char b (Char.chr ((len lsr sh) land 0xFF))) [ 24; 16; 8; 0 ];
  Buffer.contents b

let expect_error name ?(max_payload = 64) s matches =
  let d = Wire.Decoder.create ~max_payload () in
  Wire.Decoder.feed_string d s;
  match Wire.Decoder.next d with
  | Error e -> check_bool name true (matches e)
  | Ok _ -> Alcotest.fail (name ^ ": expected a decode error")

let test_codec_errors () =
  expect_error "bad magic" "\x00garbage" (function Wire.Bad_magic 0 -> true | _ -> false);
  expect_error "bad version" "\xE5\x07" (function Wire.Bad_version 7 -> true | _ -> false);
  expect_error "unknown tag" "\xE5\x01\x7F" (function
    | Wire.Unknown_tag 0x7F -> true
    | _ -> false);
  expect_error "response-range hole is unknown" "\xE5\x01\x1F" (function
    | Wire.Unknown_tag 0x1F -> true
    | _ -> false);
  expect_error "oversized payload"
    (header ~tag:0x01 ~len:65)
    (function Wire.Oversized { length = 65; limit = 64 } -> true | _ -> false);
  expect_error "truncated varint"
    (header ~tag:0x01 ~len:1 ^ "\x80")
    (function Wire.Corrupt _ -> true | _ -> false);
  expect_error "trailing bytes"
    (header ~tag:0x01 ~len:2 ^ "\x00\x00")
    (function Wire.Corrupt msg -> contains msg "trailing" | _ -> false);
  (* A reply's provider list: generation 1, kind 0 (providers), then a
     count of -2, or of 40 with no bytes behind it. *)
  expect_error "negative provider count"
    (header ~tag:0x11 ~len:3 ^ "\x02\x00\x03")
    (function Wire.Corrupt msg -> contains msg "provider count -2" | _ -> false);
  expect_error "provider count exceeding payload"
    (header ~tag:0x11 ~len:3 ^ "\x02\x00\x50")
    (function Wire.Corrupt msg -> contains msg "provider count 40" | _ -> false);
  expect_error "unknown reply kind"
    (header ~tag:0x11 ~len:2 ^ "\x02\x09")
    (function Wire.Corrupt msg -> contains msg "reply kind" | _ -> false);
  (* The cluster-status tags sit at the top of each range; the next tag
     up must still be unknown. *)
  expect_error "request-range hole is unknown" "\xE5\x01\x0D" (function
    | Wire.Unknown_tag 0x0D -> true
    | _ -> false);
  (* 0x05 carried the retired CSV republish: a frame from a client that
     still sends it is an unknown tag, bare or inside an envelope. *)
  expect_error "retired CSV republish tag is unknown" (header ~tag:0x05 ~len:0) (function
    | Wire.Unknown_tag 0x05 -> true
    | _ -> false);
  expect_error "traced frame wrapping the retired tag"
    (header ~tag:0x0A ~len:2 ^ "\x02\x05")
    (function Wire.Corrupt msg -> contains msg "wraps tag 0x05" | _ -> false);
  (* 0x02 and 0x12 carried the retired Batch request and reply: an old
     peer's well-formed batch frame is an unknown tag, bare or wrapped. *)
  expect_error "retired batch tag is unknown"
    (header ~tag:0x02 ~len:2 ^ "\x02\x06")
    (function Wire.Unknown_tag 0x02 -> true | _ -> false);
  expect_error "retired batch reply tag is unknown"
    (header ~tag:0x12 ~len:3 ^ "\x02\x02\x01")
    (function Wire.Unknown_tag 0x12 -> true | _ -> false);
  expect_error "traced frame wrapping the retired batch tag"
    (header ~tag:0x0A ~len:4 ^ "\x02\x02\x02\x06")
    (function Wire.Corrupt msg -> contains msg "wraps tag 0x02" | _ -> false);
  (* Traced (0x0A) envelopes: zigzag varint trace id, one inner tag byte,
     then the inner request's payload — each constraint has a hostile
     probe. *)
  expect_error "traced frame truncated before inner tag"
    (header ~tag:0x0A ~len:1 ^ "\x02")
    (function Wire.Corrupt msg -> contains msg "truncated traced" | _ -> false);
  expect_error "negative trace id"
    (header ~tag:0x0A ~len:2 ^ "\x01\x01")
    (function Wire.Corrupt msg -> contains msg "trace id" | _ -> false);
  expect_error "nested traced frame"
    (header ~tag:0x0A ~len:2 ^ "\x02\x0A")
    (function Wire.Corrupt msg -> contains msg "nested" | _ -> false);
  expect_error "traced frame wrapping a response tag"
    (header ~tag:0x0A ~len:2 ^ "\x02\x11")
    (function Wire.Corrupt msg -> contains msg "wraps tag" | _ -> false);
  expect_error "traced frame wrapping tag zero"
    (header ~tag:0x0A ~len:2 ^ "\x02\x00")
    (function Wire.Corrupt msg -> contains msg "wraps tag" | _ -> false);
  expect_error "traced frame with truncated inner payload"
    (header ~tag:0x0A ~len:2 ^ "\x02\x01")
    (function Wire.Corrupt _ -> true | _ -> false);
  (* The inner frame runs the full strict parse: a Ping that carries a
     payload byte is rejected inside the envelope too. *)
  expect_error "traced frame with trailing inner bytes"
    (header ~tag:0x0A ~len:3 ^ "\x02\x06\x00")
    (function Wire.Corrupt msg -> contains msg "trailing" | _ -> false);
  expect_error "telemetry request with a payload"
    (header ~tag:0x0B ~len:1 ^ "\x00")
    (function Wire.Corrupt msg -> contains msg "trailing" | _ -> false);
  (* Fuzzy request (0x09) payloads are zigzag varints: k, blocking-key
     count + keys, bits, hashes, then four filters as ascending set-bit
     index lists. *)
  expect_error "fuzzy k zero"
    (header ~tag:0x09 ~len:1 ^ "\x00")
    (function Wire.Corrupt msg -> contains msg "fuzzy k" | _ -> false);
  expect_error "truncated probe"
    (header ~tag:0x09 ~len:1 ^ "\x02")
    (function Wire.Corrupt msg -> contains msg "truncated" | _ -> false);
  expect_error "probe key count over limit"
    (header ~tag:0x09 ~len:3 ^ "\x02\x82\x01")
    (function Wire.Corrupt msg -> contains msg "blocking key" | _ -> false);
  expect_error "probe bits zero"
    (header ~tag:0x09 ~len:3 ^ "\x02\x00\x00")
    (function Wire.Corrupt msg -> contains msg "filter bits" | _ -> false);
  expect_error "probe hashes zero"
    (header ~tag:0x09 ~len:4 ^ "\x02\x00\x02\x00")
    (function Wire.Corrupt msg -> contains msg "filter hashes" | _ -> false);
  (* bits = 8, filter declares indexes 3 then 1: descending order. *)
  expect_error "filter index out of order"
    (header ~tag:0x09 ~len:7 ^ "\x02\x00\x10\x02\x04\x06\x02")
    (function Wire.Corrupt msg -> contains msg "out of order" | _ -> false);
  (* bits = 8, filter declares index 8: one past the geometry. *)
  expect_error "filter index out of range"
    (header ~tag:0x09 ~len:6 ^ "\x02\x00\x10\x02\x02\x10")
    (function Wire.Corrupt msg -> contains msg "out of order or range" | _ -> false);
  expect_error "truncated fuzzy reply"
    (header ~tag:0x19 ~len:1 ^ "\x02")
    (function Wire.Corrupt msg -> contains msg "truncated fuzzy reply" | _ -> false);
  expect_error "unknown fuzzy reply kind"
    (header ~tag:0x19 ~len:2 ^ "\x02\x09")
    (function Wire.Corrupt msg -> contains msg "fuzzy reply kind" | _ -> false);
  expect_error "candidate count exceeding payload"
    (header ~tag:0x19 ~len:3 ^ "\x02\x00\x7E")
    (function Wire.Corrupt msg -> contains msg "candidate count" | _ -> false);
  (* A candidate claiming 10001 basis points: scores live in [0, 1]. *)
  expect_error "candidate score over one"
    (header ~tag:0x19 ~len:7 ^ "\x02\x00\x02\x00\xA2\x9C\x01")
    (function Wire.Corrupt msg -> contains msg "score" | _ -> false);
  (* Cluster status (0x0C request, 0x1B reply): the request is
     payload-free, the reply is generation, swaps, then length-prefixed
     peers — negative counters and ballooned peer lists are lies. *)
  expect_error "cluster status request with a payload"
    (header ~tag:0x0C ~len:1 ^ "\x00")
    (function Wire.Corrupt msg -> contains msg "trailing" | _ -> false);
  expect_error "negative swap count"
    (header ~tag:0x1B ~len:2 ^ "\x02\x01")
    (function Wire.Corrupt msg -> contains msg "swap" | _ -> false);
  (* 65 peers declared: one past the bound. *)
  expect_error "peer count over limit"
    (header ~tag:0x1B ~len:4 ^ "\x02\x00\x82\x01")
    (function Wire.Corrupt msg -> contains msg "peer count" | _ -> false);
  (* One peer of declared length 10 with zero bytes behind it. *)
  expect_error "peer length exceeding payload"
    (header ~tag:0x1B ~len:4 ^ "\x02\x00\x02\x14")
    (function Wire.Corrupt msg -> contains msg "peer byte" | _ -> false)

let test_codec_poisoned_decoder () =
  let d = Wire.Decoder.create () in
  Wire.Decoder.feed_string d "\x00";
  check_bool "first error" true (Wire.Decoder.next d = Error (Wire.Bad_magic 0));
  Wire.Decoder.feed_string d (Wire.frame_to_string (Wire.Request Wire.Ping));
  check_bool "poison is sticky" true (Wire.Decoder.next d = Error (Wire.Bad_magic 0))

let test_addr () =
  (* Accepted syntax, table-driven: input -> parsed form. *)
  List.iter
    (fun (input, expected) ->
      match Addr.parse input with
      | Ok addr -> check_bool (Printf.sprintf "parse %S" input) true (addr = expected)
      | Error e ->
          Alcotest.fail
            (Printf.sprintf "parse %S rejected: %s" input (Addr.parse_error_to_string e)))
    [
      ("/tmp/x.sock", Addr.Unix_socket "/tmp/x.sock");
      ("eppi.sock", Addr.Unix_socket "eppi.sock");
      ("127.0.0.1:8080", Addr.Tcp ("127.0.0.1", 8080));
      ("example.com:1", Addr.Tcp ("example.com", 1));
      ("host:65535", Addr.Tcp ("host", 65535));
      (":9000", Addr.Tcp ("", 9000));
      (* A slash anywhere wins: this is a path even though it has a colon. *)
      ("/run/eppi:9000", Addr.Unix_socket "/run/eppi:9000");
    ];
  (* Rejections are typed, not stringly: each row names its error. *)
  List.iter
    (fun (input, expected) ->
      match Addr.parse input with
      | Error e -> check_bool (Printf.sprintf "reject %S" input) true (e = expected)
      | Ok _ -> Alcotest.fail (Printf.sprintf "parse %S must be rejected" input))
    [
      ("", Addr.Empty_address);
      ("host:", Addr.Bad_port "");
      ("host:http", Addr.Bad_port "http");
      ("host:12x", Addr.Bad_port "12x");
      ("host:0", Addr.Port_out_of_range 0);
      ("host:-1", Addr.Port_out_of_range (-1));
      ("host:65536", Addr.Port_out_of_range 65536);
      ("host:999999", Addr.Port_out_of_range 999999);
    ];
  Alcotest.(check string) "default host printed" "127.0.0.1:9000" (Addr.to_string (Addr.Tcp ("", 9000)));
  Alcotest.(check string) "path printed" "/a/b.sock" (Addr.to_string (Addr.Unix_socket "/a/b.sock"));
  (* of_string is parse-or-raise, naming the typed error. *)
  check_bool "of_string accepts" true (Addr.of_string ":9000" = Addr.Tcp ("", 9000));
  (match Addr.of_string "host:0" with
  | exception Invalid_argument msg -> check_bool "raise names range" true (contains msg "65535")
  | _ -> Alcotest.fail "port 0 must be rejected");
  match Addr.of_string "" with
  | exception Invalid_argument msg -> check_bool "raise names empty" true (contains msg "empty")
  | _ -> Alcotest.fail "empty address must be rejected"

(* The reconnect schedule (exposed pure): jitter must stay inside
   [full/2, full) of the capped exponential, monotone in [u], and capped
   at 2 s however deep the attempt count goes. *)
let test_backoff_delay () =
  let cap = 2.0 in
  let full ~base ~attempt = Float.min (base *. (2.0 ** float_of_int (attempt - 1))) cap in
  List.iter
    (fun (base, attempt, u) ->
      let d = Client.backoff_delay ~base ~attempt ~u in
      let f = full ~base ~attempt in
      check_bool
        (Printf.sprintf "base %g attempt %d u %g in [full/2, full)" base attempt u)
        true
        (d >= (f /. 2.0) -. 1e-12 && d < f))
    [
      (0.05, 1, 0.0);
      (0.05, 1, 0.999);
      (0.05, 3, 0.5);
      (0.05, 10, 0.0);
      (0.05, 10, 0.999);
      (1.5, 2, 0.25);
      (0.001, 7, 0.75);
    ];
  (* Deterministic endpoints: u = 0 is exactly half the full delay. *)
  check_bool "u=0 is half" true (Client.backoff_delay ~base:0.1 ~attempt:1 ~u:0.0 = 0.05);
  (* Deep attempts saturate at the cap: delay lives in [1, 2). *)
  let deep = Client.backoff_delay ~base:0.05 ~attempt:60 ~u:0.999 in
  check_bool "deep attempt capped below 2 s" true (deep < cap);
  check_bool "deep attempt at least cap/2" true (deep >= cap /. 2.0);
  (match Client.backoff_delay ~base:0.05 ~attempt:0 ~u:0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attempt 0 must be rejected");
  match Client.backoff_delay ~base:0.05 ~attempt:1 ~u:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "u = 1 must be rejected"


(* ---------- Index codec ---------- *)

(* Decode must be total: typed errors on any input, never an exception. *)
let decode_total name payload =
  match Index_codec.decode payload with
  | Ok _ | Error _ -> ()
  | exception e ->
      Alcotest.fail (Printf.sprintf "%s: decode raised %s" name (Printexc.to_string e))

let matrices_equal a b = Bitmatrix.equal (Eppi.Index.matrix a) (Eppi.Index.matrix b)

let test_index_codec_roundtrip () =
  let shapes = [ (1, 1); (5, 3); (20, 9); (40, 11); (7, 64); (3, 200); (25, 9) ] in
  List.iter
    (fun (n, m) ->
      let index = test_index ~n ~m in
      let encoded = Index_codec.encode index in
      check_int
        (Printf.sprintf "encoded_bytes exact for %dx%d" n m)
        (String.length encoded)
        (Index_codec.encoded_bytes index);
      check_bool
        (Printf.sprintf "encode deterministic for %dx%d" n m)
        true
        (String.equal encoded (Index_codec.encode index));
      match Index_codec.decode encoded with
      | Ok decoded ->
          check_bool (Printf.sprintf "round-trip %dx%d" n m) true (matrices_equal index decoded)
      | Error e -> Alcotest.fail (Index_codec.error_to_string e))
    shapes;
  (* A full matrix exercises the bitmap rows, an empty one the zero-count
     packed rows; both must survive the trip. *)
  let full = Bitmatrix.create ~rows:6 ~cols:40 in
  for j = 0 to 5 do
    for p = 0 to 39 do
      Bitmatrix.set full ~row:j ~col:p true
    done
  done;
  let full = Eppi.Index.of_matrix full in
  check_bool "dense round-trip" true
    (match Index_codec.decode (Index_codec.encode full) with
    | Ok d -> matrices_equal full d
    | Error _ -> false);
  let empty = Eppi.Index.of_matrix (Bitmatrix.create ~rows:4 ~cols:16) in
  check_bool "empty round-trip" true
    (match Index_codec.decode (Index_codec.encode empty) with
    | Ok d -> matrices_equal empty d
    | Error _ -> false)

let test_index_codec_truncation () =
  let index = test_index ~n:20 ~m:9 in
  let encoded = Index_codec.encode index in
  for len = 0 to String.length encoded - 1 do
    let prefix = String.sub encoded 0 len in
    decode_total "prefix" prefix;
    match Index_codec.decode prefix with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "prefix of %d/%d bytes decoded" len (String.length encoded))
  done

let test_index_codec_wrong_version () =
  let index = test_index ~n:5 ~m:7 in
  let encoded = Bytes.of_string (Index_codec.encode index) in
  Bytes.set encoded 0 '\x02';
  (match Index_codec.decode (Bytes.to_string encoded) with
  | Error (Index_codec.Unsupported_version 2) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Index_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "future version must not decode");
  match Index_codec.decode "" with
  | Error (Index_codec.Truncated _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Index_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "empty payload must not decode"

(* Hand-built payloads hitting each validator: the header is
   version, owners n, providers m, then the row counts and bodies. *)
let test_index_codec_malformed () =
  let reject name payload expect =
    decode_total name payload;
    match Index_codec.decode payload with
    | Error (Index_codec.Malformed msg) when contains msg expect -> ()
    | Error e ->
        Alcotest.fail (Printf.sprintf "%s: wrong error %s" name (Index_codec.error_to_string e))
    | Ok _ -> Alcotest.fail (name ^ ": must be rejected")
  in
  reject "zero owners" "\x01\x00\x01" "owner count";
  reject "zero providers" "\x01\x01\x00" "provider count";
  reject "count exceeds providers" "\x01\x01\x01\x02" "exceeds";
  (* m=5, count 1 (Rice branch, k=0): body byte 0x81 decodes gap 1 in its
     low bits, but its top bit lands in the final padding. *)
  reject "nonzero padding after gaps" "\x01\x01\x05\x01\x81" "padding";
  (* m=5, count 1, body 0x1F: unary quotient 5 with k=0 is gap 5, so the
     decoded provider id is 5 — out of range for m=5. *)
  reject "gap lands out of range" "\x01\x01\x05\x01\x1F" "provider 5 >= 5";
  (* m=5, count 1, body 0xFF: the unary run alone exceeds any gap a 5-wide
     row could hold — rejected before scanning further. *)
  reject "gap exceeds provider count" "\x01\x01\x05\x01\xFF" "gap exceeds";
  (* m=2: bitmap declares 2 set bits but populates 1. *)
  reject "bitmap population mismatch" "\x01\x01\x02\x02\x01" "population";
  (* m=2, count 1, body 0x05: bitmap bits (1, 0) match the count, but
     bit 2 sits in the final padding. *)
  reject "nonzero padding after bitmap" "\x01\x01\x02\x01\x05" "padding";
  let valid = Index_codec.encode (test_index ~n:3 ~m:5) in
  reject "trailing bytes" (valid ^ "\x00") "trailing"

(* A header may declare dimensions far larger than anything the payload
   could back; decode must reject them before sizing any allocation from
   them.  (A ~20-byte payload once forced a multi-GiB matrix attempt —
   Out_of_memory off the wire, escaping the typed-error contract.) *)
let test_index_codec_hostile_dims () =
  (* n=16, m=2^30: each dimension is within bounds but the product blows
     the cells cap, rejected before the counts are even read. *)
  let payload = "\x01\x10\x80\x80\x80\x80\x04" in
  decode_total "oversized matrix" payload;
  (match Index_codec.decode payload with
  | Error (Index_codec.Malformed msg) ->
      check_bool "names the cells cap" true (contains msg "cells")
  | Error e -> Alcotest.fail ("wrong error: " ^ Index_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized matrix must be rejected");
  (* n=2^20 rows declared by a 5-byte payload: fewer bytes remain than
     rows, so it is truncated before the counts array is allocated. *)
  let payload = "\x01\x80\x80\x40\x05" in
  decode_total "overdeclared rows" payload;
  match Index_codec.decode payload with
  | Error (Index_codec.Truncated _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Index_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "overdeclared rows must be rejected"

let test_index_codec_mutation_fuzz () =
  (* Every single-byte corruption of a valid payload must decode to a
     typed result — never an exception.  (Some mutations remain valid
     payloads for a different matrix; that is fine, the wire checksum is
     the transport's business.) *)
  let index = test_index ~n:12 ~m:17 in
  let encoded = Index_codec.encode index in
  for i = 0 to String.length encoded - 1 do
    List.iter
      (fun delta ->
        let b = Bytes.of_string encoded in
        Bytes.set b i (Char.chr (Char.code encoded.[i] lxor delta));
        decode_total (Printf.sprintf "byte %d xor %d" i delta) (Bytes.to_string b))
      [ 0x01; 0x80; 0xFF ]
  done

(* ---------- Live daemon ---------- *)

let sock_counter = ref 0

let sock_path () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "eppi-net-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* Start a daemon over [index] in its own domain, run [f addr engine]
   against it, then shut it down (if [f] has not already) and join. *)
let with_server ?(shards = 1) ?(workers = 1) ?admission
    ?(max_inflight = Server.default_config.max_inflight) ?(peers = []) ?resolver index f =
  let path = sock_path () in
  let addr = Addr.Unix_socket path in
  let engine = Serve.create ~config:{ Serve.shards; admission } ?resolver index in
  let server =
    Server.create ~config:{ Server.default_config with workers; max_inflight; peers } engine
  in
  let listener = Server.listen addr in
  let daemon = Domain.spawn (fun () -> Server.run server listener) in
  let stop () =
    (try
       let c = Client.connect addr in
       (try Client.shutdown c with _ -> ());
       Client.close c
     with _ -> ());
    Domain.join daemon;
    try Sys.remove path with Sys_error _ -> ()
  in
  Fun.protect ~finally:stop (fun () -> f addr engine)

let daemon_basics ~shards ~workers () =
  let n = 20 and m = 9 in
  let index = test_index ~n ~m in
  with_server ~shards ~workers index (fun addr engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.ping c;
          for owner = 0 to n - 1 do
            let generation, reply = Client.query c ~owner in
            check_int "generation" 1 generation;
            check_bool
              (Printf.sprintf "owner %d served" owner)
              true
              (reply = Serve.Providers (Eppi.Index.query index ~owner))
          done;
          let _, unknown = Client.query c ~owner:(n + 5) in
          check_bool "unknown owner" true (unknown = Serve.Unknown_owner);
          let _, owners = Client.audit c ~provider:3 in
          check_bool "audit equals engine audit" true (owners = Serve.audit engine ~provider:3);
          let _, out_of_range = Client.audit c ~provider:(m + 1) in
          check_bool "audit out of range" true (out_of_range = None);
          let stats = Json.parse_exn (Client.stats_json c) in
          check_bool "stats is json" true (Json.obj stats <> None);
          check_bool "stats counts queries" true (Json.find_int stats [ "queries" ] <> None);
          (* A pipeline wider than the worker pool spreads over every
             domain and must come back in request order. *)
          let owners = List.init 64 (fun i -> i mod (n + 4)) in
          let responses = Client.pipeline c (List.map (fun owner -> Wire.Query { owner }) owners) in
          check_int "pipeline size" 64 (List.length responses);
          List.iteri
            (fun i (owner, response) ->
              let reply =
                if owner < n then Serve.Providers (Eppi.Index.query index ~owner)
                else Serve.Unknown_owner
              in
              check_bool (Printf.sprintf "pipelined entry %d" i) true
                (response = Wire.Reply { generation = 1; reply }))
            (List.combine owners responses)))

(* A rate-limited daemon: the buckets refill 1e-3 tokens/s, so in a test's
   lifetime each shard admits exactly its burst.  One pipeline carries
   three rounds over every owner; each shard must answer its first [burst]
   queries with providers and shed the rest, and the Stats reply must
   conserve every request, none of them shed by a queue. *)
let daemon_admission ~workers () =
  let n = 20 and shards = 4 and burst = 3 in
  let index = test_index ~n ~m:9 in
  let admission = { Eppi_serve.Admission.rate = 1e-3; burst } in
  with_server ~shards ~workers ~admission index (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let owners = List.init (3 * n) (fun i -> i mod n) in
          let responses = Client.pipeline c (List.map (fun owner -> Wire.Query { owner }) owners) in
          let seen = Array.make shards 0 in
          List.iteri
            (fun i (owner, response) ->
              let s = owner mod shards in
              let reply =
                if seen.(s) < burst then Serve.Providers (Eppi.Index.query index ~owner)
                else Serve.Shed_rate_limit
              in
              seen.(s) <- seen.(s) + 1;
              check_bool (Printf.sprintf "request %d (owner %d)" i owner) true
                (response = Wire.Reply { generation = 1; reply }))
            (List.combine owners responses);
          let stats = Json.parse_exn (Client.stats_json c) in
          let get k = Option.value ~default:(-1) (Json.find_int stats [ k ]) in
          check_int "queries" (3 * n) (get "queries");
          check_int "served" (shards * burst) (get "served");
          check_int "shed_rate" ((3 * n) - (shards * burst)) (get "shed_rate");
          check_int "shed_queue" 0 (get "shed_queue");
          check_int "conservation" (get "queries")
            (get "served" + get "unknown" + get "shed_rate" + get "shed_queue")))

let test_daemon_republish () =
  let n = 20 and m = 9 in
  let index1 = test_index ~n ~m in
  (* The new index is bigger: owner 22 exists only after the swap. *)
  let index2 = test_index_v2 ~n:25 ~m in
  with_server index1 (fun addr engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let generation, reply = Client.query c ~owner:4 in
          check_int "pre-swap generation" 1 generation;
          check_bool "pre-swap reply" true
            (reply = Serve.Providers (Eppi.Index.query index1 ~owner:4));
          let _, beyond = Client.query c ~owner:22 in
          check_bool "owner beyond old index" true (beyond = Serve.Unknown_owner);
          (match Client.republish_index c index2 with
          | Ok generation -> check_int "republish returns new generation" 2 generation
          | Error e -> Alcotest.fail e);
          let generation, reply = Client.query c ~owner:4 in
          check_int "post-swap generation" 2 generation;
          check_bool "post-swap reply" true
            (reply = Serve.Providers (Eppi.Index.query index2 ~owner:4));
          let generation, beyond = Client.query c ~owner:22 in
          check_int "new owner generation" 2 generation;
          check_bool "owner known after swap" true
            (beyond = Serve.Providers (Eppi.Index.query index2 ~owner:22));
          check_int "engine generation" 2 (Serve.generation engine);
          (* A payload cut one byte short of a valid encoding. *)
          let valid = Index_codec.encode index1 in
          let corrupt = String.sub valid 0 (String.length valid - 1) in
          (match Client.call c (Wire.Republish_binary { data = corrupt }) with
          | Wire.Server_error msg -> check_bool "error names republish" true (contains msg "republish")
          | other -> Client.unexpected "corrupt republish" other);
          check_int "failed republish keeps generation" 2 (Serve.generation engine);
          let stats = Json.parse_exn (Client.stats_json c) in
          check_bool "stats carries generation" true
            (Json.find_int stats [ "generation" ] = Some 2);
          check_bool "stats counts the one installed swap" true
            (Json.find_int stats [ "swaps" ] = Some 1)))

(* Cluster_status is answered inline by the mux: generation tracks the
   number of applied republishes, swaps counts them from the moment they
   are installed, and peers echoes the daemon's configured replica set
   verbatim. *)
let test_daemon_cluster_status () =
  let n = 20 and m = 9 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n:25 ~m in
  let peers = [ "/tmp/a.sock"; "other:9001" ] in
  with_server ~peers index1 (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let status = Client.cluster_status c in
          check_int "initial generation" 1 status.Wire.generation;
          check_int "no swaps yet" 0 status.Wire.swaps;
          check_bool "peers echoed" true (status.Wire.peers = peers);
          (match Client.republish_index c index2 with
          | Ok generation -> check_int "republish generation" 2 generation
          | Error e -> Alcotest.fail e);
          let status = Client.cluster_status c in
          check_int "post-swap generation" 2 status.Wire.generation;
          check_int "one swap recorded" 1 status.Wire.swaps;
          check_bool "peers stable across swap" true (status.Wire.peers = peers)))

(* One republish is one swap, however many shards serve afterwards: a
   4-shard daemon republished once and then queried on every shard
   reports [swaps = 1] in Stats, Telemetry and Cluster_status alike. *)
let daemon_swaps_per_republish ~workers () =
  let n = 20 and m = 9 in
  let index2 = test_index_v2 ~n ~m in
  with_server ~shards:4 ~workers (test_index ~n ~m) (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.republish_index c index2 with
          | Ok generation -> check_int "republish generation" 2 generation
          | Error e -> Alcotest.fail e);
          for owner = 0 to 3 do
            check_bool
              (Printf.sprintf "shard %d serves the new index" owner)
              true
              (Client.query c ~owner = (2, Serve.Providers (Eppi.Index.query index2 ~owner)))
          done;
          let swaps json = Json.find_int (Json.parse_exn json) [ "swaps" ] in
          check_bool "stats swaps" true (swaps (Client.stats_json c) = Some 1);
          check_bool "telemetry swaps" true (swaps (Client.telemetry_json c) = Some 1);
          check_int "cluster status swaps" 1 (Client.cluster_status c).Wire.swaps))

let daemon_pipeline ~shards ~workers () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  with_server ~shards ~workers index (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let requests =
            List.init 300 (fun i ->
                match i mod 5 with
                | 0 | 1 | 2 -> Wire.Query { owner = i mod (2 * n) }
                | 3 -> Wire.Audit { provider = i mod (m + 3) }
                | _ -> Wire.Ping)
          in
          let responses = Client.pipeline c requests in
          check_int "every request answered" 300 (List.length responses);
          List.iter2
            (fun request response ->
              match (request, response) with
              | Wire.Query { owner }, Wire.Reply { generation = 1; reply } ->
                  let expected =
                    if owner < n then Serve.Providers (Eppi.Index.query index ~owner)
                    else Serve.Unknown_owner
                  in
                  check_bool (Printf.sprintf "pipelined owner %d" owner) true (reply = expected)
              | Wire.Audit { provider }, Wire.Audit_reply { generation = 1; owners } ->
                  check_bool
                    (Printf.sprintf "pipelined audit %d" provider)
                    true
                    (if provider < m then owners <> None else owners = None)
              | Wire.Ping, Wire.Pong -> ()
              | _, other -> Client.unexpected "pipelined response" other)
            requests responses))

(* Regression: a client that pipelines more requests than [max_inflight]
   and then waits for replies must still get every one.  The mux pauses
   decoding at the cap with the surplus frames buffered in the decoder;
   each completion must resume the drain — [select] alone never would,
   it only fires when the client sends MORE bytes. *)
let daemon_pipeline_past_inflight_cap ~workers () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  with_server ~shards:4 ~workers ~max_inflight:8 index (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let requests = List.init 100 (fun i -> Wire.Query { owner = i mod n }) in
          let responses = Client.pipeline c requests in
          check_int "every request answered" 100 (List.length responses);
          List.iter2
            (fun request response ->
              match (request, response) with
              | Wire.Query { owner }, Wire.Reply { reply; _ } ->
                  check_bool
                    (Printf.sprintf "capped pipeline owner %d" owner)
                    true
                    (reply = Serve.Providers (Eppi.Index.query index ~owner))
              | _, other -> Client.unexpected "capped pipeline" other)
            requests responses))

let test_daemon_republish_binary () =
  let n = 20 and m = 9 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n:25 ~m in
  with_server ~shards:4 ~workers:4 index1 (fun addr engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.republish_index c index2 with
          | Ok generation -> check_int "binary republish generation" 2 generation
          | Error e -> Alcotest.fail e);
          let generation, reply = Client.query c ~owner:22 in
          check_int "post-swap generation" 2 generation;
          check_bool "post-swap reply" true
            (reply = Serve.Providers (Eppi.Index.query index2 ~owner:22));
          (* A payload the codec rejects must bounce as a Server_error,
             leaving the installed generation alone. *)
          (match Client.call c (Wire.Republish_binary { data = "garbage bytes" }) with
          | Wire.Server_error msg -> check_bool "error names republish" true (contains msg "republish")
          | other -> Client.unexpected "corrupt binary republish" other);
          (match Client.call c (Wire.Republish_binary { data = "" }) with
          | Wire.Server_error _ -> ()
          | other -> Client.unexpected "empty binary republish" other);
          check_int "failed republish keeps generation" 2 (Serve.generation engine)))

(* Requests pipelined behind a republish on one connection must answer
   from the new generation: the mux stalls the connection until the swap
   lands, so the wire never shows [Republished {g}] followed by a reply
   from a generation < g. *)
let test_multicore_republish_ordering () =
  let n = 20 and m = 9 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n ~m in
  with_server ~shards:4 ~workers:4 index1 (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let requests =
            [
              Wire.Query { owner = 0 };
              Wire.Query { owner = 1 };
              Wire.Republish_binary { data = Index_codec.encode index2 };
              Wire.Query { owner = 0 };
              Wire.Query { owner = 1 };
              Wire.Ping;
              Wire.Query { owner = 2 };
            ]
          in
          match Client.pipeline c requests with
          | [ a; b; Wire.Republished { generation = 2 }; d; e; Wire.Pong; g ] ->
              (* Replies routed before the republish may land either side
                 of the swap; their generation tag says which index. *)
              List.iter
                (fun (owner, response) ->
                  match response with
                  | Wire.Reply { generation; reply } ->
                      let index = if generation = 1 then index1 else index2 in
                      check_bool
                        (Printf.sprintf "pre-swap owner %d consistent" owner)
                        true
                        (generation <= 2 && reply = Serve.Providers (Eppi.Index.query index ~owner))
                  | other -> Client.unexpected "pre-swap reply" other)
                [ (0, a); (1, b) ];
              (* Replies behind the republish must be the new index, exactly. *)
              List.iter
                (fun (owner, response) ->
                  match response with
                  | Wire.Reply { generation; reply } ->
                      check_int (Printf.sprintf "post-swap owner %d generation" owner) 2 generation;
                      check_bool
                        (Printf.sprintf "post-swap owner %d reply" owner)
                        true
                        (reply = Serve.Providers (Eppi.Index.query index2 ~owner))
                  | other -> Client.unexpected "post-swap reply" other)
                [ (0, d); (1, e); (2, g) ]
          | responses ->
              Alcotest.fail
                (Printf.sprintf "unexpected response shape (%d frames)" (List.length responses))))

(* The acceptance test from the issue: queries keep flowing while the index
   hot-swaps underneath them; every reply must match the generation it is
   tagged with, none may be dropped. *)
let daemon_hot_swap_under_load ~workers () =
  let n = 40 and m = 11 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n ~m in
  let truth1 = Array.init n (fun owner -> Eppi.Index.query index1 ~owner) in
  let truth2 = Array.init n (fun owner -> Eppi.Index.query index2 ~owner) in
  with_server ~shards:4 ~workers index1 (fun addr engine ->
      let worker =
        Domain.spawn (fun () ->
            let c = Client.connect ~retries:20 addr in
            let rng = Rng.create 7 in
            let results = ref [] in
            let rounds = ref 0 and rounds_after_swap = ref 0 in
            while !rounds_after_swap < 5 && !rounds < 4000 do
              incr rounds;
              let owners = Array.init 25 (fun _ -> Rng.int rng n) in
              let requests = Array.to_list (Array.map (fun owner -> Wire.Query { owner }) owners) in
              let seen_swap = ref (!rounds_after_swap > 0) in
              List.iteri
                (fun i response ->
                  match response with
                  | Wire.Reply { generation; reply } ->
                      if generation >= 2 then seen_swap := true;
                      results := (owners.(i), generation, reply) :: !results
                  | other -> Client.unexpected "hot-swap query" other)
                (Client.pipeline c requests);
              if !seen_swap then incr rounds_after_swap
            done;
            Client.close c;
            (!rounds, !results))
      in
      let admin = Client.connect addr in
      Unix.sleepf 0.02;
      (match Client.republish_index admin index2 with
      | Ok generation -> check_int "swap generation" 2 generation
      | Error e -> Alcotest.fail e);
      let generation, reply = Client.query admin ~owner:0 in
      check_int "admin post-swap generation" 2 generation;
      check_bool "admin post-swap reply" true (reply = Serve.Providers truth2.(0));
      Client.close admin;
      let rounds, results = Domain.join worker in
      check_bool "worker observed the swap" true (rounds < 4000);
      check_int "no dropped replies" (rounds * 25) (List.length results);
      List.iter
        (fun (owner, generation, reply) ->
          let expected =
            match generation with
            | 1 -> truth1.(owner)
            | 2 -> truth2.(owner)
            | g -> Alcotest.fail (Printf.sprintf "impossible generation %d" g)
          in
          check_bool
            (Printf.sprintf "owner %d at generation %d" owner generation)
            true
            (reply = Serve.Providers expected))
        results;
      let metrics = Serve.metrics engine in
      check_int "metrics generation" 2 metrics.generation;
      check_int "one republish, one swap" 1 metrics.swaps;
      check_int "conservation" metrics.queries
        (metrics.served + metrics.unknown + metrics.shed_rate + metrics.shed_queue))

(* Fuzzy lookups over the wire: a daemon started with a resolver answers
   Bloom-probe queries end-to-end — candidates resolve to the planted
   owner and fan out to that owner's postings row — and a probe under the
   wrong filter geometry comes back as a typed mismatch. *)
let daemon_fuzzy ~shards ~workers () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  let config = Resolver.default_config ~seed:0x5EED in
  let roster = Roster.generate (Rng.create 5) ~n in
  let resolver = Resolver.build config roster in
  with_server ~shards ~workers ~resolver index (fun addr engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* Exact probes resolve their own owner at score 1.0, providers
             straight from the postings row. *)
          for owner = 0 to n - 1 do
            let probe = Probe.of_demographic config.Resolver.params roster.(owner) in
            let generation, result = Client.query_fuzzy ~k:3 c probe in
            check_int "fuzzy generation" 1 generation;
            match result with
            | Serve.Candidates (top :: _) ->
                check_int (Printf.sprintf "owner %d resolves itself" owner) owner top.Serve.owner;
                check_bool "exact probe scores 1.0" true (top.Serve.score = 1.0);
                check_bool
                  (Printf.sprintf "owner %d providers are the postings row" owner)
                  true
                  (top.Serve.providers = Eppi.Index.query index ~owner)
            | _ -> Alcotest.fail (Printf.sprintf "owner %d did not resolve" owner)
          done;
          (* Typo-corrupted probes still mostly land on the planted owner
             — the bench pins exact recall; here we only need the wire
             path to carry realistic noisy probes. *)
          let trials = Workload.fuzzy (Rng.create 23) ~roster ~count:40 in
          let hits = ref 0 in
          Array.iter
            (fun (truth, record) ->
              let probe = Probe.of_demographic config.Resolver.params record in
              match Client.query_fuzzy ~k:5 c probe with
              | _, Serve.Candidates (top :: _) when top.Serve.owner = truth -> incr hits
              | _ -> ())
            trials;
          check_bool (Printf.sprintf "noisy probes mostly resolve (%d/40)" !hits) true (!hits >= 30);
          let alien = Bloom.keyed ~seed:0x5EED ~bits:128 () in
          let _, mismatch = Client.query_fuzzy c (Probe.of_demographic alien roster.(0)) in
          check_bool "wrong geometry is a typed mismatch" true (mismatch = Serve.Probe_mismatch);
          let stats = Json.parse_exn (Client.stats_json c) in
          check_bool "stats counts fuzzy queries" true
            (Json.find_int stats [ "fuzzy_queries" ] <> None);
          let metrics = Serve.metrics engine in
          check_int "fuzzy conservation" metrics.fuzzy_queries
            (metrics.fuzzy_resolved + metrics.fuzzy_empty + metrics.fuzzy_rejected
           + metrics.fuzzy_shed)))

let test_daemon_fuzzy_no_resolver () =
  let index = test_index ~n:8 ~m:5 in
  with_server index (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let generation, result = Client.query_fuzzy c sample_probe in
          check_int "generation still tagged" 1 generation;
          check_bool "typed no-resolver answer" true (result = Serve.No_resolver)))

(* The fuzzy half of the hot-swap acceptance test: probes keep resolving
   while the postings republish underneath them, and every reply must be
   internally consistent — the providers fanned out for the resolved
   owner are exactly the row of the index generation the reply is tagged
   with, never a mix of one generation's resolver and the other's
   postings. *)
let test_daemon_fuzzy_hot_swap () =
  let n = 40 and m = 11 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n ~m in
  let truth1 = Array.init n (fun owner -> Eppi.Index.query index1 ~owner) in
  let truth2 = Array.init n (fun owner -> Eppi.Index.query index2 ~owner) in
  let config = Resolver.default_config ~seed:0xF0DA in
  let roster = Roster.generate (Rng.create 41) ~n in
  let resolver = Resolver.build config roster in
  let probes = Array.map (Probe.of_demographic config.Resolver.params) roster in
  with_server ~shards:4 ~workers:4 ~resolver index1 (fun addr engine ->
      let worker =
        Domain.spawn (fun () ->
            let c = Client.connect ~retries:20 addr in
            let rng = Rng.create 7 in
            let results = ref [] in
            let rounds = ref 0 and rounds_after_swap = ref 0 in
            while !rounds_after_swap < 5 && !rounds < 4000 do
              incr rounds;
              let owners = Array.init 10 (fun _ -> Rng.int rng n) in
              let requests =
                Array.to_list
                  (Array.map
                     (fun owner -> Wire.Query_fuzzy { probe = probes.(owner); k = 3 })
                     owners)
              in
              let seen_swap = ref (!rounds_after_swap > 0) in
              List.iteri
                (fun i response ->
                  match response with
                  | Wire.Fuzzy_reply { generation; result } ->
                      if generation >= 2 then seen_swap := true;
                      results := (owners.(i), generation, result) :: !results
                  | other -> Client.unexpected "hot-swap fuzzy query" other)
                (Client.pipeline c requests);
              if !seen_swap then incr rounds_after_swap
            done;
            Client.close c;
            (!rounds, !results))
      in
      let admin = Client.connect addr in
      Unix.sleepf 0.02;
      (match Client.republish_index admin index2 with
      | Ok generation -> check_int "swap generation" 2 generation
      | Error e -> Alcotest.fail e);
      Client.close admin;
      let rounds, results = Domain.join worker in
      check_bool "worker observed the swap" true (rounds < 4000);
      check_int "no dropped replies" (rounds * 10) (List.length results);
      List.iter
        (fun (owner, generation, result) ->
          let truth =
            match generation with
            | 1 -> truth1
            | 2 -> truth2
            | g -> Alcotest.fail (Printf.sprintf "impossible generation %d" g)
          in
          match result with
          | Serve.Candidates (top :: _) ->
              check_int
                (Printf.sprintf "owner %d resolved at generation %d" owner generation)
                owner top.Serve.owner;
              check_bool
                (Printf.sprintf "owner %d providers consistent with generation %d" owner generation)
                true
                (top.Serve.providers = truth.(owner))
          | _ -> Alcotest.fail (Printf.sprintf "owner %d dropped to a non-candidate reply" owner))
        results;
      let metrics = Serve.metrics engine in
      check_int "metrics generation" 2 metrics.generation;
      check_int "fuzzy conservation" metrics.fuzzy_queries
        (metrics.fuzzy_resolved + metrics.fuzzy_empty + metrics.fuzzy_rejected + metrics.fuzzy_shed))

let test_daemon_replay () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  with_server index (fun addr _engine ->
      let workload = Workload.zipf ~unknown_fraction:0.25 (Rng.create 11) ~n ~count:400 in
      let path = Filename.temp_file "eppi-replay" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          output_string oc (Workload.to_csv_log workload);
          close_out oc;
          let loaded = Replay.load path in
          check_bool "log round-trips" true (loaded = workload);
          let c = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let summary = Replay.run ~depth:7 (Client.pipeline c) loaded in
              check_int "requests" 400 summary.requests;
              check_int "conservation" 400 (summary.served + summary.unknown + summary.shed);
              let expected_unknown =
                Array.fold_left (fun acc o -> if o >= n then acc + 1 else acc) 0 workload
              in
              check_int "unknown count" expected_unknown summary.unknown;
              check_int "nothing shed" 0 summary.shed;
              check_int "first generation" 1 summary.first_generation;
              check_int "last generation" 1 summary.last_generation;
              check_bool "wall clock sane" true (summary.wall_seconds >= 0.0))))

let test_replay_load_jsonl () =
  let path = Filename.temp_file "eppi-replay" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"ts\": 1, \"owner\": 4}\n\n{\"owner\": -2, \"tag\": \"x\"}\n";
      close_out oc;
      check_bool "jsonl log loads" true (Replay.load path = [| 4; -2 |]))

let test_daemon_shutdown () =
  let index = test_index ~n:8 ~m:5 in
  with_server index (fun addr _engine ->
      let c = Client.connect addr in
      Client.ping c;
      Client.shutdown c;
      Client.close c;
      let rec wait_dead attempts =
        if attempts = 0 then Alcotest.fail "server still accepting after shutdown"
        else
          match Client.connect addr with
          | c2 ->
              Client.close c2;
              Unix.sleepf 0.01;
              wait_dead (attempts - 1)
          | exception Unix.Unix_error _ -> ()
      in
      wait_dead 200)

let test_listen_stale_and_occupied () =
  let path = sock_path () in
  let l1 = Server.listen (Addr.Unix_socket path) in
  Unix.close l1;
  (* The socket file survives a dead server; a new listen reclaims it. *)
  check_bool "stale socket file exists" true (Sys.file_exists path);
  let l2 = Server.listen (Addr.Unix_socket path) in
  Unix.close l2;
  Sys.remove path;
  let oc = open_out path in
  output_string oc "not a socket";
  close_out oc;
  (match Server.listen (Addr.Unix_socket path) with
  | exception Failure _ -> ()
  | fd ->
      Unix.close fd;
      Alcotest.fail "listening over a regular file must fail");
  Sys.remove path

(* ---------- Raw streams ---------- *)

(* The daemon's loop seen from outside any client: frames written to a
   descriptor, every response read back up to EOF. *)

let frames_of requests =
  let b = Buffer.create 1024 in
  List.iter (Wire.encode_request b) requests;
  Buffer.contents b

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Read responses from [fd] until [count] have arrived or, without a
   count, until EOF — the daemon closing its end.  Ten seconds without a
   byte fails instead of hanging the suite. *)
let read_responses ?count fd =
  let d = Wire.Decoder.create () in
  let buf = Bytes.create 65536 in
  let rec go acc =
    match Wire.Decoder.next d with
    | Ok (Some (Wire.Response r)) -> go (r :: acc)
    | Ok (Some (Wire.Request _)) -> Alcotest.fail "the daemon sent a request frame"
    | Error e -> Alcotest.fail (Wire.error_to_string e)
    | Ok None when Some (List.length acc) = count -> List.rev acc
    | Ok None -> (
        match Unix.select [ fd ] [] [] 10.0 with
        | [], _, _ -> Alcotest.fail "no byte for 10 s"
        | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 ->
                check_bool "EOF only after whole frames" true (Wire.Decoder.buffered d = 0);
                List.rev acc
            | n ->
                Wire.Decoder.feed d buf ~off:0 ~len:n;
                go acc))
  in
  go []

let with_raw_socket addr f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Addr.sockaddr addr);
      f fd)

(* Replies that must answer [owners] in order from generation 1 of [index]. *)
let count_wrong_replies index owners responses =
  let n = Eppi.Index.owners index in
  List.fold_left2
    (fun wrong owner response ->
      let expected =
        if owner < n then Serve.Providers (Eppi.Index.query index ~owner) else Serve.Unknown_owner
      in
      match response with
      | Wire.Reply { generation = 1; reply } when reply = expected -> wrong
      | _ -> wrong + 1)
    0 owners responses

(* A client that pipelines its queries and then half-closes its socket
   is still owed every reply: EOF stops the daemon's reads, not its
   service.  3,000 queries run past [max_inflight] (1,024), so part of
   the stream is still buffered in the decoder when EOF arrives.  The
   client pauses before reading, so the replies to 30,000, which outgrow
   the socket buffers, still wait in the daemon's write buffer then. *)
let daemon_half_closed ~workers () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  with_server ~shards:4 ~workers index (fun addr _engine ->
      List.iter
        (fun count ->
          with_raw_socket addr (fun fd ->
              let owners = List.init count (fun i -> i mod (n + 3)) in
              write_all fd (frames_of (List.map (fun owner -> Wire.Query { owner }) owners)) 0;
              Unix.shutdown fd Unix.SHUTDOWN_SEND;
              Unix.sleepf 0.1;
              let responses = read_responses fd in
              check_int (Printf.sprintf "%d pipelined: every reply" count) count
                (List.length responses);
              check_int (Printf.sprintf "%d pipelined: replies in request order" count) 0
                (count_wrong_replies index owners responses)))
        [ 100; 3000; 30_000 ])

(* A client that pipelines thousands of queries over wide rows and reads
   the replies 1 KiB at a time with a pause after each read: the socket
   buffer drains a little at a time, so the daemon writes its buffered
   replies in many partial writes, each resuming mid-frame.  Each burst
   of queries is sent once a quarter of the previous burst's replies has
   arrived, so new replies are appended behind bytes not yet written.
   Every reply must arrive intact and in request order. *)
let daemon_slow_reader ~workers () =
  let n = 64 and m = 512 in
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for p = 0 to m - 1 do
      if (j + p) mod 3 <> 0 then Bitmatrix.set matrix ~row:j ~col:p true
    done
  done;
  let index = Eppi.Index.of_matrix matrix in
  let burst = 1_000 in
  let bursts =
    List.init 4 (fun k -> List.init burst (fun i -> ((k * burst) + i) * 7 mod (n + 2)))
  in
  with_server ~shards:4 ~workers index (fun addr _engine ->
      with_raw_socket addr (fun fd ->
          let decoder = Wire.Decoder.create () and buf = Bytes.create 1024 in
          let received = ref [] and got = ref 0 in
          let read_until total =
            while !got < total do
              match Wire.Decoder.next decoder with
              | Ok (Some (Wire.Response r)) ->
                  received := r :: !received;
                  incr got
              | Ok (Some (Wire.Request _)) -> Alcotest.fail "the daemon sent a request frame"
              | Error e -> Alcotest.fail (Wire.error_to_string e)
              | Ok None -> (
                  match Unix.select [ fd ] [] [] 10.0 with
                  | [], _, _ -> Alcotest.fail "no byte for 10 s"
                  | _ -> (
                      match Unix.read fd buf 0 (Bytes.length buf) with
                      | 0 -> Alcotest.fail "EOF before every reply"
                      | k ->
                          Wire.Decoder.feed decoder buf ~off:0 ~len:k;
                          Unix.sleepf 1e-4))
            done
          in
          List.iteri
            (fun k owners ->
              write_all fd (frames_of (List.map (fun owner -> Wire.Query { owner }) owners)) 0;
              read_until ((k * burst) + (burst / 4)))
            bursts;
          read_until (4 * burst);
          check_int "replies intact and in request order" 0
            (count_wrong_replies index (List.concat bursts) (List.rev !received))))

(* An old client's Batch (tag 0x02) or CSV republish (tag 0x05) is a
   framing error: the daemon answers [Server_error], closes that
   connection and keeps its index and its other clients. *)
let test_daemon_retired_tag ~workers () =
  let index = test_index ~n:8 ~m:5 in
  with_server ~shards:workers ~workers index (fun addr engine ->
      List.iter
        (fun (tag, payload) ->
          with_raw_socket addr (fun fd ->
              write_all fd (header ~tag ~len:(String.length payload) ^ payload) 0;
              match read_responses fd with
              | [ Wire.Server_error msg ] ->
                  check_bool "error names the tag" true
                    (contains msg (Printf.sprintf "tag 0x%02X" tag))
              | responses ->
                  Alcotest.fail
                    (Printf.sprintf "tag 0x%02X: expected one Server_error, got %d frames" tag
                       (List.length responses))))
        [ (0x02, "\x04\x06\x08"); (0x05, "") ];
      check_int "generation untouched" 1 (Serve.generation engine);
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.ping c;
          let _, reply = Client.query c ~owner:3 in
          check_bool "other clients still served" true
            (reply = Serve.Providers (Eppi.Index.query index ~owner:3))))

(* The CLI built beside this test: [dune runtest] and [dune exec] both
   run the test from _build/default/test. *)
let eppi_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/eppi_cli.exe"

(* [eppi serve --stdio] runs the daemon's one loop over stdin and stdout:
   queries and an audit piped in and answered in order, then a telemetry
   request that accounts for all of them, then EOF on stdin, and the
   process exits 0. *)
let stdio_daemon ~domains () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n = 20 and m = 9 in
  let index = test_index ~n ~m in
  let path = Filename.temp_file "eppi-stdio" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (Eppi.Index.to_csv index));
      let in_r, in_w = Unix.pipe ~cloexec:true () in
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
      let argv =
        [| eppi_exe; "serve"; "-i"; path; "--stdio"; "--shards"; "4"; "--domains";
           string_of_int domains |]
      in
      let pid = Unix.create_process eppi_exe argv in_r out_w null in
      List.iter Unix.close [ in_r; out_w; null ];
      let owners = List.init 50 (fun i -> i mod (n + 2)) in
      let responses, telemetry =
        Fun.protect
          ~finally:(fun () -> Unix.close out_r)
          (fun () ->
            write_all in_w
              (frames_of
                 (List.map (fun owner -> Wire.Query { owner }) owners
                 @ [ Wire.Audit { provider = 3 } ]))
              0;
            let responses = read_responses ~count:51 out_r in
            write_all in_w (frames_of [ Wire.Telemetry ]) 0;
            Unix.close in_w;
            (responses, read_responses out_r))
      in
      check_bool "exit status 0" true (snd (Unix.waitpid [] pid) = Unix.WEXITED 0);
      let queries = List.filteri (fun i _ -> i < 50) responses in
      check_int "query replies in order" 0 (count_wrong_replies index owners queries);
      (match List.nth responses 50 with
      | Wire.Audit_reply { generation = 1; owners } ->
          check_bool "audit reply" true
            (owners = Serve.audit (Serve.create index) ~provider:3)
      | other -> Client.unexpected "stdio audit" other);
      match telemetry with
      | [ Wire.Telemetry_json raw ] ->
          let v = Json.parse_exn raw in
          check_bool "telemetry accounts for every earlier request" true
            (Json.find_int v [ "requests" ] = Some 51);
          check_bool "telemetry conservation is exact" true
            (Json.find v [ "conservation"; "exact" ] = Some (Json.Bool true)
            && Json.find_int v [ "conservation"; "stage_sum_ns" ]
               = Json.find_int v [ "conservation"; "total_ns" ]);
          check_int "one worker entry per --domains domain"
            (if domains > 1 then domains else 0)
            (match Json.find v [ "workers" ] with Some (Json.List ws) -> List.length ws | _ -> -1)
      | _ -> Alcotest.fail "stdio: expected one telemetry reply before EOF")

(* ---------- Client robustness ---------- *)

let test_client_request_timeout () =
  (* A listener that accepts the connection (the kernel does that for us via
     the backlog) but never reads or responds: the call must come back as
     Timed_out instead of hanging, and the connection must survive. *)
  let path = sock_path () in
  let listener = Server.listen (Addr.Unix_socket path) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Client.connect ~request_timeout:0.2 (Addr.Unix_socket path) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          (match Client.call_result c Wire.Ping with
          | Error Client.Timed_out -> ()
          | Ok _ -> Alcotest.fail "silent server must not answer"
          | Error (Client.Connection_lost m) -> Alcotest.fail ("lost, not timed out: " ^ m));
          let elapsed = Unix.gettimeofday () -. t0 in
          check_bool "timed out promptly" true (elapsed >= 0.19 && elapsed < 5.0);
          match Client.call c Wire.Ping with
          | exception Client.Protocol_error msg ->
              check_bool "call surfaces the timeout" true (contains msg "timed out")
          | _ -> Alcotest.fail "call must also time out"))

let test_client_reconnects_across_restart () =
  (* Kill the daemon under an established client, start a fresh one on the
     same socket path: with [reconnect] the next call must transparently
     land on the new server. *)
  let index = test_index ~n:8 ~m:5 in
  let path = sock_path () in
  let addr = Addr.Unix_socket path in
  let start () =
    let engine = Serve.create index in
    let server = Server.create engine in
    let listener = Server.listen addr in
    Domain.spawn (fun () -> Server.run server listener)
  in
  let stop daemon =
    (try
       let c = Client.connect addr in
       (try Client.shutdown c with _ -> ());
       Client.close c
     with _ -> ());
    Domain.join daemon
  in
  let daemon1 = start () in
  let c = Client.connect ~reconnect:true ~max_reconnects:40 ~retry_delay:0.02 addr in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Client.ping c;
      stop daemon1;
      let daemon2 = start () in
      Fun.protect
        ~finally:(fun () -> stop daemon2)
        (fun () ->
          (* The old socket is dead; the client must notice mid-call and
             re-dial. *)
          Client.ping c;
          let generation, reply = Client.query c ~owner:3 in
          check_int "served by the restarted daemon" 1 generation;
          check_bool "reply intact after reconnect" true
            (reply = Serve.Providers (Eppi.Index.query index ~owner:3))))

let test_client_connection_lost_when_gone_for_good () =
  (* Server dies and never comes back: reconnect attempts must exhaust and
     surface a typed Connection_lost, not spin forever. *)
  let index = test_index ~n:8 ~m:5 in
  let path = sock_path () in
  let addr = Addr.Unix_socket path in
  let engine = Serve.create index in
  let server = Server.create engine in
  let listener = Server.listen addr in
  let daemon = Domain.spawn (fun () -> Server.run server listener) in
  let c = Client.connect ~reconnect:true ~max_reconnects:2 ~retry_delay:0.01 addr in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Client.ping c;
      Client.shutdown c;
      Domain.join daemon;
      (try Sys.remove path with Sys_error _ -> ());
      match Client.call_result c Wire.Ping with
      | Error (Client.Connection_lost _) -> ()
      | Ok _ -> Alcotest.fail "dead server must not answer"
      | Error Client.Timed_out -> Alcotest.fail "expected connection loss, got timeout")

(* ---------- Properties ---------- *)

(* ---- live telemetry ---- *)

(* Drive a mixed load through the daemon, then take it apart via the
   Telemetry wire command: the stage decomposition must conserve exactly
   (stages are telescoping differences of one clock, so the integer sums
   are equal, not merely close), the rolling window must have seen the
   load, and both ops replies must carry the per-worker counters. *)
let daemon_telemetry ~shards ~workers () =
  let n = 20 and m = 9 in
  let index = test_index ~n ~m in
  with_server ~shards ~workers index (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for owner = 0 to n - 1 do
            ignore (Client.query c ~owner)
          done;
          ignore (Client.audit c ~provider:2);
          Client.ping c;
          let raw = Client.telemetry_json c in
          let v =
            match Json.parse raw with
            | Ok v -> v
            | Error e -> Alcotest.fail ("telemetry reply is not JSON: " ^ e)
          in
          let geti path =
            match Json.find_int v path with
            | Some x -> x
            | None -> Alcotest.fail ("telemetry reply lacks " ^ String.concat "." path)
          in
          check_bool "requests recorded" true (geti [ "requests" ] >= n + 2);
          check_int "conservation is exact"
            (geti [ "conservation"; "total_ns" ])
            (geti [ "conservation"; "stage_sum_ns" ]);
          check_bool "conservation flagged exact" true
            (Json.find v [ "conservation"; "exact" ] = Some (Json.Bool true));
          check_bool "window saw the queries" true (geti [ "window"; "query"; "count" ] >= n);
          check_bool "window saw the audit" true (geti [ "window"; "audit"; "count" ] >= 1);
          check_bool "window query rate positive" true
            (match Json.find_num v [ "window"; "query"; "rate" ] with
            | Some r -> r > 0.0
            | None -> false);
          let finished = geti [ "stages"; "total"; "count" ] in
          check_bool "stage totals populated" true (finished >= n + 2);
          (* Every finished request passes through every stage exactly
             once — the per-stage counts all agree. *)
          List.iter
            (fun st ->
              check_int (st ^ " counts every request") finished (geti [ "stages"; st; "count" ]))
            [ "decode"; "dispatch"; "queue"; "execute"; "reorder"; "flush" ];
          (* An inline daemon runs the handler on the mux: no dispatch, no
             queue, so all handler time lands in execute. *)
          if workers = 1 then
            List.iter
              (fun st ->
                check_int (st ^ " is zero-width inline") 0 (geti [ "stages"; st; "sum_ns" ]))
              [ "dispatch"; "queue" ];
          (match Json.find v [ "workers" ] with
          | Some (Json.List ws) ->
              check_int "one entry per worker domain" (if workers > 1 then workers else 0)
                (List.length ws)
          | _ -> Alcotest.fail "telemetry reply lacks workers");
          (match Json.find v [ "slow" ] with
          | Some (Json.List (s :: _)) ->
              check_bool "slow entry conserves too" true
                (match Json.find_int s [ "total_ns" ] with
                | Some total ->
                    total
                    = List.fold_left
                        (fun acc k ->
                          acc + Option.value ~default:0 (Json.find_int s [ k ^ "_ns" ]))
                        0
                        [ "decode"; "dispatch"; "queue"; "execute"; "reorder"; "flush" ]
                | None -> false)
          | _ -> Alcotest.fail "slow ring is empty after load");
          (* The Stats reply carries the worker counters and the trace
             session's drop count on top of the engine metrics. *)
          let stats =
            match Json.parse (Client.stats_json c) with
            | Ok v -> v
            | Error e -> Alcotest.fail ("stats reply is not JSON: " ^ e)
          in
          check_bool "stats still counts queries" true
            (Json.find_int stats [ "queries" ] <> None);
          check_bool "stats carries trace_dropped" true
            (Json.find_int stats [ "trace_dropped" ] = Some 0);
          match Json.find stats [ "workers" ] with
          | Some (Json.List ws) ->
              check_int "stats workers match pool" (if workers > 1 then workers else 0)
                (List.length ws);
              if workers > 1 then
                check_bool "workers served the load" true
                  (List.fold_left
                     (fun acc w -> acc + Option.value ~default:0 (Json.find_int w [ "served" ]))
                     0 ws
                  > 0)
          | _ -> Alcotest.fail "stats reply lacks workers"))

(* ---------- reply schemas ---------- *)

(* One line per leaf of a parsed reply, in document order: "path=value",
   list elements by index, integral numbers exactly and other numbers at
   three significant digits (the pins below were taken from replies that
   printed fixed decimals, so more digits would not be comparable). *)
let leaves v =
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let rec go prefix v acc =
    match v with
    | Json.Obj fields -> List.fold_left (fun acc (k, v) -> go (join prefix k) v acc) acc fields
    | Json.List [] -> (prefix ^ "=[]") :: acc
    | Json.List items ->
        snd
          (List.fold_left
             (fun (i, acc) v -> (i + 1, go (join prefix (string_of_int i)) v acc))
             (0, acc) items)
    | Json.Num f when Float.is_integer f -> Printf.sprintf "%s=%.0f" prefix f :: acc
    | Json.Num f -> Printf.sprintf "%s=%.3g" prefix f :: acc
    | Json.Bool b -> Printf.sprintf "%s=%b" prefix b :: acc
    | Json.Str s -> Printf.sprintf "%s=%S" prefix s :: acc
    | Json.Null -> (prefix ^ "=null") :: acc
  in
  List.rev (go "" v [])

(* Leaf paths with list indices collapsed to "*", first occurrence kept. *)
let shape lines =
  let path line =
    List.hd (String.split_on_char '=' line)
    |> String.split_on_char '.'
    |> List.map (fun k -> if int_of_string_opt k <> None then "*" else k)
    |> String.concat "."
  in
  List.fold_left (fun acc p -> if List.mem p acc then acc else acc @ [ p ]) [] (List.map path lines)

(* A fixed engine state: two shards' metrics and a telemetry store fed
   eight hand-stamped requests (one per class, three queries), its slow
   ring cut to two entries. *)
let fixture_metrics () =
  let module Metrics = Eppi_serve.Metrics in
  let a = Metrics.create () and b = Metrics.create () in
  let times k f = for _ = 1 to k do f () done in
  times 7 (fun () -> Metrics.incr_queries a);
  times 4 (fun () -> Metrics.incr_served a);
  Metrics.incr_unknown a;
  Metrics.incr_queries b;
  Metrics.incr_shed_rate b;
  Metrics.incr_audits b;
  times 5 (fun () -> Metrics.incr_fuzzy a);
  times 2 (fun () -> Metrics.incr_fuzzy_resolved a);
  Metrics.incr_fuzzy_empty a;
  Metrics.incr_fuzzy_rejected a;
  Metrics.incr_fuzzy_shed a;
  Metrics.add_fuzzy_scanned a 40;
  Metrics.record_latency a 2e-6;
  Metrics.record_latency a 3e-6;
  Metrics.record_latency b 1.5e-3;
  Metrics.snapshot ~generation:3 [ a; b ]

let fixture_base_ns = 1_000_000_000_000

let fixture_telemetry () =
  let t = Telemetry.create ~slow_slots:2 () in
  let feed ~kind ~trace_id ~after_ms stages =
    let stage i = List.nth stages i in
    let at = fixture_base_ns + (after_ms * 1_000_000) in
    let r = Telemetry.make ~kind ~trace_id ~t_read:at ~t_decoded:(at + stage 0) in
    r.t_dispatched <- r.t_decoded + stage 1;
    r.t_started <- r.t_dispatched + stage 2;
    r.t_done <- r.t_started + stage 3;
    r.t_flushed <- r.t_done + stage 4;
    Telemetry.finish t r ~t_written:(r.t_flushed + stage 5)
  in
  feed ~kind:1 ~trace_id:(-1) ~after_ms:0 [ 1_500; 250; 4_000; 12_000; 800; 3_000 ];
  feed ~kind:1 ~trace_id:7 ~after_ms:100 [ 1_200; 300; 2_000; 9_000; 400; 2_500 ];
  feed ~kind:1 ~trace_id:(-1) ~after_ms:300 [ 900; 200; 1_000; 7_000; 300; 2_000 ];
  feed ~kind:1 ~trace_id:(-1) ~after_ms:500 [ 2_500; 600; 8_000; 40_000; 1_200; 5_000 ];
  feed ~kind:9 ~trace_id:12 ~after_ms:700 [ 3_000; 400; 6_000; 90_000; 700; 4_000 ];
  feed ~kind:3 ~trace_id:(-1) ~after_ms:900 [ 1_100; 150; 0; 20_000; 0; 2_200 ];
  feed ~kind:8 ~trace_id:(-1) ~after_ms:1_100 [ 50_000; 500; 10_000; 2_000_000; 900; 6_000 ];
  feed ~kind:4 ~trace_id:(-1) ~after_ms:1_500 [ 800; 0; 0; 30_000; 0; 1_800 ];
  t

(* The fixture's replies, pinned: every key path, in order, and every
   integer.  A change to how the replies are rendered must keep them. *)
let pinned_metrics =
  [ "queries=8"; "served=4"; "unknown=1"; "shed_rate=1"; "shed_queue=0"; "audits=1";
    "generation=3"; "swaps=2"; "fuzzy_queries=5"; "fuzzy_resolved=2"; "fuzzy_empty=1";
    "fuzzy_rejected=1"; "fuzzy_shed=1"; "fuzzy_scanned=40"; "latency_count=3";
    "latency_mean_s=0.000502"; "p50_s=2.9e-06"; "p95_s=0.00148"; "p99_s=0.00148" ]

let pinned_telemetry =
  [ "requests=8"; "window.span_s=10"; "window.query.count=4"; "window.query.rate=0.4";
    "window.query.mean_s=2.64e-05"; "window.query.p50_s=1.16e-05"; "window.query.p99_s=4.63e-05";
    "window.fuzzy.count=1"; "window.fuzzy.rate=0.1"; "window.fuzzy.mean_s=0.000104";
    "window.fuzzy.p50_s=9.27e-05"; "window.fuzzy.p99_s=9.27e-05"; "window.audit.count=1";
    "window.audit.rate=0.1";
    "window.audit.mean_s=2.35e-05"; "window.audit.p50_s=2.32e-05"; "window.audit.p99_s=2.32e-05";
    "window.republish.count=1"; "window.republish.rate=0.1"; "window.republish.mean_s=0.00207";
    "window.republish.p50_s=0.00148"; "window.republish.p99_s=0.00148"; "window.admin.count=1";
    "window.admin.rate=0.1"; "window.admin.mean_s=3.26e-05"; "window.admin.p50_s=2.32e-05";
    "window.admin.p99_s=2.32e-05"; "stages.decode.count=8"; "stages.decode.sum_ns=61000";
    "stages.decode.mean_s=7.62e-06"; "stages.decode.p50_s=1.45e-06";
    "stages.decode.p99_s=4.63e-05"; "stages.dispatch.count=8"; "stages.dispatch.sum_ns=2400";
    "stages.dispatch.mean_s=3e-07"; "stages.dispatch.p50_s=1.81e-07";
    "stages.dispatch.p99_s=7.24e-07"; "stages.queue.count=8"; "stages.queue.sum_ns=31000";
    "stages.queue.mean_s=3.88e-06"; "stages.queue.p50_s=1.45e-06"; "stages.queue.p99_s=1.16e-05";
    "stages.execute.count=8"; "stages.execute.sum_ns=2208000"; "stages.execute.mean_s=0.000276";
    "stages.execute.p50_s=2.32e-05"; "stages.execute.p99_s=0.00148"; "stages.reorder.count=8";
    "stages.reorder.sum_ns=4300"; "stages.reorder.mean_s=5.38e-07";
    "stages.reorder.p50_s=3.62e-07"; "stages.reorder.p99_s=1.45e-06"; "stages.flush.count=8";
    "stages.flush.sum_ns=26500"; "stages.flush.mean_s=3.31e-06"; "stages.flush.p50_s=2.9e-06";
    "stages.flush.p99_s=5.79e-06"; "stages.total.count=8"; "stages.total.mean_s=0.000292";
    "stages.total.p50_s=2.32e-05"; "stages.total.p99_s=0.00148"; "stages.sum_ns=2333200";
    "conservation.stage_sum_ns=2333200"; "conservation.total_ns=2333200";
    "conservation.exact=true"; "slow.0.kind=\"republish_binary\""; "slow.0.trace_id=-1";
    "slow.0.total_ns=2067400"; "slow.0.decode_ns=50000"; "slow.0.dispatch_ns=500";
    "slow.0.queue_ns=10000"; "slow.0.execute_ns=2000000"; "slow.0.reorder_ns=900";
    "slow.0.flush_ns=6000"; "slow.1.kind=\"fuzzy\""; "slow.1.trace_id=12";
    "slow.1.total_ns=104100"; "slow.1.decode_ns=3000"; "slow.1.dispatch_ns=400";
    "slow.1.queue_ns=6000"; "slow.1.execute_ns=90000"; "slow.1.reorder_ns=700";
    "slow.1.flush_ns=4000" ]

(* The pinned fixture renders field for field; the live replies of a
   2-worker daemon carry the same fields followed by the server's own,
   with the server's values fixed for an untraced, never-republished
   daemon. *)
let test_reply_schemas () =
  let check = Alcotest.(check (list string)) in
  check "stats fields" pinned_metrics
    (leaves (Json.parse_exn (Eppi_serve.Metrics.to_json (fixture_metrics ()))));
  check "telemetry fields" pinned_telemetry
    (leaves
       (Json.parse_exn
          (Json.to_string
             (Telemetry.json (fixture_telemetry ()) ~now_ns:(fixture_base_ns + 2_000_000_000)))));
  let workers =
    [ "workers.*.id"; "workers.*.queue_depth"; "workers.*.busy_us"; "workers.*.served" ]
  in
  let n = 20 in
  with_server ~shards:2 ~workers:2 (test_index ~n ~m:9) (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for i = 0 to 39 do
            ignore (Client.query c ~owner:(i mod (n + 2)))
          done;
          let stats = leaves (Json.parse_exn (Client.stats_json c)) in
          let telemetry = leaves (Json.parse_exn (Client.telemetry_json c)) in
          check "stats reply shape"
            (shape pinned_metrics @ workers @ [ "trace_dropped" ])
            (shape stats);
          check "telemetry reply shape"
            (shape pinned_telemetry @ workers
            @ [ "generation"; "swaps"; "trace.enabled"; "trace.dropped"; "telemetry_enabled" ])
            (shape telemetry);
          let has line reply = check_bool line true (List.mem line reply) in
          List.iter
            (fun l -> has l stats)
            [ "workers.0.id=0"; "workers.1.id=1"; "trace_dropped=0" ];
          List.iter
            (fun l -> has l telemetry)
            [
              "generation=1";
              "swaps=0";
              "trace.enabled=false";
              "trace.dropped=0";
              "telemetry_enabled=true";
            ]))

(* A trace id minted by the client must label spans on BOTH sides of the
   socket: the client's [client.request] span and the daemon's
   [net.request] span (recorded on a different domain, hence a different
   track) carry the same id, and the Chrome export contains both.  A Ping,
   which the mux answers itself, gets its [net.request] span too. *)
let test_trace_propagation () =
  let index = test_index ~n:10 ~m:5 in
  Eppi_obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () -> Eppi_obs.Trace.reset ())
    (fun () ->
      with_server ~shards:2 ~workers:2 index (fun addr _engine ->
          let c = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              ignore (Client.query c ~owner:3);
              Client.ping c));
      Eppi_obs.Trace.disable ();
      let tracks = Eppi_obs.Trace.tracks () in
      let ends_named name =
        List.concat_map
          (fun tr ->
            List.filter_map
              (fun (e : Eppi_obs.Trace.event) ->
                if e.kind = Eppi_obs.Trace.Span_end && e.name = name then
                  match List.assoc_opt "trace_id" e.args with
                  | Some id -> Some (tr.Eppi_obs.Trace.track_label, id)
                  | None -> None
                else None)
              tr.Eppi_obs.Trace.track_events)
          tracks
      in
      let client_spans = ends_named "client.request" in
      let server_spans = ends_named "net.request" in
      check_bool "client recorded a traced span" true (client_spans <> []);
      check_bool "server recorded a traced span" true (server_spans <> []);
      let _, id = List.hd client_spans in
      check_bool "trace id is non-negative" true (id >= 0);
      check_bool "the mux-answered ping has its span" true
        (List.exists
           (fun tr ->
             List.exists
               (fun (e : Eppi_obs.Trace.event) ->
                 e.kind = Eppi_obs.Trace.Span_end && e.name = "net.request"
                 && List.assoc_opt "tag" e.args = Some (Wire.request_tag Wire.Ping))
               tr.Eppi_obs.Trace.track_events)
           tracks);
      check_bool "same id on a server span" true (List.exists (fun (_, i) -> i = id) server_spans);
      check_bool "client and server spans sit on different tracks" true
        (List.exists
           (fun (server_track, i) ->
             i = id && List.for_all (fun (client_track, _) -> client_track <> server_track) client_spans)
           server_spans);
      (* And the joined trace survives the Chrome export. *)
      let tmp = Filename.temp_file "eppi-trace" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          Eppi_obs.Chrome.write tmp;
          let ic = open_in_bin tmp in
          let body =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          check_bool "export has the client span" true (contains body "client.request");
          check_bool "export has the server span" true (contains body "net.request");
          check_bool "export carries the id twice" true
            (let needle = Printf.sprintf "\"trace_id\":%d" id in
             let rec count i acc =
               if i + String.length needle > String.length body then acc
               else if String.sub body i (String.length needle) = needle then
                 count (i + 1) (acc + 1)
               else count (i + 1) acc
             in
             count 0 0 >= 2)))

let qcheck_tests =
  let open QCheck in
  let gen_owner =
    Gen.oneof [ Gen.small_nat; Gen.int; Gen.map (fun k -> -k) Gen.small_nat ]
  in
  let gen_reply =
    Gen.oneof
      [
        Gen.map (fun ids -> Serve.Providers ids) (Gen.small_list Gen.nat);
        Gen.return Serve.Unknown_owner;
        Gen.return Serve.Shed_rate_limit;
        Gen.return Serve.Shed_queue_full;
      ]
  in
  (* Fuzzy probes are generated through the real encoder over random
     demographics and filter geometries, so every generated probe is
     wire-legal by construction (ascending sparse indexes within bits). *)
  let gen_demographic =
    let open Gen in
    let name = string_size ~gen:printable (int_range 0 8) in
    let dob =
      oneof
        [
          return (0, 0, 0);
          map
            (fun (y, m, d) -> (1900 + y, 1 + m, 1 + d))
            (triple (int_range 0 120) (int_range 0 11) (int_range 0 27));
        ]
    in
    map
      (fun (first, last, dob, zip) -> { Demographic.first; last; dob; zip; gender = Other })
      (quad name name dob name)
  in
  let gen_probe =
    Gen.map
      (fun (seed, bits, hashes, person) ->
        Probe.of_demographic (Bloom.keyed ~seed ~bits ~hashes ()) person)
      Gen.(quad nat (int_range 8 512) (int_range 1 8) gen_demographic)
  in
  let gen_plain_request =
    Gen.oneof
      [
        Gen.map (fun owner -> Wire.Query { owner }) gen_owner;
        Gen.map (fun provider -> Wire.Audit { provider }) Gen.nat;
        Gen.return Wire.Stats;
        Gen.map (fun s -> Wire.Republish_binary { data = s }) Gen.(small_string ~gen:char);
        Gen.map2 (fun probe k -> Wire.Query_fuzzy { probe; k }) gen_probe (Gen.int_range 1 2000);
        Gen.return Wire.Ping;
        Gen.return Wire.Shutdown;
        Gen.return Wire.Telemetry;
        Gen.return Wire.Cluster_status;
      ]
  in
  (* Any plain request may arrive inside a trace envelope; the envelope
     never nests, which the generator respects by construction. *)
  let gen_request =
    Gen.oneof
      [
        gen_plain_request;
        Gen.map2 (fun trace_id request -> Wire.Traced { trace_id; request }) Gen.nat
          gen_plain_request;
      ]
  in
  (* Scores on the wire are basis points; quantized floats round-trip
     bit-exactly. *)
  let gen_candidate =
    Gen.map
      (fun (owner, bp, providers) ->
        { Serve.owner; score = float_of_int bp /. 10000.0; providers })
      Gen.(triple nat (int_range 0 10_000) (small_list nat))
  in
  let gen_fuzzy_result =
    Gen.oneof
      [
        Gen.map (fun cs -> Serve.Candidates cs) (Gen.small_list gen_candidate);
        Gen.return Serve.No_resolver;
        Gen.return Serve.Probe_mismatch;
        Gen.return Serve.Fuzzy_shed;
      ]
  in
  let gen_response =
    Gen.oneof
      [
        Gen.map2 (fun generation reply -> Wire.Reply { generation; reply }) Gen.nat gen_reply;
        Gen.map2
          (fun generation owners -> Wire.Audit_reply { generation; owners })
          Gen.nat
          (Gen.option (Gen.small_list Gen.nat));
        Gen.map (fun s -> Wire.Stats_json s) Gen.(small_string ~gen:printable);
        Gen.map (fun generation -> Wire.Republished { generation }) Gen.nat;
        Gen.map2
          (fun generation result -> Wire.Fuzzy_reply { generation; result })
          Gen.nat gen_fuzzy_result;
        Gen.return Wire.Pong;
        Gen.return Wire.Shutting_down;
        Gen.map (fun s -> Wire.Server_error s) Gen.(small_string ~gen:printable);
        Gen.map
          (fun (generation, swaps, peers) ->
            Wire.Cluster_status_reply { generation; swaps; peers })
          Gen.(
            triple nat nat
              (list_size (int_range 0 8) (small_string ~gen:printable)));
      ]
  in
  let gen_frame =
    Gen.oneof
      [ Gen.map (fun r -> Wire.Request r) gen_request; Gen.map (fun r -> Wire.Response r) gen_response ]
  in
  [
    Test.make ~name:"any frame stream round-trips under any chunking" ~count:200
      (make Gen.(pair (list_size (int_range 0 5) gen_frame) (int_range 1 17)))
      (fun (frames, chunk) ->
        let stream = String.concat "" (List.map Wire.frame_to_string frames) in
        decode_chunked ~chunk stream = Ok (frames, 0));
    Test.make ~name:"index codec round-trips any matrix" ~count:200
      (make Gen.(quad (int_range 1 30) (int_range 1 50) (int_range 0 100) (int_range 0 10000)))
      (fun (n, m, density, seed) ->
        let rng = Rng.create seed in
        let matrix = Bitmatrix.create ~rows:n ~cols:m in
        for j = 0 to n - 1 do
          for p = 0 to m - 1 do
            if Rng.int rng 100 < density then Bitmatrix.set matrix ~row:j ~col:p true
          done
        done;
        let index = Eppi.Index.of_matrix matrix in
        match Index_codec.decode (Index_codec.encode index) with
        | Ok decoded -> matrices_equal index decoded
        | Error _ -> false);
    Test.make ~name:"index codec decode is total on junk" ~count:500
      (make Gen.(small_string ~gen:char))
      (fun junk ->
        (* Version-byte prefix steers the fuzz past the cheapest reject. *)
        List.for_all
          (fun payload -> match Index_codec.decode payload with Ok _ | Error _ -> true)
          [ junk; "\x01" ^ junk ]);
  ]

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "round-trips every frame type" `Quick test_codec_roundtrip;
          Alcotest.test_case "split-read reassembly" `Quick test_codec_split_reads;
          Alcotest.test_case "partial frame wants more bytes" `Quick test_codec_partial_frame;
          Alcotest.test_case "typed decode errors" `Quick test_codec_errors;
          Alcotest.test_case "poisoned decoder stays poisoned" `Quick test_codec_poisoned_decoder;
        ] );
      ("addr", [ Alcotest.test_case "parse and print" `Quick test_addr ]);
      ( "index codec",
        [
          Alcotest.test_case "round-trips" `Quick test_index_codec_roundtrip;
          Alcotest.test_case "every truncation rejected" `Quick test_index_codec_truncation;
          Alcotest.test_case "wrong version rejected" `Quick test_index_codec_wrong_version;
          Alcotest.test_case "malformed payloads rejected" `Quick test_index_codec_malformed;
          Alcotest.test_case "hostile dimensions rejected before allocation" `Quick
            test_index_codec_hostile_dims;
          Alcotest.test_case "single-byte mutations never crash" `Quick
            test_index_codec_mutation_fuzz;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "query, pipeline, audit, stats" `Quick
            (daemon_basics ~shards:1 ~workers:1);
          Alcotest.test_case "rate limit sheds per shard" `Quick (daemon_admission ~workers:1);
          Alcotest.test_case "hot-swap republish" `Quick test_daemon_republish;
          Alcotest.test_case "cluster status over the wire" `Quick
            test_daemon_cluster_status;
          Alcotest.test_case "one swap per republish" `Quick
            (daemon_swaps_per_republish ~workers:1);
          Alcotest.test_case "pipelined mixed requests" `Quick
            (daemon_pipeline ~shards:1 ~workers:1);
          Alcotest.test_case "hot swap under concurrent load" `Quick
            (daemon_hot_swap_under_load ~workers:1);
          Alcotest.test_case "fuzzy lookups end-to-end" `Quick (daemon_fuzzy ~shards:1 ~workers:1);
          Alcotest.test_case "fuzzy without a resolver" `Quick test_daemon_fuzzy_no_resolver;
          Alcotest.test_case "trace-driven replay" `Quick test_daemon_replay;
          Alcotest.test_case "replay loads jsonl" `Quick test_replay_load_jsonl;
          Alcotest.test_case "clean shutdown" `Quick test_daemon_shutdown;
          Alcotest.test_case "listen hygiene" `Quick test_listen_stale_and_occupied;
          Alcotest.test_case "half-closed client gets every reply" `Quick
            (daemon_half_closed ~workers:1);
          Alcotest.test_case "slow reader gets every reply" `Quick
            (daemon_slow_reader ~workers:1);
          Alcotest.test_case "retired tags refused" `Quick (test_daemon_retired_tag ~workers:1);
          Alcotest.test_case "stdio serves the same loop" `Quick (stdio_daemon ~domains:1);
        ] );
      ( "multicore daemon",
        [
          Alcotest.test_case "query, pipeline, audit, stats (4 domains)" `Quick
            (daemon_basics ~shards:4 ~workers:4);
          Alcotest.test_case "rate limit sheds per shard (4 domains)" `Quick
            (daemon_admission ~workers:4);
          Alcotest.test_case "pipelined mixed requests (4 domains)" `Quick
            (daemon_pipeline ~shards:4 ~workers:4);
          Alcotest.test_case "more shards than workers" `Quick
            (daemon_basics ~shards:8 ~workers:3);
          Alcotest.test_case "pipeline past the inflight cap (4 domains)" `Quick
            (daemon_pipeline_past_inflight_cap ~workers:4);
          Alcotest.test_case "binary republish" `Quick test_daemon_republish_binary;
          Alcotest.test_case "pipelined republish ordering" `Quick
            test_multicore_republish_ordering;
          Alcotest.test_case "hot swap under concurrent load (4 domains, binary)" `Quick
            (daemon_hot_swap_under_load ~workers:4);
          Alcotest.test_case "fuzzy lookups end-to-end (4 domains)" `Quick
            (daemon_fuzzy ~shards:4 ~workers:4);
          Alcotest.test_case "fuzzy hot swap stays generation-consistent" `Quick
            test_daemon_fuzzy_hot_swap;
          Alcotest.test_case "half-closed client gets every reply (4 domains)" `Quick
            (daemon_half_closed ~workers:4);
          Alcotest.test_case "slow reader gets every reply (4 domains)" `Quick
            (daemon_slow_reader ~workers:4);
          Alcotest.test_case "one swap per republish (4 domains)" `Quick
            (daemon_swaps_per_republish ~workers:4);
          Alcotest.test_case "stdio serves the same loop (4 domains)" `Quick
            (stdio_daemon ~domains:4);
          Alcotest.test_case "retired tags refused (4 domains)" `Quick
            (test_daemon_retired_tag ~workers:4);
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stage conservation, inline daemon" `Quick
            (daemon_telemetry ~shards:1 ~workers:1);
          Alcotest.test_case "stage conservation (4 domains)" `Quick
            (daemon_telemetry ~shards:4 ~workers:4);
          Alcotest.test_case "trace id joins client and server tracks" `Quick
            test_trace_propagation;
          Alcotest.test_case "stats and telemetry schemas pinned" `Quick test_reply_schemas;
        ] );
      ( "client robustness",
        [
          Alcotest.test_case "backoff jitter stays in bound" `Quick test_backoff_delay;
          Alcotest.test_case "request timeout" `Quick test_client_request_timeout;
          Alcotest.test_case "transparent reconnect across restart" `Quick
            test_client_reconnects_across_restart;
          Alcotest.test_case "connection lost after retries" `Quick
            test_client_connection_lost_when_gone_for_good;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
