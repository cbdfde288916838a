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
      (* Trace envelopes: ids at both ends of the varint range, wrapping
         payload-free and payload-heavy inner requests alike. *)
      Traced { trace_id = 0; request = Query { owner = 42 } };
      Traced { trace_id = 0x7FFF_FFFF; request = Audit { provider = 300 } };
      Traced { trace_id = 1; request = Query_fuzzy { probe = sample_probe; k = 3 } };
      Traced { trace_id = 9; request = Stats };
      Traced { trace_id = 2; request = Ping };
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
        Stats_json "{\"requests\": 12, \"conservation\": {\"exact\": true}, \"peers\": []}";
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

(* Frames too large for the decoder's buffer, alone or pipelined between
   small ones, reassemble at every chunk size; and a 4 MB republish frame
   fed in 64 KB reads costs the decoder under two copies of its payload
   (doubling a buffer up to it, cutting the payload out and cutting the
   republish data out of that cost six). *)
let test_codec_large_frames () =
  let big n =
    let data = String.init n (fun i -> Char.chr ((i * 7) land 0xFF)) in
    Wire.Request (Wire.Republish_binary { data })
  in
  let frames =
    [ Wire.Request Wire.Ping; big 100_000; Wire.Request (Wire.Query { owner = 5 }); big 70_000;
      big 5_000; Wire.Response Wire.Pong ]
  in
  let stream = String.concat "" (List.map Wire.frame_to_string frames) in
  List.iter
    (fun chunk ->
      check_bool
        (Printf.sprintf "chunk size %d reassembles" chunk)
        true
        (decode_chunked ~chunk stream = Ok (frames, 0)))
    [ 1; 7; 4093; 65536; String.length stream ];
  let payload = 4 lsl 20 in
  let frame = big payload in
  let s = Wire.frame_to_string frame in
  let d = Wire.Decoder.create () in
  let read = Bytes.create 65536 in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  let got = ref [] and pos = ref 0 in
  while !pos < String.length s do
    let len = min (Bytes.length read) (String.length s - !pos) in
    Bytes.blit_string s !pos read 0 len;
    Wire.Decoder.feed d read ~off:0 ~len;
    pos := !pos + len;
    match Wire.Decoder.next d with
    | Ok (Some f) -> got := f :: !got
    | Ok None -> ()
    | Error e -> Alcotest.fail (Wire.error_to_string e)
  done;
  let bytes = 8.0 *. (allocated () -. before) in
  check_bool "the frame decodes" true (!got = [ frame ]);
  check_bool
    (Printf.sprintf "%.0f bytes allocated for a %d-byte payload" bytes payload)
    true
    (bytes < 2.1 *. float_of_int payload)

(* Hand-rolled frame header: magic, version, tag, 32-bit BE length. *)
let header ~tag ~len =
  let b = Buffer.create 7 in
  Buffer.add_char b '\xE5';
  Buffer.add_char b '\x01';
  Buffer.add_char b (Char.chr tag);
  List.iter (fun sh -> Buffer.add_char b (Char.chr ((len lsr sh) land 0xFF))) [ 24; 16; 8; 0 ];
  Buffer.contents b

(* A header announcing the largest payload the decoder accepts reserves
   kilobytes, and what its payload holds stays within about twice the
   bytes that have arrived. *)
let test_codec_header_reserves_little () =
  let d = Wire.Decoder.create () in
  let length = Wire.default_max_payload in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    8.0 *. (minor +. major -. promoted)
  in
  let before = allocated () in
  Wire.Decoder.feed_string d (header ~tag:0x08 ~len:length);
  check_bool "a lone header is a prefix" true (Wire.Decoder.next d = Ok None);
  let bytes = allocated () -. before in
  check_bool (Printf.sprintf "%.0f bytes allocated for the header" bytes) true (bytes < 16_384.0);
  let chunk = Bytes.make 1000 'x' in
  for _ = 1 to 300 do
    Wire.Decoder.feed d chunk ~off:0 ~len:(Bytes.length chunk);
    if Wire.Decoder.next d <> Ok None then Alcotest.fail "a payload prefix decoded";
    let fed = Wire.Decoder.buffered d in
    let held = Sys.word_size / 8 * Obj.reachable_words (Obj.repr d) in
    if held > (2 * fed) + 16_384 then Alcotest.failf "%d bytes held after %d fed" held fed
  done;
  check_int "all buffered" (7 + 300_000) (Wire.Decoder.buffered d)

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
  (* The Traced tag sits at the top of the request range, the fuzzy reply
     at the top of the response range; every tag above them is unknown. *)
  expect_error "request-range hole is unknown" "\xE5\x01\x0D" (function
    | Wire.Unknown_tag 0x0D -> true
    | _ -> false);
  (* 0x0B/0x1A carried the retired Telemetry request and reply, 0x0C/0x1B
     the Cluster_status ones (the Stats document carries both): each is an
     unknown tag, bare or inside an envelope, as 0x02, 0x05 and 0x12 are. *)
  List.iter
    (fun (tag, payload) ->
      let name what = Printf.sprintf "retired tag 0x%02X %s" tag what in
      expect_error (name "is unknown")
        (header ~tag ~len:(String.length payload) ^ payload)
        (function Wire.Unknown_tag t -> t = tag | _ -> false);
      expect_error (name "refused inside an envelope")
        (header ~tag:0x0A ~len:(2 + String.length payload) ^ "\x02" ^ String.make 1 (Char.chr tag)
       ^ payload)
        (function
          | Wire.Corrupt msg -> contains msg (Printf.sprintf "wraps tag 0x%02X" tag) | _ -> false))
    [ (0x0B, ""); (0x0C, ""); (0x1A, "{}"); (0x1B, "\x02\x00\x00") ];
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
  expect_error "stats request with a payload"
    (header ~tag:0x04 ~len:1 ^ "\x00")
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
    (function Wire.Corrupt msg -> contains msg "score" | _ -> false)

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

(* Version 1, one owner, m = 2^30 providers, row count 0. *)
let hostile_header = "\x01\x01\x80\x80\x80\x80\x04\x00"

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
  (match Index_codec.decode payload with
  | Error (Index_codec.Truncated _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Index_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "overdeclared rows must be rejected");
  (* One empty row of m=2^30 providers is within the cells cap, but its
     inverse offsets alone would be 8 GiB: both decoders reject the header
     having allocated next to nothing. *)
  let reject name decode =
    let before = Gc.allocated_bytes () in
    let result = decode hostile_header in
    let allocated = Gc.allocated_bytes () -. before in
    check_bool (Printf.sprintf "%s allocated %.0f bytes" name allocated) true (allocated < 65536.);
    match result with
    | Error (Index_codec.Malformed msg) ->
        check_bool (name ^ " names the tables") true (contains msg "tables")
    | Error e -> Alcotest.fail (name ^ ": wrong error: " ^ Index_codec.error_to_string e)
    | Ok _ -> Alcotest.fail (name ^ ": a 2^30-provider header must be rejected")
  in
  reject "decode" (fun p -> Result.map ignore (Index_codec.decode p));
  reject "decode_postings" (fun p -> Result.map ignore (Index_codec.decode_postings p));
  (* Six rows of 40 cells each declared over a 3-byte body: more cells
     than body bits, rejected before any entry buffer is sized. *)
  let payload = "\x01\x06\x28\x28\x28\x28\x28\x28\x28\xff\xff\xff" in
  match Index_codec.decode_postings payload with
  | Error (Index_codec.Truncated "row bodies") -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Index_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "more cells than body bits must be rejected"

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

(* The original bit-at-a-time codec, kept as the reference the word-wide
   one must match byte for byte on encode and result for result (error
   messages included) on decode.  Its header carries the two checks that
   came with the postings decoder: the tables indexed by owner or provider
   fit in 2^27 words, and the row counts sum to at most the body's bits. *)
module Reference = struct
  exception Fail of Index_codec.error

  let ilog2 x =
    let k = ref 0 and v = ref x in
    while !v > 1 do
      incr k;
      v := !v lsr 1
    done;
    !k

  let rice_k ~c ~m =
    let mu_scaled = 693 * (m - c) / (1000 * (c + 1)) in
    if mu_scaled <= 1 then 0
    else
      let k = ilog2 mu_scaled in
      if 2 * mu_scaled > 3 * (1 lsl k) then k + 1 else k

  let row_is_bitmap ~m count = 3 * count >= m

  let put_uvarint b n =
    let u = ref n in
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

  type cursor = { payload : string; mutable pos : int }

  let get_uvarint c ~what =
    let u = ref 0 and shift = ref 0 and value = ref (-1) in
    while !value < 0 do
      if c.pos >= String.length c.payload then raise (Fail (Truncated what));
      if !shift > 56 then raise (Fail (Malformed (what ^ ": varint longer than 9 bytes")));
      let byte = Char.code c.payload.[c.pos] in
      c.pos <- c.pos + 1;
      u := !u lor ((byte land 0x7F) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then value := !u
    done;
    !value

  type bitwriter = { buf : Buffer.t; mutable acc : int; mutable nbits : int }

  let put_bit w bit =
    if bit then w.acc <- w.acc lor (1 lsl w.nbits);
    w.nbits <- w.nbits + 1;
    if w.nbits = 8 then begin
      Buffer.add_char w.buf (Char.chr w.acc);
      w.acc <- 0;
      w.nbits <- 0
    end

  let put_bits w v n =
    for i = 0 to n - 1 do
      put_bit w ((v lsr i) land 1 = 1)
    done

  type bitreader = { c : cursor; base : int; mutable bitpos : int }

  let get_bit r ~what =
    let byte = r.base + (r.bitpos lsr 3) in
    if byte >= String.length r.c.payload then raise (Fail (Truncated what));
    let bit = (Char.code r.c.payload.[byte] lsr (r.bitpos land 7)) land 1 in
    r.bitpos <- r.bitpos + 1;
    bit = 1

  let get_bits r n ~what =
    let v = ref 0 in
    for i = 0 to n - 1 do
      if get_bit r ~what then v := !v lor (1 lsl i)
    done;
    !v

  let put_row w row ~c ~m =
    if row_is_bitmap ~m c then
      for p = 0 to m - 1 do
        put_bit w (Bitvec.get row p)
      done
    else begin
      let k = rice_k ~c ~m in
      let prev = ref (-1) in
      for p = 0 to m - 1 do
        if Bitvec.get row p then begin
          let g = p - !prev - 1 in
          prev := p;
          for _ = 1 to g lsr k do
            put_bit w true
          done;
          put_bit w false;
          put_bits w g k
        end
      done
    end

  let get_row r matrix ~j ~c ~m =
    let what = Printf.sprintf "row %d" j in
    if row_is_bitmap ~m c then begin
      let set = ref 0 in
      for p = 0 to m - 1 do
        if get_bit r ~what then begin
          incr set;
          Bitmatrix.set matrix ~row:j ~col:p true
        end
      done;
      if !set <> c then
        raise
          (Fail (Malformed (Printf.sprintf "%s: bitmap population %d, declared count %d" what !set c)))
    end
    else begin
      let k = rice_k ~c ~m in
      let prev = ref (-1) in
      for _ = 1 to c do
        let q = ref 0 in
        while get_bit r ~what do
          incr q;
          if !q lsl k > m then raise (Fail (Malformed (what ^ ": gap exceeds provider count")))
        done;
        let g = (!q lsl k) lor get_bits r k ~what in
        let p = !prev + 1 + g in
        if p >= m then raise (Fail (Malformed (Printf.sprintf "%s: provider %d >= %d" what p m)));
        prev := p;
        Bitmatrix.set matrix ~row:j ~col:p true
      done
    end

  let encode index =
    let matrix = Eppi.Index.matrix index in
    let n = Bitmatrix.rows matrix and m = Bitmatrix.cols matrix in
    let counts =
      Array.init n (fun j ->
          let c = ref 0 in
          for p = 0 to m - 1 do
            if Bitmatrix.get matrix ~row:j ~col:p then incr c
          done;
          !c)
    in
    let b = Buffer.create 64 in
    Buffer.add_char b '\x01';
    put_uvarint b n;
    put_uvarint b m;
    Array.iter (put_uvarint b) counts;
    let w = { buf = b; acc = 0; nbits = 0 } in
    for j = 0 to n - 1 do
      put_row w (Bitmatrix.row matrix j) ~c:counts.(j) ~m
    done;
    if w.nbits > 0 then Buffer.add_char b (Char.chr w.acc);
    Buffer.contents b

  let decode_exn payload =
    let c = { payload; pos = 0 } in
    if String.length payload = 0 then raise (Fail (Truncated "version byte"));
    let v = Char.code payload.[0] in
    c.pos <- 1;
    if v <> 1 then raise (Fail (Unsupported_version v));
    let n = get_uvarint c ~what:"owner count" in
    let m = get_uvarint c ~what:"provider count" in
    if n < 1 || n > 1 lsl 30 then raise (Fail (Malformed (Printf.sprintf "owner count %d" n)));
    if m < 1 || m > 1 lsl 30 then raise (Fail (Malformed (Printf.sprintf "provider count %d" m)));
    if n * m > 1 lsl 33 then
      raise (Fail (Malformed (Printf.sprintf "matrix %dx%d exceeds %d cells" n m (1 lsl 33))));
    if (2 * n) + m + 2 > 1 lsl 27 then
      raise
        (Fail
           (Malformed
              (Printf.sprintf "tables for %d owners and %d providers exceed %d words" n m
                 (1 lsl 27))));
    if n > String.length payload - c.pos then raise (Fail (Truncated "row counts"));
    let counts =
      Array.init n (fun j ->
          let cnt = get_uvarint c ~what:(Printf.sprintf "count of row %d" j) in
          if cnt > m then
            raise (Fail (Malformed (Printf.sprintf "row %d count %d exceeds %d providers" j cnt m)));
          cnt)
    in
    if Array.fold_left ( + ) 0 counts > 8 * (String.length payload - c.pos) then
      raise (Fail (Truncated "row bodies"));
    let matrix = Bitmatrix.create ~rows:n ~cols:m in
    let r = { c; base = c.pos; bitpos = 0 } in
    for j = 0 to n - 1 do
      get_row r matrix ~j ~c:counts.(j) ~m
    done;
    while r.bitpos land 7 <> 0 do
      if get_bit r ~what:"final padding" then raise (Fail (Malformed "nonzero padding bits"))
    done;
    c.pos <- r.base + (r.bitpos lsr 3);
    if c.pos <> String.length payload then
      raise (Fail (Malformed (Printf.sprintf "%d trailing bytes" (String.length payload - c.pos))));
    Eppi.Index.of_matrix matrix

  let decode payload =
    match decode_exn payload with
    | index -> Ok index
    | exception Fail e -> Error e
    | exception Out_of_memory -> Error (Index_codec.Malformed "index too large to materialize")
    | exception Invalid_argument msg -> Error (Malformed msg)
end

(* Decode results compared across the two codecs: the same matrix, or the
   same error down to its message. *)
let same_decode a b =
  match (a, b) with
  | Ok x, Ok y -> matrices_equal x y
  | Error x, Error y -> x = y
  | _ -> false

(* Two stores are the same when every list, width and byte count is. *)
let same_postings p q =
  let module P = Eppi_serve.Postings in
  P.owners p = P.owners q
  && P.providers p = P.providers q
  && P.entry_bits p = P.entry_bits q
  && P.memory_bytes p = P.memory_bytes q
  && List.for_all
       (fun owner -> P.query p ~owner = P.query q ~owner)
       (List.init (P.owners p) Fun.id)
  && List.for_all
       (fun provider -> P.owners_of p ~provider = P.owners_of q ~provider)
       (List.init (P.providers p) Fun.id)

(* [decode_postings] against [decode] on one payload: exactly the same
   error, or the store [Postings.of_index] compiles from the index. *)
let postings_decode_agrees payload =
  match (Index_codec.decode_postings payload, Index_codec.decode payload) with
  | Ok store, Ok index -> same_postings store (Eppi_serve.Postings.of_index index)
  | Error x, Error y -> x = y
  | _ -> false

let index_of_rows ~m rows =
  let matrix = Bitmatrix.create ~rows:(List.length rows) ~cols:m in
  List.iteri
    (fun j cols -> Array.iter (fun p -> Bitmatrix.set matrix ~row:j ~col:p true) cols)
    rows;
  Eppi.Index.of_matrix matrix

(* (a) The reference construction over a lookup-churn-shaped membership,
   an eighth of its rows: frequencies cycle 1..8 over 1,024 providers. *)
let pin_index_a () =
  let n = 4096 and m = 1024 in
  let r = Rng.create 0x5EEDA in
  let membership = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    Array.iter
      (fun p -> Bitmatrix.set membership ~row:j ~col:p true)
      (Rng.sample_without_replacement r ~k:(1 + (j mod 8)) ~n:m)
  done;
  let epsilons = Array.init n (fun j -> 0.2 +. (0.6 *. float_of_int (j mod 7) /. 6.0)) in
  (Eppi.Construct.run (Rng.create 0xA) ~membership ~epsilons ~policy:(Eppi.Policy.Chernoff 0.9))
    .index

(* (b) Rows on both sides of the bitmap rule 3c >= m (m = 96: c <= 31 is
   Rice-coded, c >= 32 a bitmap). *)
let pin_index_b () =
  let m = 96 and r = Rng.create 0x5EEDB in
  index_of_rows ~m
    (List.map
       (fun k -> Rng.sample_without_replacement r ~k ~n:m)
       [ 31; 32; 33; 0; 1; 30; 96; 95; 5; 64; 31; 32; 12; 48 ])

(* (c) Widths around the byte and word boundaries, each with empty, full
   and single-bit rows. *)
let pin_indexes_c () =
  let r = Rng.create 0x5EEDC in
  List.map
    (fun m ->
      index_of_rows ~m
        [
          [||];
          Array.init m Fun.id;
          [| 0 |];
          [| m - 1 |];
          [| m / 2 |];
          Rng.sample_without_replacement r ~k:((m + 2) / 3) ~n:m;
          Rng.sample_without_replacement r ~k:(m / 10) ~n:m;
          [||];
        ])
    [ 1; 7; 63; 64; 65; 200 ]

let md5 s = Digest.to_hex (Digest.string s)

(* Every forward and inverse posting list, one line each. *)
let postings_digest p =
  let b = Buffer.create (1 lsl 16) in
  let add l =
    List.iter
      (fun i ->
        Buffer.add_string b (string_of_int i);
        Buffer.add_char b ',')
      l;
    Buffer.add_char b '\n'
  in
  for j = 0 to Eppi_serve.Postings.owners p - 1 do
    add (Eppi_serve.Postings.query p ~owner:j)
  done;
  for i = 0 to Eppi_serve.Postings.providers p - 1 do
    add (Eppi_serve.Postings.owners_of p ~provider:i)
  done;
  md5 (Buffer.contents b)

(* Payload bytes and compiled postings are pinned: the codec's format and
   the postings layout must not drift. *)
let test_index_codec_pinned () =
  let a = pin_index_a () in
  let pa = Index_codec.encode a in
  check_int "payload (a) length" 71204 (String.length pa);
  Alcotest.(check string) "payload (a) md5" "0867dc3b41bf45f7f3c29a0419c4dc23" (md5 pa);
  Alcotest.(check string) "postings (a) digest" "0a30f5f313d34e8fd60f4e512070e5a7"
    (postings_digest (Eppi_serve.Postings.of_index a));
  (match Index_codec.decode_postings pa with
  | Ok store ->
      Alcotest.(check string) "decoded postings (a) digest" "0a30f5f313d34e8fd60f4e512070e5a7"
        (postings_digest store)
  | Error e -> Alcotest.fail (Index_codec.error_to_string e));
  let pb = Index_codec.encode (pin_index_b ()) in
  check_int "payload (b) length" 147 (String.length pb);
  Alcotest.(check string) "payload (b) md5" "35caf3a9a7ac8cd86c97f56a6f3dccba" (md5 pb);
  let pcs = List.map Index_codec.encode (pin_indexes_c ()) in
  Alcotest.(check (list int)) "payload (c) lengths" [ 12; 14; 33; 34; 34; 79 ]
    (List.map String.length pcs);
  Alcotest.(check string) "payload (c) md5" "9d6de85a767c6f70f383846b979d442c"
    (md5 (String.concat "" pcs));
  List.iter
    (fun (name, payload) ->
      check_bool (name ^ " decodes like the reference") true
        (same_decode (Index_codec.decode payload) (Reference.decode payload)))
    (("(a)", pa) :: ("(b)", pb) :: List.map (fun p -> ("(c)", p)) pcs)

(* ---------- Live daemon ---------- *)

let sock_counter = ref 0

let sock_path () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "eppi-net-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* Start a daemon over [index] in its own domain, run [f addr engine]
   against it, then shut it down (if [f] has not already) and join. *)
let with_server ?admission ?(peers = []) ?resolver index f =
  let path = sock_path () in
  let addr = Addr.Unix_socket path in
  let engine = Serve.create ~config:{ Serve.admission } ?resolver index in
  let server = Server.create ~config:{ Server.default_config with peers } engine in
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

let test_daemon_basics () =
  let n = 20 and m = 9 in
  let index = test_index ~n ~m in
  with_server index (fun addr engine ->
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
          (* A 64-deep pipeline comes back in request order. *)
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

(* A rate-limited daemon: its one bucket refills 1e-3 tokens/s, so in a
   test's lifetime it admits exactly its burst.  One pipeline carries
   three rounds over every owner; the daemon must answer the first
   [burst] queries with providers and shed the rest, and the Stats reply
   must conserve every request, none of them shed by a queue. *)
let test_daemon_admission () =
  let n = 20 and burst = 3 in
  let index = test_index ~n ~m:9 in
  let admission = { Eppi_serve.Admission.rate = 1e-3; burst } in
  with_server ~admission index (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let owners = List.init (3 * n) (fun i -> i mod n) in
          let responses = Client.pipeline c (List.map (fun owner -> Wire.Query { owner }) owners) in
          List.iteri
            (fun i (owner, response) ->
              let reply =
                if i < burst then Serve.Providers (Eppi.Index.query index ~owner)
                else Serve.Shed_rate_limit
              in
              check_bool (Printf.sprintf "request %d (owner %d)" i owner) true
                (response = Wire.Reply { generation = 1; reply }))
            (List.combine owners responses);
          let stats = Json.parse_exn (Client.stats_json c) in
          let get k = Option.value ~default:(-1) (Json.find_int stats [ k ]) in
          check_int "queries" (3 * n) (get "queries");
          check_int "served" burst (get "served");
          check_int "shed_rate" ((3 * n) - burst) (get "shed_rate");
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
          (match Client.call c (Wire.Republish_binary { data = hostile_header }) with
          | Wire.Server_error msg -> check_bool "hostile header refused" true (contains msg "tables")
          | other -> Client.unexpected "hostile republish" other);
          check_int "failed republish keeps generation" 2 (Serve.generation engine);
          let stats = Json.parse_exn (Client.stats_json c) in
          check_bool "stats carries generation" true
            (Json.find_int stats [ "generation" ] = Some 2);
          check_bool "stats counts the one installed swap" true
            (Json.find_int stats [ "swaps" ] = Some 1)))

(* The replica state in the Stats document: generation tracks the number
   of applied republishes, swaps counts them from the moment they are
   installed, and peers echoes the daemon's configured replica set
   verbatim — read as [Fanout.status] reads it. *)
let test_daemon_cluster_status () =
  let n = 20 and m = 9 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n:25 ~m in
  let peers = [ "/tmp/a.sock"; "other:9001" ] in
  with_server ~peers index1 (fun addr _engine ->
      let c = Client.connect addr in
      let status () =
        match Eppi_cluster.cluster_status_of_stats (Json.parse_exn (Client.stats_json c)) with
        | Ok status -> status
        | Error e -> Alcotest.fail e
      in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let s = status () in
          check_int "initial generation" 1 s.generation;
          check_int "no swaps yet" 0 s.swaps;
          check_bool "peers echoed" true (s.peers = peers);
          (match Client.republish_index c index2 with
          | Ok generation -> check_int "republish generation" 2 generation
          | Error e -> Alcotest.fail e);
          let s = status () in
          check_int "post-swap generation" 2 s.generation;
          check_int "one swap recorded" 1 s.swaps;
          check_bool "peers stable across swap" true (s.peers = peers);
          match Eppi_cluster.Fanout.status (Eppi_cluster.Replica_set.of_addrs [ addr ]) with
          | [ (_, Ok s) ] ->
              check_bool "fan-out reads the same state" true
                (s = { Eppi_cluster.generation = 2; swaps = 1; peers })
          | _ -> Alcotest.fail "one status per replica"))

(* One republish is one swap, however many queries follow: a daemon
   republished once and then queried reports [swaps = 1], once, in its
   Stats document. *)
let test_daemon_swaps_per_republish () =
  let n = 20 and m = 9 in
  let index2 = test_index_v2 ~n ~m in
  with_server (test_index ~n ~m) (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.republish_index c index2 with
          | Ok generation -> check_int "republish generation" 2 generation
          | Error e -> Alcotest.fail e);
          for owner = 0 to 3 do
            check_bool
              (Printf.sprintf "owner %d served from the new index" owner)
              true
              (Client.query c ~owner = (2, Serve.Providers (Eppi.Index.query index2 ~owner)))
          done;
          match Json.parse_exn (Client.stats_json c) with
          | Json.Obj fields ->
              check_bool "stats swaps" true (List.assoc_opt "swaps" fields = Some (Json.int 1));
              check_int "one swaps key" 1
                (List.length (List.filter (fun (k, _) -> k = "swaps") fields))
          | _ -> Alcotest.fail "stats reply is not an object"))

let test_daemon_pipeline () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  with_server index (fun addr _engine ->
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

let test_daemon_republish_binary () =
  let n = 20 and m = 9 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n:25 ~m in
  with_server index1 (fun addr engine ->
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
          (match Client.call c (Wire.Republish_binary { data = hostile_header }) with
          | Wire.Server_error msg -> check_bool "hostile header refused" true (contains msg "tables")
          | other -> Client.unexpected "hostile binary republish" other);
          check_int "failed republish keeps generation" 2 (Serve.generation engine);
          let generation, reply = Client.query c ~owner:22 in
          check_bool "still serving after the refusals" true
            (generation = 2 && reply = Serve.Providers (Eppi.Index.query index2 ~owner:22))))

(* Requests pipelined around a republish on one connection answer from
   the generation in place when they are decoded: the loop installs the
   swap before it decodes the next frame, so the wire never shows
   [Republished {g}] followed by a reply from a generation < g, nor a
   reply from g ahead of it. *)
let test_republish_ordering () =
  let n = 20 and m = 9 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n ~m in
  with_server index1 (fun addr _engine ->
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
              (* Replies ahead of the republish are the old index, exactly. *)
              List.iter
                (fun (owner, response) ->
                  match response with
                  | Wire.Reply { generation; reply } ->
                      check_int (Printf.sprintf "pre-swap owner %d generation" owner) 1 generation;
                      check_bool
                        (Printf.sprintf "pre-swap owner %d reply" owner)
                        true
                        (reply = Serve.Providers (Eppi.Index.query index1 ~owner))
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
let test_daemon_hot_swap_under_load () =
  let n = 40 and m = 11 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n ~m in
  let truth1 = Array.init n (fun owner -> Eppi.Index.query index1 ~owner) in
  let truth2 = Array.init n (fun owner -> Eppi.Index.query index2 ~owner) in
  with_server index1 (fun addr engine ->
      let worker =
        Domain.spawn (fun () ->
            let c = Client.connect addr in
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
let test_daemon_fuzzy () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  let config = Resolver.default_config ~seed:0x5EED in
  let roster = Roster.generate (Rng.create 5) ~n in
  let resolver = Resolver.build config roster in
  with_server ~resolver index (fun addr engine ->
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
  with_server ~resolver index1 (fun addr engine ->
      let worker =
        Domain.spawn (fun () ->
            let c = Client.connect addr in
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

(* The socket path appears only once it accepts: over 200 listen/close
   cycles, a domain that dials the moment the path appears is never
   refused, and no temporary name is left beside it.  A second listen on
   a live path still fails "in use"; a listen whose link fails — the path
   appeared after the probe, here as a dangling symlink — leaves no
   temporary file behind either. *)
let test_listen_path_appears_listening () =
  let dir = Filename.temp_file "eppi-listen" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "d.sock" in
  let entries () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let dial_on_sight () =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) (entries ());
      Sys.rmdir dir)
    (fun () ->
      let refused = ref 0 in
      for _ = 1 to 200 do
        let dialer = Domain.spawn dial_on_sight in
        let listener = Server.listen (Addr.Unix_socket path) in
        if not (Domain.join dialer) then incr refused;
        Unix.close listener;
        Sys.remove path
      done;
      check_int "dials refused" 0 !refused;
      Alcotest.(check (list string)) "no temporary name survives" [] (entries ());
      let live = Server.listen (Addr.Unix_socket path) in
      (match Server.listen (Addr.Unix_socket path) with
      | exception Failure msg -> check_bool "second listen: in use" true (contains msg "in use")
      | fd ->
          Unix.close fd;
          Alcotest.fail "a second listen took a live path");
      Unix.close live;
      Sys.remove path;
      Unix.symlink (Filename.concat dir "nowhere") path;
      (match Server.listen (Addr.Unix_socket path) with
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      | fd ->
          Unix.close fd;
          Alcotest.fail "listen replaced an existing name");
      Alcotest.(check (list string)) "a failed link leaves only the name" [ "d.sock" ] (entries ()))

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
   service.  The client pauses before reading, so the replies to 3,000
   and 30,000 queries, which outgrow the socket buffers, still wait in the
   daemon's write buffer when EOF arrives. *)
let test_daemon_half_closed () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  with_server index (fun addr _engine ->
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
let test_daemon_slow_reader () =
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
  with_server index (fun addr _engine ->
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

(* An old client's Batch (tag 0x02), CSV republish (0x05), Telemetry
   (0x0B) or Cluster_status (0x0C) request, or a retired reply tag sent
   the wrong way, is a framing error: the daemon answers [Server_error],
   closes that connection and keeps its index and its other clients. *)
let test_daemon_retired_tag () =
  let index = test_index ~n:8 ~m:5 in
  with_server index (fun addr engine ->
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
        [ (0x02, "\x04\x06\x08"); (0x05, ""); (0x0B, ""); (0x0C, ""); (0x1A, "{}");
          (0x1B, "\x02\x00\x00") ];
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
   queries and an audit piped in and answered in order, then a Stats
   request whose telemetry accounts for all of them, then EOF on stdin,
   and the process exits 0. *)
let test_stdio_daemon () =
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
      let argv = [| eppi_exe; "serve"; "-i"; path; "--stdio" |] in
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
            write_all in_w (frames_of [ Wire.Stats ]) 0;
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
      | [ Wire.Stats_json raw ] ->
          let v = Json.parse_exn raw in
          check_bool "telemetry accounts for every earlier request" true
            (Json.find_int v [ "requests" ] = Some 51);
          check_bool "telemetry conservation is exact" true
            (Json.find v [ "conservation"; "exact" ] = Some (Json.Bool true)
            && Json.find_int v [ "conservation"; "stage_sum_ns" ]
               = Json.find_int v [ "conservation"; "total_ns" ])
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

let test_client_connection_lost_at_once () =
  (* The client never re-dials: once its daemon is gone, the next call
     comes back as a typed Connection_lost at once. *)
  let index = test_index ~n:8 ~m:5 in
  let path = sock_path () in
  let addr = Addr.Unix_socket path in
  let engine = Serve.create index in
  let server = Server.create engine in
  let listener = Server.listen addr in
  let daemon = Domain.spawn (fun () -> Server.run server listener) in
  let c = Client.connect addr in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Client.ping c;
      Client.shutdown c;
      Domain.join daemon;
      (try Sys.remove path with Sys_error _ -> ());
      let t0 = Unix.gettimeofday () in
      (match Client.call_result c Wire.Ping with
      | Error (Client.Connection_lost _) -> ()
      | Ok _ -> Alcotest.fail "dead server must not answer"
      | Error Client.Timed_out -> Alcotest.fail "expected connection loss, got timeout");
      check_bool "lost within 0.5 s" true (Unix.gettimeofday () -. t0 < 0.5))

(* Run the built CLI with [args]: its exit status, its stderr lines and
   the wall time it took.  [under] prefixes the command line (a shell
   that caps the process's address space, say). *)
let run_cli ?(under = []) args =
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = Unix.gettimeofday () in
  let argv = Array.of_list (under @ (eppi_exe :: args)) in
  let pid = Unix.create_process argv.(0) argv null_in null_out err_w in
  List.iter Unix.close [ err_w; null_in; null_out ];
  let ic = Unix.in_channel_of_descr err_r in
  let err = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic) in
  let _, status = Unix.waitpid [] pid in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' err) in
  (status, lines, Unix.gettimeofday () -. t0)

(* The built CLI's standard output; the command must exit 0. *)
let cli_stdout args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process eppi_exe (Array.of_list (eppi_exe :: args)) null out_w null in
  List.iter Unix.close [ out_w; null ];
  let ic = Unix.in_channel_of_descr out_r in
  let out =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)
  in
  check_bool (String.concat " " args ^ " exits 0") true
    (snd (Unix.waitpid [] pid) = Unix.WEXITED 0);
  out

(* One latency per request class: after depth-1 queries, the
   [stats --watch] line and the [top] screen print the same p50 and p99,
   because both read the query class's window in the Stats document. *)
let test_cli_one_latency () =
  let n = 20 in
  with_server (test_index ~n ~m:9) (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for i = 0 to 199 do
            ignore (Client.query c ~owner:(i mod n))
          done);
      let target = Addr.to_string addr in
      let words s = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim s)) in
      let rec after key = function
        | k :: v :: _ when k = key -> v
        | _ :: rest -> after key rest
        | [] -> Alcotest.fail ("the watch line lacks " ^ key)
      in
      let watch =
        words (cli_stdout [ "stats"; "--connect"; target; "--watch"; "0.05"; "--iterations"; "1" ])
      in
      let top = String.split_on_char '\n' (cli_stdout [ "top"; "--connect"; target; "--once" ]) in
      match List.find_opt (fun l -> List.nth_opt (words l) 0 = Some "query") top with
      | Some row -> (
          match words row with
          | [ "query"; _count; _rate; p50; p99 ] ->
              Alcotest.(check (pair string string))
                "same p50 and p99" (p50, p99)
                (after "p50" watch, after "p99" watch);
              check_bool "a measured p50" true (p50 <> "-")
          | _ -> Alcotest.fail ("top's query row: " ^ row))
      | None -> Alcotest.fail "top shows no query row")

(* A CLI command that cannot reach its replica set fails at once with one
   line naming the address, never an uncaught exception (exit 125); a
   malformed address is a usage error; and the retired
   [republish --cluster] flag is refused when the command line is
   parsed (cmdliner's exit 124). *)
let test_cli_unreachable () =
  let absent = sock_path () in
  let status, lines, seconds = run_cli [ "query"; "--connect"; absent; "--owner"; "1" ] in
  check_bool "query exits 1" true (status = Unix.WEXITED 1);
  check_bool "within 1 s" true (seconds < 1.0);
  (match lines with
  | [ line ] -> check_bool "the line names the address" true (contains line absent)
  | _ -> Alcotest.fail (Printf.sprintf "expected one stderr line, got %d" (List.length lines)));
  let status, _, _ = run_cli [ "query"; "--connect"; "host:"; "--owner"; "1" ] in
  check_bool "malformed address exits 2" true (status = Unix.WEXITED 2);
  let status, _, _ = run_cli [ "republish"; "--cluster"; absent; "-i"; Sys.executable_name ] in
  check_bool "republish --cluster refused" true (status = Unix.WEXITED 124)

(* [eppi serve -i INDEX --listen SOCK] as a process: [f ~csv pid addr]
   runs once the daemon answers a ping, then the daemon is shut down and
   reaped. *)
let with_cli_daemon index f =
  let csv = Filename.temp_file "eppi-daemon" ".csv" in
  let path = sock_path () in
  let addr = Addr.Unix_socket path in
  Out_channel.with_open_bin csv (fun oc -> Eppi.Index.output_csv oc index);
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process eppi_exe [| eppi_exe; "serve"; "-i"; csv; "--listen"; path |] null null
      null
  in
  Unix.close null;
  let reap () =
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
      | _ -> ()
    in
    wait ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Client.connect addr in
         (try Client.shutdown c with _ -> ());
         Client.close c
       with _ -> ());
      reap ();
      Sys.remove csv;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec await () =
        if Unix.gettimeofday () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
          Alcotest.fail "daemon did not come up";
        match Client.connect addr with
        | c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.ping c)
        | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) ->
            Unix.sleepf 0.01;
            await ()
      in
      await ();
      f ~csv pid addr)

(* The process's peak resident set, in kB. *)
let vm_hwm_kb pid =
  In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
           Scanf.sscanf line "VmHWM: %d kB" Option.some
         else None)
  |> Option.get

(* Seven bytes: codec version, one owner, 2^24 providers, an empty row.
   A table of every provider made a replica that compiled it grow by
   128 MB; the inverse side now keeps lists only for providers that
   occur, and every in-range audit still answers with no owners. *)
let sparse_payload = "\x01\x01\x80\x80\x80\x08\x00"

let test_sparse_payload_costs_kilobytes () =
  let providers = 1 lsl 24 in
  let minor0, promoted0, major0 = Gc.counters () in
  let store = Index_codec.decode_postings sparse_payload in
  let minor1, promoted1, major1 = Gc.counters () in
  let words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
  (match store with
  | Error e -> Alcotest.fail (Index_codec.error_to_string e)
  | Ok store ->
      let module P = Eppi_serve.Postings in
      check_bool (Printf.sprintf "decode allocates kilobytes (%.0f words)" words) true
        (words < 16_384.0);
      check_int "providers" providers (P.providers store);
      check_bool "memory in kilobytes" true (P.memory_bytes store < 65_536);
      List.iter
        (fun provider ->
          check_bool "no owners" true (P.owners_of store ~provider = []);
          check_int "audit count" 0 (P.audit_count store ~provider))
        [ 0; 1; providers / 2; providers - 1 ]);
  with_cli_daemon (test_index ~n:20 ~m:9) (fun ~csv:_ pid addr ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.ping c;
          let before = vm_hwm_kb pid in
          (match Client.call c (Wire.Republish_binary { data = sparse_payload }) with
          | Wire.Republished { generation } -> check_int "installed" 2 generation
          | other -> Client.unexpected "sparse republish" other);
          let growth = vm_hwm_kb pid - before in
          check_bool (Printf.sprintf "replica grew %d kB" growth) true (growth < 16_384);
          List.iter
            (fun provider ->
              check_bool "in-range audit answers no owners" true
                (Client.audit c ~provider = (2, Some [])))
            [ 0; providers - 1 ];
          check_bool "out-of-range audit" true (Client.audit c ~provider:providers = (2, None));
          check_bool "the row is empty" true
            (Client.query c ~owner:0 = (2, Serve.Providers []))))

(* A second [eppi serve] on a path a daemon serves exits 1 with one line,
   and the first daemon keeps the path and answers. *)
let test_cli_listen_in_use () =
  let index = test_index ~n:20 ~m:9 in
  with_cli_daemon index (fun ~csv _pid addr ->
      let path = Addr.to_string addr in
      let status, lines, _ = run_cli [ "serve"; "-i"; csv; "--listen"; path ] in
      check_bool "second daemon exits 1" true (status = Unix.WEXITED 1);
      (match lines with
      | [ line ] -> check_bool "the line names the path" true (contains line path)
      | _ -> Alcotest.failf "expected one stderr line, got %d" (List.length lines));
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          check_bool "first daemon still answers" true
            (Client.query c ~owner:3 = (1, Serve.Providers (Eppi.Index.query index ~owner:3)))))

(* Every input file or listen address the CLI cannot use fails with one
   stderr line and exit 1, never an uncaught exception (125); a
   [republish --require K] outside 1..N is a usage error (2) that
   installs nothing. *)
let test_cli_startup_failures () =
  let dir = Filename.temp_file "eppi-cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let file name contents =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    path
  in
  let expect_one_line ?under ~code args needle =
    let status, lines, seconds = run_cli ?under args in
    check_bool (Printf.sprintf "%s within 5 s" (List.hd args)) true (seconds < 5.0);
    check_bool
      (Printf.sprintf "%s exits %d" (String.concat " " args) code)
      true
      (status = Unix.WEXITED code);
    match lines with
    | [ line ] -> check_bool (Printf.sprintf "%S names %S" line needle) true (contains line needle)
    | _ -> Alcotest.failf "%s: expected one stderr line, got %d" (List.hd args) (List.length lines)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let good = file "good.csv" (Eppi.Index.to_csv (test_index ~n:20 ~m:9)) in
      let bad = file "bad.csv" "# eppi-index owners=3 providers=4\n3,0\n" in
      let sock = Filename.concat dir "s.sock" in
      expect_one_line ~code:1
        [ "serve"; "-i"; bad; "--listen"; sock ]
        "Index.of_csv: cell out of range at line 2";
      let roster = file "roster.csv" "0,a,b,1950-13-41,12345,f\n" in
      expect_one_line ~code:1
        [ "serve"; "-i"; good; "--listen"; sock; "--roster"; roster; "--linkage-seed"; "1" ]
        "bad date of birth";
      let regular = file "not-a-socket" "" in
      expect_one_line ~code:1 [ "serve"; "-i"; good; "--listen"; regular ] "not a socket";
      expect_one_line ~code:1 [ "query"; "-i"; bad; "--owner"; "1" ] "cell out of range";
      (* A header past the matrix budget fails at once, with one line
         naming the file.  The CLI runs under a 1 GiB address-space cap,
         so a loader that allocated what the header declares fails the
         test, not the machine. *)
      let capped = [ "/bin/sh"; "-c"; {|ulimit -v 1048576 && exec "$0" "$@"|} ] in
      let huge = file "huge.csv" "# eppi-index owners=1000000000 providers=1000000000\n" in
      expect_one_line ~under:capped ~code:1
        [ "query"; "-i"; huge; "--owner"; "1" ]
        (huge ^ ": Index.of_csv: matrix 1000000000x1000000000 exceeds 8589934592 cells");
      let huge_net = file "huge-net.csv" "# providers=1000000000 owners=1000000000\n" in
      expect_one_line ~under:capped ~code:1
        [ "construct"; "-d"; huge_net; "-o"; Filename.concat dir "out.csv" ]
        (huge_net ^ ": Dataset.of_csv: matrix 1000000000x1000000000 exceeds 8589934592 cells");
      let dataset = file "net.csv" "# providers=4 owners=3\nm,3,0\n" in
      expect_one_line ~code:1
        [ "construct"; "-d"; dataset; "-o"; Filename.concat dir "out.csv" ]
        "Dataset.of_csv: bad line 2";
      with_cli_daemon (test_index ~n:20 ~m:9) (fun ~csv _pid addr ->
          let target = Addr.to_string addr in
          List.iter
            (fun k ->
              expect_one_line ~code:2
                [ "republish"; "--connect"; target; "--require"; k; "-i"; csv ]
                "--require")
            [ "0"; "2" ];
          let c = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () -> check_int "nothing installed" 1 (fst (Client.query c ~owner:1)))))

(* ---------- Properties ---------- *)

(* ---- live telemetry ---- *)

(* Drive a mixed load through the daemon, then take it apart via its
   Stats document: the three stages must conserve exactly (stages are
   telescoping differences of one clock, so the integer sums are equal,
   not merely close), the rolling window must have seen the load, the
   engine's counters must sit beside the stages, and no [workers] key may
   appear. *)
let test_daemon_telemetry () =
  let n = 20 and m = 9 in
  let index = test_index ~n ~m in
  with_server index (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for owner = 0 to n - 1 do
            ignore (Client.query c ~owner)
          done;
          ignore (Client.audit c ~provider:2);
          Client.ping c;
          let raw = Client.stats_json c in
          let v =
            match Json.parse raw with
            | Ok v -> v
            | Error e -> Alcotest.fail ("stats reply is not JSON: " ^ e)
          in
          let geti path =
            match Json.find_int v path with
            | Some x -> x
            | None -> Alcotest.fail ("stats reply lacks " ^ String.concat "." path)
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
          check_bool "three stages" true (Telemetry.stage_names = [| "decode"; "execute"; "flush" |]);
          (match Json.find v [ "stages" ] with
          | Some (Json.Obj fields) ->
              check_bool "the reply lists exactly those stages" true
                (List.map fst fields = [ "decode"; "execute"; "flush"; "total"; "sum_ns" ])
          | _ -> Alcotest.fail "stats reply lacks stages");
          (* Every finished request passes through every stage exactly
             once — the per-stage counts all agree. *)
          Array.iter
            (fun st ->
              check_int (st ^ " counts every request") finished (geti [ "stages"; st; "count" ]))
            Telemetry.stage_names;
          check_bool "the document has no workers" true (Json.find v [ "workers" ] = None);
          (match Json.find v [ "slow" ] with
          | Some (Json.List (s :: _)) ->
              check_bool "slow entry conserves too" true
                (match Json.find_int s [ "total_ns" ] with
                | Some total ->
                    total
                    = Array.fold_left
                        (fun acc k ->
                          acc + Option.value ~default:0 (Json.find_int s [ k ^ "_ns" ]))
                        0 Telemetry.stage_names
                | None -> false)
          | _ -> Alcotest.fail "slow ring is empty after load");
          (* The engine's counters and the trace session ride in the same
             document. *)
          check_int "queries counted beside the stages" n (geti [ "queries" ]);
          check_int "trace drops" 0 (geti [ "trace"; "dropped" ])))

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

(* A fixed engine state: two merged metrics and a telemetry store fed
   eight hand-stamped requests (one per class, four queries), its slow
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
  Metrics.snapshot ~generation:3 [ a; b ]

let fixture_base_ns = 1_000_000_000_000

let fixture_telemetry () =
  let t = Telemetry.create ~slow_slots:2 () in
  let feed ~kind ~trace_id ~after_ms (decode, execute, flush) =
    let t_read = fixture_base_ns + (after_ms * 1_000_000) in
    let t_decoded = t_read + decode in
    let t_executed = t_decoded + execute in
    Telemetry.finish t { Telemetry.kind; trace_id; t_read; t_decoded; t_executed }
      ~t_written:(t_executed + flush)
  in
  feed ~kind:1 ~trace_id:(-1) ~after_ms:0 (1_500, 16_250, 3_800);
  feed ~kind:1 ~trace_id:7 ~after_ms:100 (1_200, 11_300, 2_900);
  feed ~kind:1 ~trace_id:(-1) ~after_ms:300 (900, 8_200, 2_300);
  feed ~kind:1 ~trace_id:(-1) ~after_ms:500 (2_500, 48_600, 6_200);
  feed ~kind:9 ~trace_id:12 ~after_ms:700 (3_000, 96_400, 4_700);
  feed ~kind:3 ~trace_id:(-1) ~after_ms:900 (1_100, 20_150, 2_200);
  feed ~kind:8 ~trace_id:(-1) ~after_ms:1_100 (50_000, 2_010_500, 6_900);
  feed ~kind:4 ~trace_id:(-1) ~after_ms:1_500 (800, 30_000, 1_800);
  t

(* The fixture's replies, pinned: every key path, in order, and every
   integer.  A change to how the replies are rendered must keep them. *)
let pinned_metrics =
  [ "queries=8"; "served=4"; "unknown=1"; "shed_rate=1"; "shed_queue=0"; "audits=1";
    "generation=3"; "swaps=2"; "fuzzy_queries=5"; "fuzzy_resolved=2"; "fuzzy_empty=1";
    "fuzzy_rejected=1"; "fuzzy_shed=1"; "fuzzy_scanned=40" ]

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
    "stages.decode.p99_s=4.63e-05"; "stages.execute.count=8"; "stages.execute.sum_ns=2241400";
    "stages.execute.mean_s=0.00028"; "stages.execute.p50_s=2.32e-05";
    "stages.execute.p99_s=0.00148"; "stages.flush.count=8"; "stages.flush.sum_ns=30800";
    "stages.flush.mean_s=3.85e-06"; "stages.flush.p50_s=2.9e-06"; "stages.flush.p99_s=5.79e-06";
    "stages.total.count=8"; "stages.total.mean_s=0.000292";
    "stages.total.p50_s=2.32e-05"; "stages.total.p99_s=0.00148"; "stages.sum_ns=2333200";
    "conservation.stage_sum_ns=2333200"; "conservation.total_ns=2333200";
    "conservation.exact=true"; "slow.0.kind=\"republish_binary\""; "slow.0.trace_id=-1";
    "slow.0.total_ns=2067400"; "slow.0.decode_ns=50000"; "slow.0.execute_ns=2010500";
    "slow.0.flush_ns=6900"; "slow.1.kind=\"fuzzy\""; "slow.1.trace_id=12";
    "slow.1.total_ns=104100"; "slow.1.decode_ns=3000"; "slow.1.execute_ns=96400";
    "slow.1.flush_ns=4700" ]

(* Every object key path of [v] that appears twice in one object. *)
let duplicate_keys v =
  let rec go prefix v acc =
    match v with
    | Json.Obj fields ->
        let keys = List.map fst fields in
        let seen_before i k = List.mem k (List.filteri (fun j _ -> j < i) keys) in
        let dups = List.filteri seen_before keys in
        List.fold_left
          (fun acc (k, v) -> go (prefix ^ k ^ ".") v acc)
          (List.map (( ^ ) prefix) dups @ acc)
          fields
    | Json.List items -> List.fold_left (fun acc v -> go prefix v acc) acc items
    | _ -> acc
  in
  go "" v []

(* Every Stats key the lifecycle benchmark (perfbench/) reads. *)
let perfbench_keys =
  [ "queries"; "served"; "unknown"; "shed_rate"; "shed_queue"; "fuzzy_queries"; "fuzzy_resolved";
    "fuzzy_empty"; "fuzzy_rejected"; "fuzzy_shed"; "fuzzy_scanned"; "swaps"; "requests";
    "stages.sum_ns"; "conservation.stage_sum_ns"; "conservation.total_ns" ]
  @ List.concat_map
      (fun cls -> [ "window." ^ cls ^ ".count"; "window." ^ cls ^ ".mean_s" ])
      (Array.to_list Telemetry.classes)
  @ List.map (fun st -> "stages." ^ st ^ ".sum_ns") (Array.to_list Telemetry.stage_names)

(* The pinned fixture renders field for field, the engine's counters and
   the telemetry store's fields alike; the daemon's one Stats document
   carries both, in that order, then its own fields, with the server's
   values fixed for an untraced, never-republished, standalone daemon.
   No key appears twice, and every key perfbench reads is there. *)
let test_reply_schemas () =
  let check = Alcotest.(check (list string)) in
  check "stats fields" pinned_metrics
    (leaves (Json.parse_exn (Eppi_serve.Metrics.to_json (fixture_metrics ()))));
  check "telemetry fields" pinned_telemetry
    (leaves
       (Json.parse_exn
          (Json.to_string
             (Json.Obj
                (Telemetry.fields (fixture_telemetry ())
                   ~now_ns:(fixture_base_ns + 2_000_000_000))))));
  let n = 20 in
  with_server (test_index ~n ~m:9) (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for i = 0 to 39 do
            ignore (Client.query c ~owner:(i mod (n + 2)))
          done;
          let doc = Json.parse_exn (Client.stats_json c) in
          let stats = leaves doc in
          check "stats reply shape"
            (shape pinned_metrics @ shape pinned_telemetry
            @ [ "peers"; "trace.enabled"; "trace.dropped"; "telemetry_enabled" ])
            (shape stats);
          check "no key twice" [] (duplicate_keys doc);
          List.iter
            (fun key ->
              check_bool ("perfbench reads " ^ key) true
                (Json.find doc (String.split_on_char '.' key) <> None))
            perfbench_keys;
          check "the old telemetry call reads the same document" (shape stats)
            (shape (leaves (Json.parse_exn (Client.telemetry_json c))));
          List.iter
            (fun l -> check_bool l true (List.mem l stats))
            [
              "generation=1";
              "swaps=0";
              "peers=[]";
              "trace.enabled=false";
              "trace.dropped=0";
              "telemetry_enabled=true";
            ]))

(* A trace id minted by the client must label spans on BOTH sides of the
   socket: the client's [client.request] span and the daemon's
   [net.request] span (recorded on a different domain, hence a different
   track) carry the same id, and the Chrome export contains both.  A Ping
   gets its [net.request] span too. *)
let test_trace_propagation () =
  let index = test_index ~n:10 ~m:5 in
  Eppi_obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () -> Eppi_obs.Trace.reset ())
    (fun () ->
      with_server index (fun addr _engine ->
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
      check_bool "the ping has its span" true
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

(* Random pipelines over one connection to a one-domain daemon.  The
   daemon answers every frame before it decodes the next, so its replies
   follow a sequential model: generation g serves [indexes.((g - 1) mod 2)],
   and each accepted republish installs the other index as g + 1.  Every
   third republish or so sends a payload cut one byte short, which must
   answer [Server_error] and leave the generation alone.  Every Stats
   reply in the stream must parse, name the current generation, and
   conserve its counters and stage sums.  The client half-closes after
   its last frame and reads to EOF, so an extra or a missing reply fails
   too. *)
type pipeline_op =
  | Op_query of int
  | Op_audit of int
  | Op_fuzzy of int
  | Op_stats
  | Op_ping
  | Op_republish of { short : bool }

let daemon_pipeline_property =
  let open QCheck in
  let n = 20 and m = 9 in
  let indexes = [| test_index ~n ~m; test_index_v2 ~n ~m |] in
  let index_at g = indexes.((g - 1) mod 2) in
  let payloads = Array.map Index_codec.encode indexes in
  let config = Resolver.default_config ~seed:0x5EED in
  let roster = Roster.generate (Rng.create 5) ~n in
  let resolver = Resolver.build config roster in
  let probes = Array.map (Probe.of_demographic config.Resolver.params) roster in
  let gen_op =
    Gen.frequency
      [
        (6, Gen.map (fun o -> Op_query o) (Gen.int_range (-3) (n + 4)));
        (2, Gen.map (fun p -> Op_audit p) (Gen.int_range (-1) (m + 1)));
        (2, Gen.map (fun o -> Op_fuzzy o) (Gen.int_range 0 (n - 1)));
        (1, Gen.return Op_stats);
        (1, Gen.return Op_ping);
        (2, Gen.map (fun k -> Op_republish { short = k = 0 }) (Gen.int_range 0 2));
      ]
  in
  let print_op = function
    | Op_query o -> Printf.sprintf "query %d" o
    | Op_audit p -> Printf.sprintf "audit %d" p
    | Op_fuzzy o -> Printf.sprintf "fuzzy %d" o
    | Op_stats -> "stats"
    | Op_ping -> "ping"
    | Op_republish { short } -> if short then "republish (short)" else "republish"
  in
  let arb =
    make
      ~print:(fun ops -> String.concat "; " (List.map print_op ops))
      Gen.(list_size (int_range 1 40) gen_op)
  in
  (* The frames, each republish carrying the index of the generation it
     would install. *)
  let requests ops =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, g) op ->
              match op with
              | Op_query owner -> (Wire.Query { owner } :: acc, g)
              | Op_audit provider -> (Wire.Audit { provider } :: acc, g)
              | Op_fuzzy o -> (Wire.Query_fuzzy { probe = probes.(o); k = 3 } :: acc, g)
              | Op_stats -> (Wire.Stats :: acc, g)
              | Op_ping -> (Wire.Ping :: acc, g)
              | Op_republish { short } ->
                  let full = payloads.(g mod 2) in
                  let data = if short then String.sub full 0 (String.length full - 1) else full in
                  (Wire.Republish_binary { data } :: acc, if short then g else g + 1))
            ([], 1) ops))
  in
  let row g owner =
    if owner >= 0 && owner < n then Serve.Providers (Eppi.Index.query (index_at g) ~owner)
    else Serve.Unknown_owner
  in
  let audit g provider =
    if provider < 0 || provider >= m then None
    else
      Some
        (List.filter
           (fun owner -> List.mem provider (Eppi.Index.query (index_at g) ~owner))
           (List.init n Fun.id))
  in
  (* A Stats document in the stream parses, names generation [g], and
     conserves: every query and every fuzzy request has exactly one
     outcome, and the finished requests' stages sum to their totals. *)
  let stats_ok g raw =
    match Json.parse raw with
    | Error _ -> false
    | Ok doc ->
        let get k = Option.value ~default:(-1) (Json.find_int doc [ k ]) in
        let sum = List.fold_left (fun acc k -> acc + get k) 0 in
        get "generation" = g
        && get "queries" = sum [ "served"; "unknown"; "shed_rate"; "shed_queue" ]
        && get "fuzzy_queries"
           = sum [ "fuzzy_resolved"; "fuzzy_empty"; "fuzzy_rejected"; "fuzzy_shed" ]
        && Json.find doc [ "conservation"; "exact" ] = Some (Json.Bool true)
  in
  (* [Some g'] when [response] is the model's answer to [op] at
     generation [g], [g'] being the generation after it. *)
  let step g op (response : Wire.response) =
    match (op, response) with
    | Op_query owner, Reply { generation; reply } when generation = g && reply = row g owner ->
        Some g
    | Op_audit provider, Audit_reply { generation; owners }
      when generation = g && owners = audit g provider ->
        Some g
    | Op_fuzzy o, Fuzzy_reply { generation; result = Serve.Candidates (top :: _ as cs) }
      when generation = g && top.Serve.owner = o
           && List.for_all
                (fun (c : Serve.candidate) -> Serve.Providers c.providers = row g c.owner)
                cs ->
        Some g
    | Op_stats, Stats_json raw when stats_ok g raw -> Some g
    | Op_ping, Pong -> Some g
    | Op_republish { short = false }, Republished { generation } when generation = g + 1 ->
        Some (g + 1)
    | Op_republish { short = true }, Server_error msg when contains msg "republish" -> Some g
    | _ -> None
  in
  Test.make ~name:"daemon answers random pipelines in order, per generation" ~count:25 arb
    (fun ops ->
      with_server ~resolver indexes.(0) (fun addr engine ->
          let responses =
            with_raw_socket addr (fun fd ->
                write_all fd (frames_of (requests ops)) 0;
                Unix.shutdown fd Unix.SHUTDOWN_SEND;
                read_responses fd)
          in
          List.length responses = List.length ops
          &&
          let final =
            List.fold_left2
              (fun g op response -> Option.bind g (fun g -> step g op response))
              (Some 1) ops responses
          in
          final = Some (Serve.generation engine)))

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
      ]
  in
  let gen_frame =
    Gen.oneof
      [ Gen.map (fun r -> Wire.Request r) gen_request; Gen.map (fun r -> Wire.Response r) gen_response ]
  in
  (* Matrices for the codec's reference properties: each row is empty,
     2% dense, 30% dense (past the bitmap rule at 3c >= m) or of a
     uniformly drawn density. *)
  let gen_codec_matrix =
    let build (n, m, seed) =
      let rng = Rng.create seed in
      let matrix = Bitmatrix.create ~rows:n ~cols:m in
      for j = 0 to n - 1 do
        let density =
          match Rng.int rng 4 with 0 -> 0.0 | 1 -> 0.02 | 2 -> 0.3 | _ -> Rng.float rng 1.0
        in
        for p = 0 to m - 1 do
          if Rng.float rng 1.0 < density then Bitmatrix.set matrix ~row:j ~col:p true
        done
      done;
      Eppi.Index.of_matrix matrix
    in
    make
      ~print:(fun index ->
        let mx = Eppi.Index.matrix index in
        Printf.sprintf "%dx%d %S" (Bitmatrix.rows mx) (Bitmatrix.cols mx)
          (Reference.encode index))
      Gen.(map build (triple (int_range 1 40) (int_range 1 300) (int_range 0 1_000_000)))
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
    Test.make ~name:"index codec encodes like the reference" ~count:300 gen_codec_matrix
      (fun index ->
        let payload = Index_codec.encode index in
        String.equal payload (Reference.encode index)
        && same_decode (Index_codec.decode payload) (Ok index));
    Test.make ~name:"index codec prefixes decode like the reference" ~count:100 gen_codec_matrix
      (fun index ->
        let payload = Index_codec.encode index in
        let ok = ref true in
        for len = 0 to String.length payload - 1 do
          let prefix = String.sub payload 0 len in
          if not (same_decode (Index_codec.decode prefix) (Reference.decode prefix)) then
            ok := false
        done;
        !ok);
    (* At every byte: each single-bit flip, the complement and one XOR
       drawn per case, so runs together cover every byte mutation. *)
    Test.make ~name:"index codec mutations decode like the reference" ~count:20
      (pair gen_codec_matrix (int_range 1 255))
      (fun (index, drawn) ->
        let payload = Index_codec.encode index in
        let b = Bytes.of_string payload in
        let ok = ref true in
        for i = 0 to String.length payload - 1 do
          List.iter
            (fun delta ->
              Bytes.set b i (Char.chr (Char.code payload.[i] lxor delta));
              let mutated = Bytes.to_string b in
              if not (same_decode (Index_codec.decode mutated) (Reference.decode mutated)) then
                ok := false)
            [ 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0xFF; drawn ];
          Bytes.set b i payload.[i]
        done;
        !ok);
    Test.make ~name:"postings decoder agrees with decode on every prefix" ~count:100
      gen_codec_matrix (fun index ->
        let payload = Index_codec.encode index in
        let ok = ref (postings_decode_agrees payload) in
        for len = 0 to String.length payload - 1 do
          if not (postings_decode_agrees (String.sub payload 0 len)) then ok := false
        done;
        !ok);
    Test.make ~name:"postings decoder agrees with decode on byte mutations" ~count:20
      (pair gen_codec_matrix (int_range 1 255))
      (fun (index, drawn) ->
        let payload = Index_codec.encode index in
        let b = Bytes.of_string payload in
        let ok = ref true in
        for i = 0 to String.length payload - 1 do
          List.iter
            (fun delta ->
              Bytes.set b i (Char.chr (Char.code payload.[i] lxor delta));
              if not (postings_decode_agrees (Bytes.to_string b)) then ok := false)
            [ 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0xFF; drawn ];
          Bytes.set b i payload.[i]
        done;
        !ok);
    Test.make ~name:"index codec decode is total on junk" ~count:500
      (make Gen.(small_string ~gen:char))
      (fun junk ->
        (* Version-byte prefix steers the fuzz past the cheapest reject. *)
        List.for_all
          (fun payload ->
            (match Index_codec.decode payload with Ok _ | Error _ -> true)
            && postings_decode_agrees payload)
          [ junk; "\x01" ^ junk ]);
    daemon_pipeline_property;
  ]

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "round-trips every frame type" `Quick test_codec_roundtrip;
          Alcotest.test_case "split-read reassembly" `Quick test_codec_split_reads;
          Alcotest.test_case "partial frame wants more bytes" `Quick test_codec_partial_frame;
          Alcotest.test_case "large frames reassemble, copied under twice" `Quick
            test_codec_large_frames;
          Alcotest.test_case "a header reserves what arrives" `Quick
            test_codec_header_reserves_little;
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
          Alcotest.test_case "payloads and postings pinned" `Quick test_index_codec_pinned;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "query, pipeline, audit, stats" `Quick test_daemon_basics;
          Alcotest.test_case "rate limit admits one burst" `Quick test_daemon_admission;
          Alcotest.test_case "hot-swap republish" `Quick test_daemon_republish;
          Alcotest.test_case "binary republish" `Quick test_daemon_republish_binary;
          Alcotest.test_case "pipelined republish ordering" `Quick test_republish_ordering;
          Alcotest.test_case "cluster status over the wire" `Quick test_daemon_cluster_status;
          Alcotest.test_case "one swap per republish" `Quick test_daemon_swaps_per_republish;
          Alcotest.test_case "pipelined mixed requests" `Quick test_daemon_pipeline;
          Alcotest.test_case "hot swap under concurrent load" `Quick
            test_daemon_hot_swap_under_load;
          Alcotest.test_case "fuzzy lookups end-to-end" `Quick test_daemon_fuzzy;
          Alcotest.test_case "fuzzy without a resolver" `Quick test_daemon_fuzzy_no_resolver;
          Alcotest.test_case "fuzzy hot swap stays generation-consistent" `Quick
            test_daemon_fuzzy_hot_swap;
          Alcotest.test_case "trace-driven replay" `Quick test_daemon_replay;
          Alcotest.test_case "replay loads jsonl" `Quick test_replay_load_jsonl;
          Alcotest.test_case "clean shutdown" `Quick test_daemon_shutdown;
          Alcotest.test_case "listen hygiene" `Quick test_listen_stale_and_occupied;
          Alcotest.test_case "socket path appears listening" `Quick
            test_listen_path_appears_listening;
          Alcotest.test_case "half-closed client gets every reply" `Quick
            test_daemon_half_closed;
          Alcotest.test_case "slow reader gets every reply" `Quick test_daemon_slow_reader;
          Alcotest.test_case "retired tags refused" `Quick test_daemon_retired_tag;
          Alcotest.test_case "stdio serves the same loop" `Quick test_stdio_daemon;
          Alcotest.test_case "sparse provider count costs kilobytes" `Quick
            test_sparse_payload_costs_kilobytes;
          Alcotest.test_case "second daemon refused on a served path" `Quick
            test_cli_listen_in_use;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stage conservation, inline daemon" `Quick test_daemon_telemetry;
          Alcotest.test_case "trace id joins client and server tracks" `Quick
            test_trace_propagation;
          Alcotest.test_case "stats and telemetry schemas pinned" `Quick test_reply_schemas;
          Alcotest.test_case "stats --watch and top print one latency" `Quick
            test_cli_one_latency;
        ] );
      ( "client robustness",
        [
          Alcotest.test_case "request timeout" `Quick test_client_request_timeout;
          Alcotest.test_case "connection lost at once" `Quick
            test_client_connection_lost_at_once;
          Alcotest.test_case "unreachable CLI exits 1" `Quick test_cli_unreachable;
          Alcotest.test_case "start-up failures exit 1" `Quick test_cli_startup_failures;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
