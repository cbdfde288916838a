open Eppi_prelude
module Postings = Eppi_serve.Postings

let codec_version = 1

type error =
  | Unsupported_version of int
  | Truncated of string
  | Malformed of string

let error_to_string = function
  | Unsupported_version v -> Printf.sprintf "unsupported index codec version %d" v
  | Truncated what -> Printf.sprintf "truncated input (%s)" what
  | Malformed msg -> Printf.sprintf "malformed index: %s" msg

(* floor(log2 x) for x >= 1 *)
let ilog2 x =
  let k = ref 0 and v = ref x in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

(* Rice parameter for a row of [c] ids out of [m] providers.  The gaps of a
   uniformly sparse row are near-geometric with mean mu = (m - c)/(c + 1);
   the classic rule 2^k ~ ln(2) * mu picks the parameter within a fraction
   of a bit of the Golomb optimum.  Computed in integer arithmetic (scaled
   by 1000, rounded to the nearest power of two in log space) so encoder
   and decoder derive the identical k from (c, m) alone — the format spends
   no bits on it. *)
let rice_k ~c ~m =
  let mu_scaled = 693 * (m - c) / (1000 * (c + 1)) in
  if mu_scaled <= 1 then 0
  else
    let k = ilog2 mu_scaled in
    if 2 * mu_scaled > 3 * (1 lsl k) then k + 1 else k

(* A row dense enough that Rice gaps would cost about as much as the raw
   m-bit bitmap (mean gap <= 2, so >= ~1/3 density) is stored as the
   bitmap.  Both sides apply this rule, so no per-row flag is spent. *)
let row_is_bitmap ~m count = 3 * count >= m

(* ---- unsigned LEB128 (byte-aligned header fields) ---- *)

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

exception Fail of error

type cursor = { payload : string; mutable pos : int }

(* [what arg] names the field in an error; it is built only when one is
   raised, so reading n row counts formats no string. *)
let get_uvarint c what arg =
  let u = ref 0 and shift = ref 0 and value = ref (-1) in
  while !value < 0 do
    if c.pos >= String.length c.payload then raise (Fail (Truncated (what arg)));
    if !shift > 56 then raise (Fail (Malformed (what arg ^ ": varint longer than 9 bytes")));
    let byte = Char.code c.payload.[c.pos] in
    c.pos <- c.pos + 1;
    u := !u lor ((byte land 0x7F) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then value := !u
  done;
  !value

(* ---- bit stream (row bodies) ----

   Bits are appended LSB-first within each byte: stream bit i is
   [(byte i/8 lsr (i mod 8)) land 1].  The whole body is one continuous
   stream; only the final byte is padded (with zero bits), so per-row
   alignment costs nothing. *)

(* The writer holds fewer than 8 pending bits in [acc] between calls, so
   appending up to [max_put] bits never overflows an int; whole bytes go
   to the buffer as soon as they are complete. *)
type bitwriter = { buf : Buffer.t; mutable acc : int; mutable nbits : int }

let max_put = 55

let writer buf = { buf; acc = 0; nbits = 0 }

(* Append the [n <= max_put] low bits of [v] (higher bits zero). *)
let put_bits w v n =
  let acc = ref (w.acc lor (v lsl w.nbits)) and nbits = ref (w.nbits + n) in
  while !nbits >= 8 do
    Buffer.add_char w.buf (Char.unsafe_chr (!acc land 0xFF));
    acc := !acc lsr 8;
    nbits := !nbits - 8
  done;
  w.acc <- !acc;
  w.nbits <- !nbits

let flush_writer w =
  if w.nbits > 0 then begin
    Buffer.add_char w.buf (Char.chr w.acc);
    w.acc <- 0;
    w.nbits <- 0
  end

(* The reader keeps a window of up to 56 unread stream bits in an int,
   [win]'s bit 0 first, and refills it with whole bytes until it holds
   more than 48 bits.  Only a refill can find the payload exhausted, so
   truncation is checked once per refill rather than once per bit. *)
type bitreader = {
  c : cursor;
  mutable next : int;  (** First payload byte not yet in the window. *)
  mutable win : int;
  mutable avail : int;  (** Valid bits in [win], at most 56. *)
}

let reader c = { c; next = c.pos; win = 0; avail = 0 }

(* While 8 payload bytes remain, one 64-bit load supplies the bytes the
   window lacks; the last few are taken one at a time.  Either way the
   window ends holding the same bits. *)
let refill r =
  let payload = r.c.payload in
  if r.next + 8 <= String.length payload then begin
    let bytes = (56 - r.avail) lsr 3 in
    let w = Int64.to_int (String.get_int64_le payload r.next) land ((1 lsl (bytes lsl 3)) - 1) in
    r.win <- r.win lor (w lsl r.avail);
    r.avail <- r.avail + (bytes lsl 3);
    r.next <- r.next + bytes
  end
  else
    while r.avail <= 48 && r.next < String.length payload do
      r.win <- r.win lor (Char.code (String.unsafe_get payload r.next) lsl r.avail);
      r.avail <- r.avail + 8;
      r.next <- r.next + 1
    done

let[@inline] skip r n =
  r.win <- r.win lsr n;
  r.avail <- r.avail - n

(* Close the body stream: zero pad bits to the byte boundary, exact length.
   The window always ends on a byte boundary, so the unread bits of the
   current byte are its low [avail mod 8] bits. *)
let finish_reader r =
  if r.win land ((1 lsl (r.avail land 7)) - 1) <> 0 then
    raise (Fail (Malformed "nonzero padding bits"));
  r.c.pos <- r.next - (r.avail lsr 3)

(* ---- row bodies ---- *)

(* Gaps: g_0 = p_0 and g_i = p_i - p_{i-1} - 1, so strictly ascending rows
   are exactly the rows with all gaps >= 0 — ordering is free by
   construction on both sides.  Each gap is Rice-coded: quotient
   [g lsr k] in unary (that many 1-bits, then a 0), then the k low bits.
   A gap is one [put_bits] when it fits; a longer unary run goes out in
   [max_put]-bit runs of ones first. *)
let put_gap w g ~k =
  let q = g lsr k and low = g land ((1 lsl k) - 1) in
  if q + 1 + k <= max_put then put_bits w (((1 lsl q) - 1) lor (low lsl (q + 1))) (q + 1 + k)
  else begin
    let q = ref q in
    while !q > max_put do
      put_bits w ((1 lsl max_put) - 1) max_put;
      q := !q - max_put
    done;
    put_bits w ((1 lsl !q) - 1) !q;
    put_bits w (low lsl 1) (k + 1)
  end

(* Bitmap rows are copied out of the row's packed bytes 8 bits at a time;
   [scratch] holds at least (m + 7) / 8 bytes and the bits past m in the
   last byte are zero. *)
let put_row w ~scratch row ~c ~m =
  if row_is_bitmap ~m c then begin
    Bitvec.blit_bytes row scratch 0;
    let full = m lsr 3 in
    for b = 0 to full - 1 do
      put_bits w (Char.code (Bytes.unsafe_get scratch b)) 8
    done;
    if m land 7 <> 0 then put_bits w (Char.code (Bytes.unsafe_get scratch full)) (m land 7)
  end
  else begin
    let k = rice_k ~c ~m in
    let prev = ref (-1) in
    Bitvec.iter_set
      (fun p ->
        put_gap w (p - !prev - 1) ~k;
        prev := p)
      row
  end

let row_what j = Printf.sprintf "row %d" j

(* A row fails with exactly the error a bit-at-a-time reader gives on the
   same input (the test suite keeps one as its reference): a bitmap is
   truncated unless all m bits are there; a unary run is malformed at its
   first 1-bit past the largest quotient a gap below m allows, even if
   the input ends later in the run; a gap's k low bits are truncated
   unless all are there.  Bitmaps are taken 48 bits at a time, which a
   refill always provides while bytes remain.

   Each published cell (j, p) goes to [cell ~row:j p], in ascending order,
   and never more than [c] of them per row: a bitmap's population is
   checked only once its m bits are read, and a builder sized from the
   counts must not be handed a cell past them. *)
let get_row r ~cell ~j ~c ~m =
  if row_is_bitmap ~m c then begin
    let set = ref 0 and p = ref 0 in
    while !p < m do
      let n = min 48 (m - !p) in
      if r.avail < n then refill r;
      if r.avail < n then raise (Fail (Truncated (row_what j)));
      let bits = ref (r.win land ((1 lsl n) - 1)) in
      skip r n;
      while !bits <> 0 do
        if !set < c then cell ~row:j (!p + Bitvec.lowest_bit !bits);
        incr set;
        bits := !bits land (!bits - 1)
      done;
      p := !p + n
    done;
    if !set <> c then
      raise
        (Fail
           (Malformed (Printf.sprintf "%s: bitmap population %d, declared count %d" (row_what j) !set c)))
  end
  else begin
    let k = rice_k ~c ~m in
    (* A valid gap never exceeds m, so neither does its quotient. *)
    let max_q = m lsr k in
    let prev = ref (-1) in
    for _ = 1 to c do
      let q = ref 0 and run = ref true in
      while !run do
        if r.avail = 0 then refill r;
        if r.avail = 0 then raise (Fail (Truncated (row_what j)));
        (* Trailing ones of the window, the index of its lowest zero bit:
           [avail] when every unread bit is a one (bits past [avail] are
           zero). *)
        let ones = Bitvec.lowest_bit (lnot r.win) in
        if !q + ones > max_q then
          raise (Fail (Malformed (row_what j ^ ": gap exceeds provider count")));
        if ones < r.avail then begin
          q := !q + ones;
          skip r (ones + 1);
          run := false
        end
        else begin
          q := !q + r.avail;
          skip r r.avail
        end
      done;
      if r.avail < k then refill r;
      if r.avail < k then raise (Fail (Truncated (row_what j)));
      let g = (!q lsl k) lor (r.win land ((1 lsl k) - 1)) in
      skip r k;
      let p = !prev + 1 + g in
      if p >= m then
        raise (Fail (Malformed (Printf.sprintf "%s: provider %d >= %d" (row_what j) p m)));
      prev := p;
      cell ~row:j p
    done
  end

(* ---- encoding ---- *)

let uvarint_bytes n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

(* An upper bound on the payload's size from the row counts alone, so the
   buffer is allocated once without a sizing pass over the rows.  A Rice
   row's gaps sum to at most m - c, so its unary quotients sum to at most
   (m - c) lsr k. *)
let size_bound ~m counts =
  let header = ref (1 + uvarint_bytes (Array.length counts) + uvarint_bytes m) in
  let bits = ref 0 in
  Array.iter
    (fun c ->
      header := !header + uvarint_bytes c;
      if c > 0 then
        bits :=
          !bits
          +
          if row_is_bitmap ~m c then m
          else
            let k = rice_k ~c ~m in
            (c * (k + 1)) + ((m - c) lsr k))
    counts;
  !header + ((!bits + 7) / 8)

let encode index =
  let matrix = Eppi.Index.matrix index in
  let n = Bitmatrix.rows matrix and m = Bitmatrix.cols matrix in
  let counts = Array.init n (Bitmatrix.row_count matrix) in
  let b = Buffer.create (size_bound ~m counts) in
  Buffer.add_char b (Char.chr codec_version);
  put_uvarint b n;
  put_uvarint b m;
  Array.iter (put_uvarint b) counts;
  let w = writer b and scratch = Bytes.create ((m + 7) / 8) in
  for j = 0 to n - 1 do
    put_row w ~scratch (Bitmatrix.row matrix j) ~c:counts.(j) ~m
  done;
  flush_writer w;
  Buffer.contents b

(* ---- decoding ---- *)

let dims_limit = 1 lsl 30

(* The header alone could demand an arbitrarily large allocation, so
   everything a decoder sizes from it is bounded here, BEFORE anything is
   allocated, by the same rules for both decoders:
   - [cells_limit] caps the matrix [decode] materializes, n*m bits no
     matter how sparse the payload is (2^33 bits = 1 GiB of backing), far
     above any index this daemon serves but far below an allocation that
     would take the process down;
   - [table_words_limit] caps, by the same 1 GiB, the tables indexed by
     owner or provider: the n row counts here, and [decode_postings]'s
     n + 1 forward and m + 1 inverse offsets;
   - the published cells are bounded by the body's bit length, since
     every cell costs at least one bit (a Rice gap its terminating 0, a
     bitmap row m >= c bits), so the packed postings grow with the
     payload, not with its header. *)
let cells_limit = 1 lsl 33
let table_words_limit = 1 lsl 27

let count_what j = Printf.sprintf "count of row %d" j

(* Version, dimensions and row counts; the cursor is left at the body. *)
let read_header c =
  let payload = c.payload in
  if String.length payload = 0 then raise (Fail (Truncated "version byte"));
  let v = Char.code payload.[0] in
  c.pos <- 1;
  if v <> codec_version then raise (Fail (Unsupported_version v));
  let n = get_uvarint c Fun.id "owner count" in
  let m = get_uvarint c Fun.id "provider count" in
  if n < 1 || n > dims_limit then raise (Fail (Malformed (Printf.sprintf "owner count %d" n)));
  if m < 1 || m > dims_limit then
    raise (Fail (Malformed (Printf.sprintf "provider count %d" m)));
  if n * m > cells_limit then
    raise (Fail (Malformed (Printf.sprintf "matrix %dx%d exceeds %d cells" n m cells_limit)));
  if (2 * n) + m + 2 > table_words_limit then
    raise
      (Fail
         (Malformed
            (Printf.sprintf "tables for %d owners and %d providers exceed %d words" n m
               table_words_limit)));
  (* Every row count costs at least one byte, so a payload with fewer
     remaining bytes than rows is guaranteed truncated — reject before
     the counts array (n words) is allocated. *)
  if n > String.length payload - c.pos then raise (Fail (Truncated "row counts"));
  let cells = ref 0 in
  let counts =
    Array.init n (fun j ->
        let cnt = get_uvarint c count_what j in
        if cnt > m then
          raise (Fail (Malformed (Printf.sprintf "row %d count %d exceeds %d providers" j cnt m)));
        cells := !cells + cnt;
        cnt)
  in
  if !cells > 8 * (String.length payload - c.pos) then raise (Fail (Truncated "row bodies"));
  (m, counts)

let read_rows c ~m counts ~cell =
  let r = reader c in
  Array.iteri (fun j cnt -> get_row r ~cell ~j ~c:cnt ~m) counts;
  finish_reader r;
  if c.pos <> String.length c.payload then
    raise
      (Fail (Malformed (Printf.sprintf "%d trailing bytes" (String.length c.payload - c.pos))))

(* Both decoders run [read_header] then [read_rows], so they accept the
   same payloads and fail with the same errors; they differ only in what
   a cell is written to. *)
let decoding build payload =
  match build { payload; pos = 0 } with
  | v -> Ok v
  | exception Fail e -> Error e
  (* Defense in depth behind the dimension caps: the total Ok/Error
     contract must hold even if an allocation still fails — this decoder
     runs in the daemon's loop fed bytes off the network, and an escaped
     Out_of_memory would reach the handler's barrier as an untyped
     failure instead of a decode error. *)
  | exception Out_of_memory -> Error (Malformed "index too large to materialize")
  | exception Invalid_argument msg -> Error (Malformed msg)

let decode =
  decoding (fun c ->
      let m, counts = read_header c in
      let matrix = Bitmatrix.create ~rows:(Array.length counts) ~cols:m in
      read_rows c ~m counts ~cell:(fun ~row p -> Bitmatrix.set matrix ~row ~col:p true);
      Eppi.Index.of_matrix matrix)

let decode_postings =
  decoding (fun c ->
      let m, counts = read_header c in
      let b = Postings.builder ~providers:m counts in
      read_rows c ~m counts ~cell:(fun ~row p -> Postings.add b ~owner:row p);
      Postings.finish b)
