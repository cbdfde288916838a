(** Compact binary serialization of a published {!Eppi.Index}.

    The republish hot path used to ship the index as CSV — one ASCII
    [j,p] line (~9 bytes) per published cell, parsed line by line on the
    daemon's I/O loop.  This codec is the replacement payload: rows are
    Rice-coded gap sequences (near the entropy of a sparse row, ~8 bits
    per cell at the bench's n=2000 x m=1024 scale) or raw bitmaps when
    dense, self-describing and versioned, and roughly an order of
    magnitude smaller than the CSV.

    Layout (codec version 1; varints are unsigned LEB128; the body is one
    continuous bit stream, LSB-first within each byte, zero-padded to a
    byte boundary only at the very end):

    {v
    byte 0        codec version (1)
    varint        owners  n  (>= 1)
    varint        providers m  (>= 1)
    n varints     row counts c_0 .. c_{n-1}, each in [0, m]
    bit stream    row bodies, concatenated.  Row j with c = c_j:
                    c = 0:         nothing
                    3c >= m:       m bits of bitmap (stream bit p = column p)
                    else:          c Rice-coded gaps g_0 = p_0,
                                   g_i = p_i - p_{i-1} - 1; each gap is
                                   ⌊g / 2^k⌋ 1-bits, a 0-bit, then the k
                                   low bits of g
    v}

    The Rice parameter [k] is derived identically on both sides from
    [(c, m)] — the nearest power of two to [ln 2 * (m - c)/(c + 1)], the
    mean gap rule — so the format spends no bits on it, and the per-row
    bitmap/gaps choice is the shared [3c >= m] density rule, so no
    per-row flag is spent either.  Encoding gaps rather than absolute ids
    makes strict ascent structural: any decoded row is sorted by
    construction.

    Both directions move whole words, not single bits: the encoder keeps
    pending bits in an int and appends a Rice gap (or 8 bitmap bits) per
    call, emitting whole bytes; the decoder reads from a window of up to
    56 bits, refilled by one 64-bit load while 8 payload bytes remain,
    taking a unary run (its trailing ones) or a k-bit field per step.  The encoder sizes its buffer from
    the row counts alone (an upper bound), so it reads each row once.

    Decoding validates everything it reads: version, dimensions, counts,
    bit-population, ordering, range, padding, and exact payload length.
    Malformed input is a typed {!error}, never an exception — the daemon
    feeds these decoders bytes that arrived off the network.  Both
    decoders read the header and every row through the same code, so they
    accept the same payloads and fail with the same errors.

    Allocation bound.  The header is checked {e before} anything is
    allocated from it, so a small hostile header cannot demand a huge
    allocation.  A decoder allocates at most:
    - the n row counts, n <= the payload's length in bytes;
    - for {!decode}, the n x m matrix: n*m <= 2^33 bits (1 GiB);
    - for {!decode_postings}, n + 1 forward and m + 1 inverse offsets,
      with the row counts 2n + m + 2 <= 2^27 words (1 GiB), and two packed
      entry buffers of at most 30 bits per published cell each.  The
      header's row counts sum to at most the body's length in bits (every
      cell costs at least one), so the buffers grow with the payload. *)

type error =
  | Unsupported_version of int  (** First byte is not a known version. *)
  | Truncated of string  (** Input ended inside the named field. *)
  | Malformed of string  (** Structurally invalid (bad count, id out of
                             range, unsorted row, nonzero padding, …). *)

val error_to_string : error -> string

val encode : Eppi.Index.t -> string
(** Serialize the index.  Deterministic: equal matrices encode to equal
    strings. *)

val decode : string -> (Eppi.Index.t, error) result
(** Inverse of {!encode}.  Total: any input returns [Ok] or a typed
    [Error]; [decode (encode i)] is an index with the same matrix. *)

val decode_postings : string -> (Eppi_serve.Postings.t, error) result
(** The payload compiled straight into serving postings, in one pass with
    no matrix in between: [Ok] exactly when {!decode} is [Ok], with the
    store [Postings.of_index] builds from its index, and otherwise
    {!decode}'s [Error]. *)
