open Eppi_prelude
open Eppi_linkage

type t = {
  keys : int array;
  bits : int;
  hashes : int;
  first : Bitvec.t;
  last : Bitvec.t;
  dob : Bitvec.t;
  zip : Bitvec.t;
}

(* Same (seed, string) -> splitmix derivation as Bloom.positions, folded
   to 32 bits so a key costs at most five varint bytes on the wire.
   Collisions only merge blocking buckets (extra candidates to score),
   never lose one. *)
let keyed_hash seed s =
  let h = ref (Int64.of_int seed) in
  for i = 0 to String.length s - 1 do
    h := Int64.add (Int64.mul !h 131L) (Int64.of_int (Char.code (String.unsafe_get s i)))
  done;
  Int64.to_int (Rng.bits64 (Rng.create (Int64.to_int !h))) land 0xFFFF_FFFF

(* [n] in decimal, zero-padded after any sign to [width] characters, as
   Printf's "%0*d" writes it. *)
let padded width n =
  let s = string_of_int n in
  let len = String.length s in
  if len >= width then s
  else if n < 0 then "-" ^ String.make (width - len) '0' ^ String.sub s 1 (len - 1)
  else String.make (width - len) '0' ^ s

(* A date with a year of at most four digits and two-digit fields, as
   every roster date is, is the number yyyymmdd written into its 8 bytes;
   any other triple takes the general path. *)
let dob_string (y, m, d) =
  if y = 0 && m = 0 && d = 0 then ""
  else if y >= 0 && y <= 9999 && m >= 0 && m <= 99 && d >= 0 && d <= 99 then begin
    let b = Bytes.create 8 and v = ref ((y * 10000) + (m * 100) + d) in
    for i = 7 downto 0 do
      Bytes.set b i (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10
    done;
    Bytes.unsafe_to_string b
  end
  else padded 4 y ^ padded 2 m ^ padded 2 d

let filter (params : Bloom.params) field =
  if field = "" then Bitvec.create params.bits
  else Bloom.to_bitvec (Bloom.encode params field)

(* A record's blocking fields, each [None] when the record does not state
   it: the Soundex codes (always four characters) of the first and last
   names, and the birth year. *)
let blocking_fields (r : Demographic.t) =
  let soundex field = if field = "" then None else Some (Text.soundex field) in
  let y, _, _ = r.dob in
  (soundex r.first, soundex r.last, if y > 0 then Some (string_of_int y) else None)

(* The single-field keys: Soundex of the last name, then birth year. *)
let single_keys seed ~last ~year =
  let key prefix = Option.map (fun v -> keyed_hash seed (prefix ^ v)) in
  List.filter_map Fun.id [ key "s:" last; key "y:" year ]

(* The conjunctive keys: one per pair of Soundex(first), Soundex(last) and
   birth year, then the full date of birth when the year is stated.  One
   corrupted field leaves every pair without it intact, and the date key
   survives a typo in both names; each bucket is a small slice of the
   single-key buckets. *)
let pair_keys seed (first, last, year) ~date =
  let pair prefix a b =
    match (a, b) with
    | Some a, Some b -> Some (keyed_hash seed (prefix ^ a ^ ":" ^ b))
    | _ -> None
  in
  let date = Option.map (fun _ -> keyed_hash seed ("d:" ^ date)) year in
  List.filter_map Fun.id
    [ pair "fl:" first last; pair "fy:" first year; pair "ly:" last year; date ]

(* A probe stating first name, last name and birth year sends the four
   conjunctive keys; any other probe sends the single keys, exactly as
   probes did before the conjunctive keys existed. *)
let blocking_keys seed r ~date =
  match blocking_fields r with
  | (Some _, Some _, Some _) as fields -> pair_keys seed fields ~date
  | _, last, year -> single_keys seed ~last ~year

let filing_keys seed r ~date =
  let ((_, last, year) as fields) = blocking_fields r in
  pair_keys seed fields ~date @ single_keys seed ~last ~year

let encode (params : Bloom.params) ~keys (r : Demographic.t) =
  if params.bits <= 0 || params.hashes <= 0 then
    invalid_arg "Probe.of_demographic: bad parameters";
  let date = dob_string r.dob in
  {
    keys = Array.of_list (keys params.seed r ~date);
    bits = params.bits;
    hashes = params.hashes;
    first = filter params r.first;
    last = filter params r.last;
    dob = filter params date;
    zip = filter params r.zip;
  }

let of_demographic params r = encode params ~keys:blocking_keys r
let signature params r = encode params ~keys:filing_keys r

let routing_hash t =
  let mix acc v = ((acc * 1_000_003) lxor v) land max_int in
  let h = Array.fold_left mix t.bits t.keys in
  (* Fold a filter fingerprint in so keyless probes still spread. *)
  let h = mix h (Bitvec.count t.first lsl 12) in
  let h = mix h (Bitvec.count t.dob lsl 6) in
  mix h (Bitvec.count t.zip)
