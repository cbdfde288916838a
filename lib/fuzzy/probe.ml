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

let dob_string (y, m, d) =
  if y = 0 && m = 0 && d = 0 then "" else Printf.sprintf "%04d%02d%02d" y m d

let filter (params : Bloom.params) field =
  if field = "" then Bitvec.create params.bits
  else Bloom.to_bitvec (Bloom.encode params field)

(* Soundex-of-last-name and birth-year buckets, mirroring Linkage's
   offline blocking; either key alone recovers a candidate, so one
   corrupted field does not lose the match. *)
let blocking_keys (params : Bloom.params) (r : Demographic.t) =
  let keys = ref [] in
  let y, _, _ = r.dob in
  if y > 0 then keys := keyed_hash params.seed ("y:" ^ string_of_int y) :: !keys;
  if r.last <> "" then keys := keyed_hash params.seed ("s:" ^ Text.soundex r.last) :: !keys;
  Array.of_list !keys

let of_demographic (params : Bloom.params) (r : Demographic.t) =
  if params.bits <= 0 || params.hashes <= 0 then
    invalid_arg "Probe.of_demographic: bad parameters";
  {
    keys = blocking_keys params r;
    bits = params.bits;
    hashes = params.hashes;
    first = filter params r.first;
    last = filter params r.last;
    dob = filter params (dob_string r.dob);
    zip = filter params r.zip;
  }

let routing_hash t =
  let mix acc v = ((acc * 1_000_003) lxor v) land max_int in
  let h = Array.fold_left mix t.bits t.keys in
  (* Fold a filter fingerprint in so keyless probes still spread. *)
  let h = mix h (Bitvec.count t.first lsl 12) in
  let h = mix h (Bitvec.count t.dob lsl 6) in
  mix h (Bitvec.count t.zip)
