open Eppi_prelude

type params = {
  bits : int;
  hashes : int;
  seed : int;
}

let default_params = { bits = 128; hashes = 4; seed = 7 }
let keyed ~seed ?(bits = 256) ?(hashes = 4) () = { bits; hashes; seed }

type t = { params : params; filter : Bitvec.t }

(* Set bigram [a b]'s keyed positions: [hashes] indexes drawn from a
   splitmix stream seeded by folding h <- 131 h + code over (seed, a, b). *)
let set_gram params filter a b =
  let h = Int64.add (Int64.mul (Int64.of_int params.seed) 131L) (Int64.of_int (Char.code a)) in
  let h = Int64.add (Int64.mul h 131L) (Int64.of_int (Char.code b)) in
  let rng = Rng.create (Int64.to_int h) in
  for _ = 1 to params.hashes do
    Bitvec.set filter (Rng.int rng params.bits)
  done

let encode params field =
  if params.bits <= 0 || params.hashes <= 0 then invalid_arg "Bloom.encode: bad parameters";
  let filter = Bitvec.create params.bits in
  Text.iter_bigrams (set_gram params filter) field;
  { params; filter }

let dice a b =
  if a.params <> b.params then invalid_arg "Bloom.dice: incompatible parameters";
  let ca = Bitvec.count a.filter and cb = Bitvec.count b.filter in
  if ca = 0 && cb = 0 then 1.0
  else begin
    let common = Bitvec.count (Bitvec.inter a.filter b.filter) in
    2.0 *. float_of_int common /. float_of_int (ca + cb)
  end

let bit_count t = Bitvec.count t.filter
let to_bitvec t = Bitvec.copy t.filter
