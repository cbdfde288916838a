module B = Circuit.Builder

type t = {
  word : Word.word;
  frac_bits : int;
}

let constant b ~width ~frac_bits v =
  if v < 0.0 then invalid_arg "Fixedpoint.constant: negative value";
  let scaled = Float.round (v *. float_of_int (1 lsl frac_bits)) in
  let cap = float_of_int ((1 lsl width) - 1) in
  let clamped = int_of_float (Float.min scaled cap) in
  { word = Word.const_int b ~width clamped; frac_bits }

let shift_left b word k =
  Array.append (Array.init k (fun _ -> B.const b false)) word

let of_int_word b word ~frac_bits = { word = shift_left b word frac_bits; frac_bits }

let to_float bits ~frac_bits =
  float_of_int (Word.to_int bits) /. float_of_int (1 lsl frac_bits)

let check_compat a c =
  if a.frac_bits <> c.frac_bits then invalid_arg "Fixedpoint: frac_bits mismatch"

let trim b word width =
  if Array.length word > width then Array.sub word 0 width else Word.zero_extend b word width

let add b a c =
  check_compat a c;
  { a with word = Word.add b a.word c.word }

let sub b a c =
  check_compat a c;
  { a with word = Word.sub b a.word c.word }

let double b a = { a with word = shift_left b a.word 1 }

let mul b a c ~width =
  check_compat a c;
  (* (wa * wc) / 2^f: drop the low f bits of the full product. *)
  let product = Word.mul b a.word c.word in
  let dropped = Array.sub product a.frac_bits (Array.length product - a.frac_bits) in
  { a with word = trim b dropped width }

let div b a c ~width =
  check_compat a c;
  (* (wa << f) / wc keeps the quotient in Q(f). *)
  let scaled = shift_left b a.word a.frac_bits in
  let q, _ = Word.divmod b scaled c.word in
  { a with word = trim b q width }

let div_by_int b a divisor ~width =
  let q, _ = Word.divmod b a.word divisor in
  { a with word = trim b q width }

let sqrt b a =
  (* sqrt(w / 2^f) = isqrt(w << f) / 2^f. *)
  let scaled = shift_left b a.word a.frac_bits in
  { a with word = Word.sqrt b scaled }

let ge b a c =
  check_compat a c;
  Word.ge b a.word c.word

let output b a = Word.output_word b a.word
