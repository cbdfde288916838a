type modulus = int

let modulus q =
  if q < 2 || q >= 1 lsl 31 then invalid_arg "Modarith.modulus: need 2 <= q < 2^31";
  q

let to_int q = q

let reduce q x =
  let r = x mod q in
  if r < 0 then r + q else r

let add q a b = reduce q (reduce q a + reduce q b)
let sub q a b = reduce q (reduce q a - reduce q b)
let mul q a b = reduce q (reduce q a * reduce q b)
let neg q a = reduce q (-reduce q a)

let pow q b e =
  if e < 0 then invalid_arg "Modarith.pow: negative exponent";
  let rec go b e acc =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul q acc b else acc in
      go (mul q b b) (e lsr 1) acc
    end
  in
  go (reduce q b) e 1

let inv q a =
  let a = reduce q a in
  if a = 0 then invalid_arg "Modarith.inv: zero is not invertible";
  (* Extended Euclid: track x with old_r = a * x (mod q). *)
  let rec go old_r r old_x x =
    if r = 0 then
      if old_r <> 1 then invalid_arg "Modarith.inv: argument not coprime with modulus"
      else reduce q old_x
    else begin
      let quot = old_r / r in
      go r (old_r - (quot * r)) x (old_x - (quot * x))
    end
  in
  go a q 1 0

let is_prime n =
  if n < 2 then false
  else if n < 4 then true
  else if n mod 2 = 0 then false
  else begin
    let rec go d = if d * d > n then true else if n mod d = 0 then false else go (d + 2) in
    go 3
  end

let next_prime n =
  let rec go c = if is_prime c then c else go (c + 1) in
  go (max 2 (n + 1))
