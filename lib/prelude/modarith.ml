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
