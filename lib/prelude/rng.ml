(* The 64-bit state lives in an 8-byte buffer: an [int64] stored into a
   mutable record field is boxed on every store, while raw byte reads and
   writes stay unboxed, so a draw allocates nothing in native code. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer: two xor-shift-multiply rounds give full avalanche. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let bits63 t = Int64.to_int (bits64 t)
let split t = of_state (Int64.logxor (bits64 t) 0xA02184DCF58B5B21L)
let copy = Bytes.copy

(* Non-negative 62-bit value, safe to treat as an OCaml int. *)
let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over [0, 2^62) keeps the draw unbiased. *)
  let limit = (1 lsl 62) - bound in
  let v = ref (bits62 t) in
  let r = ref (!v mod bound) in
  while !v - !r > limit do
    v := bits62 t;
    r := !v mod bound
  done;
  !r

(* Lemire's multiply-shift: 31 random bits times the bound is a product below
   2^62 whose high part [p lsr 31] lies in [0, bound).  Rejecting products
   whose low 31 bits fall below 2^31 mod bound leaves every value exactly
   floor(2^31 / bound) preimages, so the draw is exactly uniform; the one
   division is per call, not per element.  The state stays in a register
   for the whole fill and is stored back once. *)
let fill_below t bound dst =
  if bound <= 0 || bound >= 1 lsl 31 then invalid_arg "Rng.fill_below: bound must be in [1, 2^31)";
  let threshold = (1 lsl 31) mod bound in
  let state = ref (Bytes.get_int64_ne t 0) in
  let i = ref 0 in
  while !i < Array.length dst do
    state := Int64.add !state golden_gamma;
    let p = Int64.to_int (Int64.shift_right_logical (mix !state) 33) * bound in
    if p land 0x7fff_ffff >= threshold then begin
      Array.unsafe_set dst !i (p lsr 31);
      incr i
    end
  done;
  Bytes.set_int64_ne t 0 !state

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 random bits scaled into [0, 1). *)
let[@inline] unit_float t = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1p-53

let float t x = unit_float t *. x
let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t ~k ~n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Partial Fisher-Yates: only the first k slots are finalized. *)
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k
