open Eppi_prelude

type share = int

(* The one draw rule: shares 0 .. c-2 are one [Rng.fill_below] fill of c-1
   residues, share c-1 balances the sum to v.  [share_bits] fills a whole
   vector's draws at once in the same identity-major order, so seeded runs
   replay bit-identically whichever entry point drew them. *)
let share rng ~q ~c v =
  if c < 1 then invalid_arg "Additive.share: need at least one share";
  let drawn = Array.make (c - 1) 0 in
  Rng.fill_below rng (Modarith.to_int q) drawn;
  Array.append drawn [| Modarith.sub q v (Array.fold_left (Modarith.add q) 0 drawn) |]

let reconstruct ~q shares = Array.fold_left (Modarith.add q) 0 shares

let add ~q a b =
  if Array.length a <> Array.length b then invalid_arg "Additive.add: length mismatch";
  Array.map2 (Modarith.add q) a b

let zero_sharing rng ~q ~c = share rng ~q ~c 0

let rerandomize rng ~q shares =
  add ~q shares (zero_sharing rng ~q ~c:(Array.length shares))

(* ---------- packed share vectors ---------- *)

type vector = Bytes.t

(* Unchecked native-endian accessors.  Every loop below checks its vectors'
   lengths once up front; the per-residue work is then these primitives and
   a local compare-and-subtract, with no call out of this module. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] get w v o = if w = 2 then get16 v o else Int32.to_int (get32 v o)
let[@inline] set w v o x = if w = 2 then set16 v o x else set32 v o (Int32.of_int x)

let[@inline] add_mod q a b =
  let s = a + b in
  if s >= q then s - q else s

let[@inline] sub_mod q a b =
  let d = a - b in
  if d < 0 then d + q else d

let width q = if Modarith.to_int q <= 1 lsl 16 then 2 else 4
let vector ~q n = Bytes.make (n * width q) '\000'

let to_array ~q v =
  let w = width q in
  let a = Array.make (Bytes.length v / w) 0 in
  for j = 0 to Array.length a - 1 do
    Array.unsafe_set a j (get w v (j * w))
  done;
  a

let of_array ~q a =
  let qi = Modarith.to_int q and w = width q in
  let v = Bytes.create (Array.length a * w) in
  Array.iteri
    (fun j x ->
      if x < 0 || x >= qi then invalid_arg "Additive.of_array: residue out of [0, q)";
      set w v (j * w) x)
    a;
  v

let share_bits rng ~q ~bits ~pos ~draws ~into =
  let c = Array.length into in
  if c < 2 then invalid_arg "Additive.share_bits: need at least two shares";
  let w = width q in
  let len = Bytes.length into.(0) in
  let n = len / w in
  if Array.exists (fun v -> Bytes.length v <> len) into
     || Array.length draws <> (c - 1) * n
     || pos < 0
     || pos + ((n + 7) / 8) > Bytes.length bits
  then invalid_arg "Additive.share_bits: length mismatch";
  let qi = Modarith.to_int q in
  Rng.fill_below rng qi draws;
  let own = into.(0) and last = into.(c - 1) in
  for j = 0 to n - 1 do
    let o = j * w and base = j * (c - 1) in
    let s0 = Array.unsafe_get draws base in
    set w own o (add_mod qi (get w own o) s0);
    let partial = ref s0 in
    for k = 1 to c - 2 do
      let s = Array.unsafe_get draws (base + k) in
      set w (Array.unsafe_get into k) o s;
      partial := add_mod qi !partial s
    done;
    let v = (Char.code (Bytes.unsafe_get bits (pos + (j lsr 3))) lsr (j land 7)) land 1 in
    set w last o (sub_mod qi v !partial)
  done

let add_into ~q ~acc b =
  if Bytes.length acc <> Bytes.length b then invalid_arg "Additive.add_into: length mismatch";
  let qi = Modarith.to_int q and w = width q in
  for j = 0 to (Bytes.length b / w) - 1 do
    let o = j * w in
    set w acc o (add_mod qi (get w acc o) (get w b o))
  done
