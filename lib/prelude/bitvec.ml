type t = { len : int; data : Bytes.t }

(* The lowest set bit of [x], isolated as [x land (-x)] = 2^i, times the
   de Bruijn constant below has a distinct 6-bit pattern in bits 57..62
   for every i in 0..62 (OCaml ints multiply modulo 2^63), so one
   multiply and a table load give i: the count of trailing zeros that
   OCaml's Stdlib lacks. *)
let debruijn = 0x03f79d71b4cb0a89

let debruijn_index =
  let table = Array.make 64 0 in
  for i = 0 to 62 do
    table.(((debruijn lsl i) lsr 57) land 63) <- i
  done;
  table

let[@inline] lowest_bit x = Array.unsafe_get debruijn_index (((x land (-x)) * debruijn) lsr 57)

let[@inline] popcount64 x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

(* The bytes past the last whole 64-bit word (at most 7), as one int. *)
let tail_word t =
  let data = t.data in
  let w = ref 0 in
  for b = Bytes.length data - 1 downto Bytes.length data land lnot 7 do
    w := (!w lsl 8) lor Char.code (Bytes.unsafe_get data b)
  done;
  !w

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; data = Bytes.make ((len + 7) / 8) '\000' }

let length t = t.len

let check t i = if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check t i;
  Char.code (Bytes.unsafe_get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.data b
    (Char.chr (Char.code (Bytes.unsafe_get t.data b) lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.data b
    (Char.chr (Char.code (Bytes.unsafe_get t.data b) land lnot (1 lsl (i land 7)) land 0xff))

let assign t i v = if v then set t i else clear t i

let count t =
  let acc = ref 0 in
  let b = ref 0 and words = Bytes.length t.data land lnot 7 in
  while !b < words do
    acc := !acc + popcount64 (Bytes.get_int64_le t.data !b);
    b := !b + 8
  done;
  !acc + popcount64 (Int64.of_int (tail_word t))

let copy t = { len = t.len; data = Bytes.copy t.data }
let equal a b = a.len = b.len && Bytes.equal a.data b.data

let fill t v =
  if not v then Bytes.fill t.data 0 (Bytes.length t.data) '\000'
  else begin
    Bytes.fill t.data 0 (Bytes.length t.data) '\255';
    (* Keep the padding bits of the final byte zero so [count] stays exact. *)
    let rem = t.len land 7 in
    if rem <> 0 && Bytes.length t.data > 0 then
      Bytes.set t.data
        (Bytes.length t.data - 1)
        (Char.chr ((1 lsl rem) - 1))
  end

let binop op a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch";
  let r = create a.len in
  for i = 0 to Bytes.length a.data - 1 do
    Bytes.unsafe_set r.data i
      (Char.chr (op (Char.code (Bytes.unsafe_get a.data i)) (Char.code (Bytes.unsafe_get b.data i))))
  done;
  r

let union = binop ( lor )
let inter = binop ( land )
let diff = binop (fun x y -> x land lnot y land 0xff)

let blit_bytes t dst off = Bytes.blit t.data 0 dst off (Bytes.length t.data)

(* Word scans: each 64-bit word is read once, zero words are skipped in
   one comparison, and each set bit is found by isolating the lowest one
   ([lowest_bit]).  [Int64.to_int] keeps a word's bits 0..62, bit 62 as
   the int's sign; bit 63 is the word's sign.  The padding bits of the
   last byte are kept zero by [set]/[clear]/[fill] and the byte-wise
   operators, so scanning whole bytes never yields an out-of-range
   index. *)
let[@inline] iter_bits f bits base =
  let x = ref bits in
  while !x <> 0 do
    f (base + lowest_bit !x);
    x := !x land (!x - 1)
  done

let iter_set f t =
  let b = ref 0 and words = Bytes.length t.data land lnot 7 in
  while !b < words do
    let w = Bytes.get_int64_le t.data !b in
    if w <> 0L then begin
      iter_bits f (Int64.to_int w) (!b lsl 3);
      if w < 0L then f ((!b lsl 3) + 63)
    end;
    b := !b + 8
  done;
  iter_bits f (tail_word t) (words lsl 3)

let fold_set f init t =
  let acc = ref init in
  iter_set (fun i -> acc := f !acc i) t;
  !acc

let to_index_list t = List.rev (fold_set (fun acc i -> i :: acc) [] t)

let of_index_list len idxs =
  let t = create len in
  List.iter (fun i -> set t i) idxs;
  t

let pp ppf t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char ppf (if get t i then '1' else '0')
  done
