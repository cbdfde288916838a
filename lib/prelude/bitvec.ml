type t = { len : int; data : Bytes.t }

let popcount_table =
  lazy
    (Array.init 256 (fun b ->
         let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
         go b 0))

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
  let table = Lazy.force popcount_table in
  let acc = ref 0 in
  for b = 0 to Bytes.length t.data - 1 do
    acc := !acc + table.(Char.code (Bytes.unsafe_get t.data b))
  done;
  !acc

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

(* Byte-at-a-time scans: all-zero bytes (the common case in sparse rows) are
   skipped in one comparison, and bit indexes are loop-controlled so no
   per-bit bounds check is needed.  The padding bits of the last byte are
   maintained zero by [set]/[clear]/[fill] and the byte-wise operators, so
   scanning whole bytes never yields an out-of-range index. *)
let iter_set f t =
  for b = 0 to Bytes.length t.data - 1 do
    let byte = Char.code (Bytes.unsafe_get t.data b) in
    if byte <> 0 then begin
      let base = b lsl 3 in
      for k = 0 to 7 do
        if byte land (1 lsl k) <> 0 then f (base + k)
      done
    end
  done

let to_index_list t =
  let acc = ref [] in
  for b = Bytes.length t.data - 1 downto 0 do
    let byte = Char.code (Bytes.unsafe_get t.data b) in
    if byte <> 0 then begin
      let base = b lsl 3 in
      for k = 7 downto 0 do
        if byte land (1 lsl k) <> 0 then acc := (base + k) :: !acc
      done
    end
  done;
  !acc

let of_index_list len idxs =
  let t = create len in
  List.iter (fun i -> set t i) idxs;
  t

let fold_set f init t =
  let acc = ref init in
  iter_set (fun i -> acc := f !acc i) t;
  !acc

let pp ppf t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char ppf (if get t i then '1' else '0')
  done
