open Eppi_prelude

(* One packed direction: [offsets.(i)] .. [offsets.(i+1)] - 1 are the entry
   slots of list [i]; entry [e] lives at bit position [e * width].  The data
   buffer is padded by 8 bytes so every entry can be read with a single
   unaligned 64-bit load (width <= 30 and a bit offset <= 7 keep the value
   inside the loaded word). *)
type side = {
  offsets : int array;
  data : Bytes.t;
  width : int;
}

(* The inverse side holds one list per provider, at its id, when its
   table costs at most a word per entry or 32 KB.  Otherwise it holds one
   per provider that occurs, at its rank in [columns] (ascending), so a
   provider count that no entry pays for sizes no table: a payload that
   declares 2^24 providers and no cells compiles in kilobytes. *)
type t = {
  fwd : side;
  inv : side;
  columns : int array option;
  owners : int;
  providers : int;
}

let width_for bound =
  let rec go w = if 1 lsl w >= bound then w else go (w + 1) in
  max 1 (go 1)

let packed_data ~width entries = Bytes.make ((((entries * width) + 7) / 8) + 8) '\000'

let write_entry side ~slot v =
  let bitpos = slot * side.width in
  let byte = bitpos lsr 3 and shift = bitpos land 7 in
  let cur = Bytes.get_int64_le side.data byte in
  Bytes.set_int64_le side.data byte (Int64.logor cur (Int64.shift_left (Int64.of_int v) shift))

let read_entry side e =
  let bitpos = e * side.width in
  let byte = bitpos lsr 3 and shift = bitpos land 7 in
  Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le side.data byte) shift)
  land ((1 lsl side.width) - 1)

let dense ~providers ~entries = providers <= max entries 4096

(* The inverse list of provider [p]: [p] itself on a dense side, else its
   rank in the ascending [cols], or -1 when no entry names it. *)
let inverse_list columns p =
  match columns with
  | None -> p
  | Some cols ->
      let rec search lo hi =
        if lo >= hi then -1
        else
          let mid = (lo + hi) lsr 1 in
          let c = cols.(mid) in
          if c = p then mid else if c < p then search (mid + 1) hi else search lo mid
      in
      search 0 (Array.length cols)

(* The forward side is written as entries arrive, into slots laid out from
   the declared row counts; [slot] runs through them in owner order, so a
   row may start only where the rows before it ended.  On a dense inverse
   side [col_counts] tallies each provider's entries and becomes the
   inverse offsets in [finish]; a sparse one tallies there instead, and
   [col_counts] is empty. *)
type builder = {
  b_fwd : side;
  col_counts : int array;
  b_owners : int;
  b_providers : int;
  mutable row : int;
  mutable slot : int;
  mutable limit : int;  (** One past the current row's last slot. *)
}

let builder ~providers row_counts =
  let owners = Array.length row_counts in
  let offsets = Array.make (owners + 1) 0 in
  for j = 0 to owners - 1 do
    offsets.(j + 1) <- offsets.(j) + row_counts.(j)
  done;
  let width = width_for providers in
  {
    b_fwd = { offsets; data = packed_data ~width offsets.(owners); width };
    col_counts =
      (if dense ~providers ~entries:offsets.(owners) then Array.make (providers + 1) 0 else [||]);
    b_owners = owners;
    b_providers = providers;
    row = -1;
    slot = 0;
    limit = 0;
  }

let add b ~owner p =
  if owner <> b.row then begin
    if owner < 0 || owner >= b.b_owners || b.slot <> b.b_fwd.offsets.(owner) then
      invalid_arg "Postings.add: owners out of order or a row left short";
    b.row <- owner;
    b.limit <- b.b_fwd.offsets.(owner + 1)
  end;
  if b.slot >= b.limit then invalid_arg "Postings.add: row past its declared count";
  if p < 0 || p >= b.b_providers then invalid_arg "Postings.add: provider out of range";
  write_entry b.b_fwd ~slot:b.slot p;
  b.slot <- b.slot + 1;
  if Array.length b.col_counts > 0 then b.col_counts.(p) <- b.col_counts.(p) + 1

(* The providers that occur in the forward entries, ascending. *)
let occurring fwd entries =
  let ids = Array.init entries (read_entry fwd) in
  Array.sort Int.compare ids;
  let distinct = ref 0 in
  Array.iteri
    (fun i p ->
      if i = 0 || p <> ids.(i - 1) then begin
        ids.(!distinct) <- p;
        incr distinct
      end)
    ids;
  Array.sub ids 0 !distinct

(* One counting pass: the tallies become each list's end offset, and
   walking the forward entries backwards moves each one down to its slot,
   so every inverse list comes out ascending and the table ends as the
   start offsets. *)
let finish b =
  let fwd = b.b_fwd and owners = b.b_owners and providers = b.b_providers in
  let entries = fwd.offsets.(owners) in
  if b.slot <> entries then invalid_arg "Postings.finish: a row left short";
  let columns = if Array.length b.col_counts > 0 then None else Some (occurring fwd entries) in
  let offsets =
    match columns with
    | None -> b.col_counts
    | Some cols ->
        let counts = Array.make (Array.length cols + 1) 0 in
        for e = 0 to entries - 1 do
          let c = inverse_list columns (read_entry fwd e) in
          counts.(c) <- counts.(c) + 1
        done;
        counts
  in
  let lists = Array.length offsets - 1 in
  let sum = ref 0 in
  for c = 0 to lists - 1 do
    sum := !sum + offsets.(c);
    offsets.(c) <- !sum
  done;
  offsets.(lists) <- entries;
  let width = width_for owners in
  let inv = { offsets; data = packed_data ~width entries; width } in
  for j = owners - 1 downto 0 do
    for e = fwd.offsets.(j + 1) - 1 downto fwd.offsets.(j) do
      let c = inverse_list columns (read_entry fwd e) in
      let slot = offsets.(c) - 1 in
      offsets.(c) <- slot;
      write_entry inv ~slot j
    done
  done;
  { fwd; inv; columns; owners; providers }

let of_matrix matrix =
  let owners = Bitmatrix.rows matrix in
  let b =
    builder ~providers:(Bitmatrix.cols matrix) (Array.init owners (Bitmatrix.row_count matrix))
  in
  for j = 0 to owners - 1 do
    Bitvec.iter_set (fun p -> add b ~owner:j p) (Bitmatrix.row matrix j)
  done;
  finish b

let of_index index = of_matrix (Eppi.Index.matrix index)
let owners t = t.owners
let providers t = t.providers

let check_range what i bound =
  if i < 0 || i >= bound then invalid_arg (Printf.sprintf "Postings.%s: id out of range" what)

let side_list side i =
  let lo = side.offsets.(i) and hi = side.offsets.(i + 1) in
  let rec go e acc = if e < lo then acc else go (e - 1) (read_entry side e :: acc) in
  go (hi - 1) []

let query t ~owner =
  check_range "query" owner t.owners;
  side_list t.fwd owner

let query_count t ~owner =
  check_range "query_count" owner t.owners;
  t.fwd.offsets.(owner + 1) - t.fwd.offsets.(owner)

let iter_query t ~owner f =
  check_range "iter_query" owner t.owners;
  for e = t.fwd.offsets.(owner) to t.fwd.offsets.(owner + 1) - 1 do
    f (read_entry t.fwd e)
  done

let owners_of t ~provider =
  check_range "owners_of" provider t.providers;
  match inverse_list t.columns provider with -1 -> [] | c -> side_list t.inv c

let audit_count t ~provider =
  check_range "audit_count" provider t.providers;
  match inverse_list t.columns provider with
  | -1 -> 0
  | c -> t.inv.offsets.(c + 1) - t.inv.offsets.(c)

let entry_bits t = (t.fwd.width, t.inv.width)

let memory_bytes t =
  let side s = Bytes.length s.data + (8 * Array.length s.offsets) in
  side t.fwd + side t.inv + match t.columns with None -> 0 | Some cols -> 8 * Array.length cols
