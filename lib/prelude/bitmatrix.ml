type t = { rows : int; cols : int; data : Bitvec.t array }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Bitmatrix.create";
  { rows; cols; data = Array.init rows (fun _ -> Bitvec.create cols) }

let cells_limit = 1 lsl 33
let table_words_limit = 1 lsl 27

let budget_error ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Bitmatrix.budget_error";
  (* [rows > cells_limit / cols] is [rows * cols > cells_limit] without
     the overflow; past it both are at most 2^33, so the sum below cannot
     overflow. *)
  if rows > cells_limit / cols then
    Some (Printf.sprintf "matrix %dx%d exceeds %d cells" rows cols cells_limit)
  else if (2 * rows) + cols + 2 > table_words_limit then
    Some
      (Printf.sprintf "tables for %d owners and %d providers exceed %d words" rows cols
         table_words_limit)
  else None

let rows t = t.rows
let cols t = t.cols

let get t ~row ~col = Bitvec.get t.data.(row) col
let set t ~row ~col v = Bitvec.assign t.data.(row) col v
let row t i = t.data.(i)
let row_count t i = Bitvec.count t.data.(i)

let col_count t j =
  let acc = ref 0 in
  for i = 0 to t.rows - 1 do
    if Bitvec.get t.data.(i) j then incr acc
  done;
  !acc

let copy t = { t with data = Array.map Bitvec.copy t.data }

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 Bitvec.equal a.data b.data

let map_rows f t =
  let data =
    Array.mapi
      (fun i r ->
        let r' = f i r in
        if Bitvec.length r' <> t.cols then invalid_arg "Bitmatrix.map_rows: row length changed";
        r')
      t.data
  in
  { t with data }
