open Eppi_prelude

type t = { matrix : Bitmatrix.t }

let of_matrix matrix = { matrix }
let matrix t = t.matrix
let providers t = Bitmatrix.cols t.matrix
let owners t = Bitmatrix.rows t.matrix

let query t ~owner = Bitvec.to_index_list (Bitmatrix.row t.matrix owner)
let query_count t ~owner = Bitmatrix.row_count t.matrix owner
let apparent_frequency = query_count

let recall_ok ~membership t ~owner =
  let true_row = Bitmatrix.row membership owner in
  let published_row = Bitmatrix.row t.matrix owner in
  Bitvec.count (Bitvec.diff true_row published_row) = 0

(* The one CSV writer: every provider's ["p\n"] suffix is formatted once,
   each owner's ["j,"] prefix once per row, so a published cell is two
   buffer appends.  [flush] sees the buffer after every row. *)
let write_csv t buf ~flush =
  Buffer.add_string buf
    (Printf.sprintf "# eppi-index owners=%d providers=%d\n" (owners t) (providers t));
  let suffix = Array.init (providers t) (fun p -> string_of_int p ^ "\n") in
  let prefix = ref "" in
  let cell p =
    Buffer.add_string buf !prefix;
    Buffer.add_string buf suffix.(p)
  in
  for j = 0 to owners t - 1 do
    prefix := string_of_int j ^ ",";
    Bitvec.iter_set cell (Bitmatrix.row t.matrix j);
    flush buf
  done

let to_csv t =
  let buf = Buffer.create 4096 in
  write_csv t buf ~flush:ignore;
  Buffer.contents buf

let chunk = 1 lsl 16

let output_csv oc t =
  let buf = Buffer.create (2 * chunk) in
  let drain buf =
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  write_csv t buf ~flush:(fun buf -> if Buffer.length buf >= chunk then drain buf);
  drain buf

let of_csv text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | header :: rest ->
      let owners, providers =
        try
          Scanf.sscanf header "# eppi-index owners=%d providers=%d%!" (fun o p -> (o, p))
        with Scanf.Scan_failure _ | Failure _ | End_of_file ->
          failwith "Index.of_csv: bad header"
      in
      if owners <= 0 || providers <= 0 then failwith "Index.of_csv: bad dimensions";
      let matrix = Bitmatrix.create ~rows:owners ~cols:providers in
      List.iteri
        (fun lineno line ->
          if line <> "" then
            match String.split_on_char ',' line with
            | [ j; p ] -> (
                match (int_of_string_opt j, int_of_string_opt p) with
                | Some row, Some col ->
                    if row < 0 || row >= owners || col < 0 || col >= providers then
                      failwith
                        (Printf.sprintf "Index.of_csv: cell out of range at line %d"
                           (lineno + 2));
                    if Bitmatrix.get matrix ~row ~col then
                      failwith
                        (Printf.sprintf "Index.of_csv: duplicate cell at line %d" (lineno + 2));
                    Bitmatrix.set matrix ~row ~col true
                | _ -> failwith (Printf.sprintf "Index.of_csv: bad line %d" (lineno + 2)))
            | _ -> failwith (Printf.sprintf "Index.of_csv: bad line %d" (lineno + 2)))
        rest;
      { matrix }
  | [] -> failwith "Index.of_csv: empty input"
