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

(* The reader runs one parser per line, over a channel or a string, so
   neither the whole file nor a list of its lines is ever live: only the
   matrix and the line at hand.  Line numbers count every line, blank
   ones included; the header is line 1. *)

let parse_header header =
  let owners, providers =
    try Scanf.sscanf header "# eppi-index owners=%d providers=%d%!" (fun o p -> (o, p))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> failwith "Index.of_csv: bad header"
  in
  if owners <= 0 || providers <= 0 then failwith "Index.of_csv: bad dimensions";
  Option.iter
    (fun msg -> failwith ("Index.of_csv: " ^ msg))
    (Bitmatrix.budget_error ~rows:owners ~cols:providers);
  Bitmatrix.create ~rows:owners ~cols:providers

let rec find_comma s i stop =
  if i >= stop then stop else if String.unsafe_get s i = ',' then i else find_comma s (i + 1) stop

(* Line [lineno] is [s.[pos] .. s.[stop - 1]]: blank, or one in-range
   [owner,provider] cell not seen before. *)
let add_line matrix s ~pos ~stop ~lineno =
  if stop > pos then begin
    let bad what = failwith (Printf.sprintf "Index.of_csv: %s %d" what lineno) in
    let comma = find_comma s pos stop in
    if comma = stop || find_comma s (comma + 1) stop < stop then bad "bad line";
    match
      ( int_of_string_opt (String.sub s pos (comma - pos)),
        int_of_string_opt (String.sub s (comma + 1) (stop - comma - 1)) )
    with
    | Some row, Some col ->
        if row < 0 || row >= Bitmatrix.rows matrix || col < 0 || col >= Bitmatrix.cols matrix
        then bad "cell out of range at line";
        if Bitmatrix.get matrix ~row ~col then bad "duplicate cell at line";
        Bitmatrix.set matrix ~row ~col true
    | _ -> bad "bad line"
  end

let of_csv text =
  let len = String.length text in
  let line_end pos = Option.value ~default:len (String.index_from_opt text pos '\n') in
  let header_end = line_end 0 in
  let matrix = parse_header (String.sub text 0 header_end) in
  let pos = ref (header_end + 1) and lineno = ref 2 in
  while !pos <= len do
    let stop = line_end !pos in
    add_line matrix text ~pos:!pos ~stop ~lineno:!lineno;
    pos := stop + 1;
    incr lineno
  done;
  { matrix }

let input_csv ic =
  (* Empty input has no first line, and fails as an empty header does. *)
  let matrix = parse_header (Option.value ~default:"" (In_channel.input_line ic)) in
  let rec go lineno =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
        add_line matrix line ~pos:0 ~stop:(String.length line) ~lineno;
        go (lineno + 1)
  in
  go 2;
  { matrix }
