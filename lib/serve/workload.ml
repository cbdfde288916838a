open Eppi_prelude

let check ~n ~count ~unknown_fraction =
  if n <= 0 then invalid_arg "Workload: n must be positive";
  if count <= 0 then invalid_arg "Workload: count must be positive";
  if unknown_fraction < 0.0 || unknown_fraction > 1.0 then
    invalid_arg "Workload: unknown fraction out of [0, 1]"

let with_unknowns rng ~n ~unknown_fraction draw =
  if unknown_fraction > 0.0 && Rng.bernoulli rng unknown_fraction then n + Rng.int rng n
  else draw ()

let zipf ?(exponent = 1.1) ?(unknown_fraction = 0.0) rng ~n ~count =
  check ~n ~count ~unknown_fraction;
  if exponent <= 0.0 then invalid_arg "Workload.zipf: exponent must be positive";
  (* Cumulative weights 1/(k+1)^s; a draw is a binary search for the least
     rank whose cumulative weight covers the uniform sample. *)
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) exponent);
    cdf.(k) <- !acc
  done;
  let total = !acc in
  let draw () =
    let u = Rng.float rng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Array.init count (fun _ -> with_unknowns rng ~n ~unknown_fraction draw)

let uniform ?(unknown_fraction = 0.0) rng ~n ~count =
  check ~n ~count ~unknown_fraction;
  Array.init count (fun _ ->
      with_unknowns rng ~n ~unknown_fraction (fun () -> Rng.int rng n))

let fuzzy ?noise ?(exponent = 1.1) rng ~roster ~count =
  if Array.length roster = 0 then invalid_arg "Workload.fuzzy: empty roster";
  let owners = zipf ~exponent rng ~n:(Array.length roster) ~count in
  Array.map
    (fun j -> (j, Eppi_linkage.Demographic.corrupt ?noise rng roster.(j)))
    owners

(* ---- trace-driven workloads: request-log readers ---- *)

let fail_line lineno what = failwith (Printf.sprintf "Workload: line %d: %s" lineno what)

let fold_lines text f =
  let acc = ref [] in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun raw ->
         incr lineno;
         let line = String.trim raw in
         if line <> "" && line.[0] <> '#' then
           match f ~lineno:!lineno line with None -> () | Some owner -> acc := owner :: !acc);
  Array.of_list (List.rev !acc)

let of_csv_log text =
  fold_lines text (fun ~lineno line ->
      (* Last comma-separated field is the owner id; leading fields (a
         timestamp, a client tag) are carried by real request logs and
         ignored here.  An unparsable first line is a column header. *)
      let fields = String.split_on_char ',' line in
      let last = String.trim (List.nth fields (List.length fields - 1)) in
      match int_of_string_opt last with
      | Some owner -> Some owner
      | None -> if lineno = 1 then None else fail_line lineno (Printf.sprintf "bad owner %S" last))

(* Owner ids travel as JSON numbers, which hold integers exactly up to
   2^53; anything fractional or beyond is not an id. *)
let of_jsonl_log text =
  fold_lines text (fun ~lineno line ->
      match Json.parse line with
      | Error e -> fail_line lineno e
      | Ok (Json.Obj _ as v) -> (
          match Json.member "owner" v with
          | Some (Json.Num f) when Float.is_integer f && Float.abs f <= 0x1p53 ->
              Some (int_of_float f)
          | Some _ -> fail_line lineno "\"owner\" is not an integer"
          | None -> fail_line lineno "no \"owner\" key")
      | Ok _ -> fail_line lineno "expected a JSON object")

let to_csv_log owners =
  let b = Buffer.create (16 + (Array.length owners * 7)) in
  Buffer.add_string b "owner\n";
  Array.iter (fun owner -> Buffer.add_string b (string_of_int owner ^ "\n")) owners;
  Buffer.contents b
