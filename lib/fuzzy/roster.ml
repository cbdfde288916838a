open Eppi_linkage

let generate rng ~n =
  if n < 0 then invalid_arg "Roster.generate: negative size";
  let people = ref [] in
  for _ = 1 to n do
    people := Demographic.random_person rng :: !people
  done;
  Array.of_list (List.rev !people)

let gender_code = function
  | Demographic.Female -> "f"
  | Demographic.Male -> "m"
  | Demographic.Other -> "o"

let header = "owner,first,last,dob,zip,gender"

let to_csv roster =
  let b = Buffer.create (32 + (Array.length roster * 40)) in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  Array.iteri
    (fun owner (r : Demographic.t) ->
      let y, m, d = r.dob in
      Buffer.add_string b
        (Printf.sprintf "%d,%s,%s,%04d-%02d-%02d,%s,%s\n" owner r.first r.last y m d r.zip
           (gender_code r.gender)))
    roster;
  Buffer.contents b

let fail lineno what = failwith (Printf.sprintf "Roster: line %d: %s" lineno what)

let parse_dob lineno s =
  match String.split_on_char '-' s with
  | [ y; m; d ] -> (
      match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
      | Some y, Some m, Some d
        when y >= 0 && y <= 9999 && m >= 0 && m <= 12 && d >= 0 && d <= 31 ->
          (y, m, d)
      | _ -> fail lineno (Printf.sprintf "bad date of birth %S" s))
  | _ -> fail lineno (Printf.sprintf "bad date of birth %S" s)

let parse_gender lineno = function
  | "f" -> Demographic.Female
  | "m" -> Demographic.Male
  | "o" -> Demographic.Other
  | g -> fail lineno (Printf.sprintf "unknown gender code %S" g)

(* The reader runs one parser per line, over a channel or a string, and
   collects persons in a doubling array: neither the file nor a list of
   its lines or rows is ever live.  Line numbers count every line. *)
type rows = { mutable people : Demographic.t array; mutable count : int }

let add_line rows lineno raw =
  let line = String.trim raw in
  if line <> "" && line <> header then
    match String.split_on_char ',' line with
    | [ owner; first; last; dob; zip; gender ] ->
        (match int_of_string_opt (String.trim owner) with
        | Some o when o = rows.count -> ()
        | Some o -> fail lineno (Printf.sprintf "owner %d, expected %d" o rows.count)
        | None -> fail lineno (Printf.sprintf "bad owner id %S" owner));
        let person =
          {
            Demographic.first = String.trim first;
            last = String.trim last;
            dob = parse_dob lineno (String.trim dob);
            zip = String.trim zip;
            gender = parse_gender lineno (String.trim gender);
          }
        in
        if rows.count = Array.length rows.people then begin
          let grown = Array.make (max 64 (2 * rows.count)) person in
          Array.blit rows.people 0 grown 0 rows.count;
          rows.people <- grown
        end;
        rows.people.(rows.count) <- person;
        rows.count <- rows.count + 1
    | fields -> fail lineno (Printf.sprintf "%d fields, expected 6" (List.length fields))

let read next_line =
  let rows = { people = [||]; count = 0 } in
  let rec go lineno =
    match next_line () with
    | None -> ()
    | Some raw ->
        add_line rows lineno raw;
        go (lineno + 1)
  in
  go 1;
  Array.sub rows.people 0 rows.count

let of_csv text =
  let pos = ref 0 in
  read (fun () ->
      if !pos > String.length text then None
      else begin
        let stop =
          Option.value ~default:(String.length text) (String.index_from_opt text !pos '\n')
        in
        let line = String.sub text !pos (stop - !pos) in
        pos := stop + 1;
        Some line
      end)

let input_csv ic = read (fun () -> In_channel.input_line ic)
