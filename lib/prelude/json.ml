(* JSON values: one writer and one recursive-descent reader.

   Every JSON document this repository emits — daemon replies, the Chrome
   trace export, CLI output, bench results — is built as a [t] and
   rendered by [to_string], so there is exactly one escaper.  The reader
   takes the daemon's replies apart again for `eppi top` and `eppi stats
   --watch`.  Full grammar, no dependencies, optimized for nothing:
   replies are a few KB at most. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- writer ---- *)

let int i = Num (float_of_int i)

let escape_into b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

(* Integral values below 2^53 print as integers (every such float is an
   exact integer); others with the fewest of 15..17 significant digits
   that read back to the same float.  NaN and infinities have no JSON
   spelling: null. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 0x1p53 then Printf.sprintf "%.0f" f
  else
    let digits d = Printf.sprintf "%.*g" d f in
    match List.find_opt (fun s -> float_of_string s = f) [ digits 15; digits 16 ] with
    | Some s -> s
    | None -> digits 17

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (number f)
  | Str s ->
      Buffer.add_char b '"';
      escape_into b s;
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write b (Str k);
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ---- reader ---- *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    &&
    match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail "expected '%c' at %d, found '%c'" ch c.pos x
  | None -> fail "expected '%c' at %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "invalid literal at %d" c.pos

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.src then fail "unterminated string";
    let ch = c.src.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents b
    | '\\' ->
        (if c.pos >= String.length c.src then fail "unterminated escape";
         let e = c.src.[c.pos] in
         c.pos <- c.pos + 1;
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
             if c.pos + 4 > String.length c.src then fail "truncated \\u escape";
             let hex = String.sub c.src c.pos 4 in
             c.pos <- c.pos + 4;
             let code =
               try int_of_string ("0x" ^ hex)
               with _ -> fail "bad \\u escape at %d" c.pos
             in
             (* UTF-8 encode the BMP code point; surrogate pairs are not
                needed for anything this repo emits. *)
             if code < 0x80 then Buffer.add_char b (Char.chr code)
             else if code < 0x800 then begin
               Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
             end
         | _ -> fail "bad escape '\\%c'" e);
        go ()
    | ch -> Buffer.add_char b ch; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let numeric ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.src && numeric c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail "bad number %S at %d" s start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin c.pos <- c.pos + 1; Obj [] end
      else begin
        let rec members acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> c.pos <- c.pos + 1; members ((key, v) :: acc)
          | Some '}' -> c.pos <- c.pos + 1; Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}' at %d" c.pos
        in
        members []
      end
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin c.pos <- c.pos + 1; List [] end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> c.pos <- c.pos + 1; elements (v :: acc)
          | Some ']' -> c.pos <- c.pos + 1; List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']' at %d" c.pos
        in
        elements []
      end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error (Printf.sprintf "trailing bytes at %d" c.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> raise (Parse_error msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let rec find v = function
  | [] -> Some v
  | key :: rest -> ( match member key v with Some v' -> find v' rest | None -> None)

let num = function Num f -> Some f | _ -> None
let str = function Str s -> Some s | _ -> None
let list = function List l -> Some l | _ -> None
let obj = function Obj l -> Some l | _ -> None

let find_num v path = Option.bind (find v path) num
let find_str v path = Option.bind (find v path) str

let find_int v path =
  Option.map (fun f -> int_of_float (Float.round f)) (find_num v path)
