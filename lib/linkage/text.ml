(* [c] as it survives normalization: lowercased if an ASCII letter, kept if
   a digit, ['\000'] (dropped) otherwise. *)
let[@inline] normal_char c =
  if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c
  else if c >= 'A' && c <= 'Z' then Char.lowercase_ascii c
  else '\000'

let normalize s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      let c = normal_char c in
      if c <> '\000' then Buffer.add_char buf c)
    s;
  Buffer.contents buf

let soundex_digit = function
  | 'b' | 'f' | 'p' | 'v' -> '1'
  | 'c' | 'g' | 'j' | 'k' | 'q' | 's' | 'x' | 'z' -> '2'
  | 'd' | 't' -> '3'
  | 'l' -> '4'
  | 'm' | 'n' -> '5'
  | 'r' -> '6'
  | _ -> '0' (* vowels and h/w/y *)

(* One pass over the letters of [raw], writing the code in place; the
   '0' fill is the padding, and all of it when there is no letter. *)
let soundex raw =
  let code = Bytes.make 4 '0' in
  let len = ref 0 and prev = ref '0' in
  for i = 0 to String.length raw - 1 do
    let c = Char.lowercase_ascii (String.unsafe_get raw i) in
    if c >= 'a' && c <= 'z' then begin
      let d = soundex_digit c in
      if !len = 0 then begin
        Bytes.set code 0 (Char.uppercase_ascii c);
        len := 1;
        prev := d
      end
      else begin
        (* Adjacent duplicate codes collapse; h/w are transparent between
           consonants of the same code (simplified: treat like vowels). *)
        if d <> '0' && d <> !prev && !len < 4 then begin
          Bytes.set code !len d;
          incr len
        end;
        if c <> 'h' && c <> 'w' then prev := d
      end
    end
  done;
  Bytes.unsafe_to_string code

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) Fun.id in
    let curr = Array.make (lb + 1) 0 in
    for i = 1 to la do
      curr.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit curr 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

let levenshtein_similarity a b =
  let la = String.length a and lb = String.length b in
  if la = 0 && lb = 0 then 1.0
  else 1.0 -. (float_of_int (levenshtein a b) /. float_of_int (max la lb))

(* The normalized string padded with '_' at both ends, walked in place:
   '_' never survives normalization, so [prev = '_'] after the walk means
   the string had no characters and no bigrams. *)
let iter_bigrams f raw =
  let prev = ref '_' in
  for i = 0 to String.length raw - 1 do
    let c = normal_char (String.unsafe_get raw i) in
    if c <> '\000' then begin
      f !prev c;
      prev := c
    end
  done;
  if !prev <> '_' then f !prev '_'

let bigrams raw =
  let grams = ref [] in
  iter_bigrams (fun a b -> grams := String.init 2 (fun i -> if i = 0 then a else b) :: !grams) raw;
  List.rev !grams

let dice a b =
  let ba = bigrams a and bb = bigrams b in
  match (ba, bb) with
  | [], [] -> 1.0
  | [], _ | _, [] -> 0.0
  | _ ->
      (* Multiset intersection size. *)
      let counts = Hashtbl.create 16 in
      List.iter
        (fun g -> Hashtbl.replace counts g (1 + Option.value ~default:0 (Hashtbl.find_opt counts g)))
        ba;
      let common = ref 0 in
      List.iter
        (fun g ->
          match Hashtbl.find_opt counts g with
          | Some k when k > 0 ->
              incr common;
              Hashtbl.replace counts g (k - 1)
          | _ -> ())
        bb;
      2.0 *. float_of_int !common /. float_of_int (List.length ba + List.length bb)
