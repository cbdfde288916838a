(* Tests for the approximate-identity resolver (lib/fuzzy): probe
   construction and blocking keys, roster CSV round-trips, resolution
   against a planted roster (exact self-match, corrupted variants,
   threshold, padding floor, determinism), pinned outcomes and a reference
   scorer the resolver must match field for field, domain safety and
   allocation, and the serving engine's fuzzy path — reply shapes, metrics
   conservation, resolver hot-swap. *)

open Eppi_prelude
open Eppi_linkage
module Probe = Eppi_fuzzy.Probe
module Resolver = Eppi_fuzzy.Resolver
module Roster = Eppi_fuzzy.Roster
module Serve = Eppi_serve.Serve
module Postings = Eppi_serve.Postings

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  if m = 0 then true else go 0

let seed = 0xBEEF
let config = Resolver.default_config ~seed

let roster n = Roster.generate (Rng.create 101) ~n

(* ---- probe ---- *)

(* The single-field keys every probe carried before the conjunctive keys:
   Soundex of the last name, then birth year, each when stated. *)
let legacy_keys (r : Demographic.t) =
  let y, _, _ = r.dob in
  Array.of_list
    ((if r.last = "" then [] else [ Probe.keyed_hash seed ("s:" ^ Text.soundex r.last) ])
    @ if y > 0 then [ Probe.keyed_hash seed ("y:" ^ string_of_int y) ] else [])

(* A probe that lacks a first name, a last name or a birth year keeps the
   single keys, so it is answered exactly as before. *)
let test_probe_partial_keys () =
  let people = roster 20 in
  Array.iter
    (fun (r : Demographic.t) ->
      let full = Probe.of_demographic config.params r in
      check_bool "full probe leaves the single keys" true
        (Array.for_all (fun k -> not (Array.mem k (legacy_keys r))) full.keys);
      List.iter
        (fun (name, (partial : Demographic.t)) ->
          let p = Probe.of_demographic config.params partial in
          check_bool name true (p.keys = legacy_keys partial))
        [ ("no first name", { r with first = "" });
          ("no last name", { r with last = "" });
          ("no birth date", { r with dob = (0, 0, 0) });
          ("birth year unknown", { r with dob = (let _, m, d = r.dob in (0, m, d)) });
          ("date only", { r with first = ""; last = ""; zip = "" }) ])
    people

(* The strings blocking keys and the date filter are built from, pinned
   byte for byte: real names, strings with no letters (a code of "0000"),
   non-ASCII and punctuation, and dates beyond the roster's four-digit
   years, negative fields included. *)
let test_probe_strings_pinned () =
  List.iter
    (fun (name, code) ->
      Alcotest.(check string) (Printf.sprintf "soundex %S" name) code (Text.soundex name))
    [
    ("Robert", "R163");
    ("Rupert", "R163");
    ("Rubin", "R150");
    ("Ashcraft", "A261");
    ("Tymczak", "T522");
    ("Pfister", "P236");
    ("Honeyman", "H555");
    ("", "0000");
    ("0000", "0000");
    ("123", "0000");
    ("a", "A000");
    ("Lee", "L000");
    ("O'Brien", "O165");
    ("van der Berg", "V536");
    ("\195\137MILE", "M400");
    ("  x  ", "X000");
    ("hhhh", "H000");
    ("Washington", "W252");
    ("Jackson", "J250");
    ("Gutierrez", "G362");
    ("Lloyd", "L300");
    ("Schmidt", "S530");
    ("Bb", "B000");
    ("wh", "W000");
    ("AEIOU", "A000");
    ("b1b", "B000");
    ("Sh-ha", "S000");
    ("Zzzzzzzzzz", "Z000");
    ("Mc Donald", "M235");
    ("maria", "M600");
    ("garcia", "G620");
    ("4ever", "E160");
    ("x-ray", "X600");
    ("bhb", "B000");
    ("bwb", "B000");
    ("byb", "B100");
    ("Abcdefghijklmnop", "A123");
    ("\000\255", "0000");
    ("Q", "Q000");
    ("ssss tttt", "S300");
    ];
  List.iter
    (fun (((y, m, d) as date), text) ->
      Alcotest.(check string)
        (Printf.sprintf "dob_string (%d, %d, %d)" y m d)
        text (Probe.dob_string date))
    [
    ((0, 0, 0), "");
    ((1961, 4, 18), "19610418");
    ((2000, 12, 31), "20001231");
    ((1, 1, 1), "00010101");
    ((0, 1, 1), "00000101");
    ((1961, 0, 0), "19610000");
    ((0, 0, 5), "00000005");
    ((9999, 99, 99), "99999999");
    ((999, 9, 9), "09990909");
    ((12, 3, 4), "00120304");
    ((10000, 1, 1), "100000101");
    ((99999, 10, 10), "999991010");
    ((123456, 7, 8), "1234560708");
    ((1961, 100, 200), "1961100200");
    ((max_int, 1, 1), "46116860184273879030101");
    ((-5, 1, 1), "-0050101");
    ((-1234, 5, 6), "-12340506");
    ((1961, -1, 3), "1961-103");
    ((1961, 4, -18), "196104-18");
    ((0, -3, 0), "0000-300");
    ((-99999, -99, -9), "-99999-99-9");
    ((min_int, 0, 0), "-46116860184273879040000");
    ]

let test_probe_shape () =
  let r = (roster 4).(0) in
  let p = Probe.of_demographic config.params r in
  check_int "bits" config.params.bits p.bits;
  check_int "hashes" config.params.hashes p.hashes;
  (* Full record: the three pair keys and the date-of-birth key. *)
  check_int "blocking keys" 4 (Array.length p.keys);
  check_bool "first filter non-empty" true (Bitvec.count p.first > 0);
  check_bool "last filter non-empty" true (Bitvec.count p.last > 0);
  check_bool "dob filter non-empty" true (Bitvec.count p.dob > 0);
  check_bool "zip filter non-empty" true (Bitvec.count p.zip > 0);
  (* Partial record: missing fields encode empty, keys drop out. *)
  let partial = { r with first = ""; dob = (0, 0, 0) } in
  let pp = Probe.of_demographic config.params partial in
  check_int "partial keys (soundex only)" 1 (Array.length pp.keys);
  check_int "empty first filter" 0 (Bitvec.count pp.first);
  check_int "empty dob filter" 0 (Bitvec.count pp.dob);
  (* A roster entry is filed under both rules: four pair keys, then the
     two single keys. *)
  let s = Probe.signature config.params r in
  check_bool "signature keys" true (s.keys = Array.append p.keys (legacy_keys r));
  check_bool "signature filters" true ({ s with keys = p.keys } = p);
  (* Same record, same probe — deterministic. *)
  let p2 = Probe.of_demographic config.params r in
  check_bool "deterministic" true (p = p2);
  (* Different seed, different filters. *)
  let other = Probe.of_demographic (Bloom.keyed ~seed:(seed + 1) ()) r in
  check_bool "seed changes filters" false (Bitvec.equal p.last other.last);
  check_bool "routing hash non-negative" true (Probe.routing_hash p >= 0);
  Alcotest.check_raises "bad params"
    (Invalid_argument "Probe.of_demographic: bad parameters") (fun () ->
      ignore (Probe.of_demographic { config.params with bits = 0 } r))

(* ---- roster csv ---- *)

let test_roster_roundtrip () =
  let people = roster 20 in
  let csv = Roster.to_csv people in
  let back = Roster.of_csv csv in
  check_int "length" (Array.length people) (Array.length back);
  Array.iteri
    (fun i (p : Demographic.t) -> check_bool (Printf.sprintf "person %d" i) true (p = back.(i)))
    people;
  (* Blank lines and the header tolerate re-parsing. *)
  let with_blanks = "\n" ^ csv ^ "\n\n" in
  check_int "blank lines skipped" 20 (Array.length (Roster.of_csv with_blanks))

let test_roster_malformed () =
  let expect_failure name text =
    match Roster.of_csv text with
    | _ -> Alcotest.failf "%s: expected Failure" name
    | exception Failure msg -> check_bool (name ^ ": names the line") true (contains msg "line")
  in
  expect_failure "missing fields" "owner,first,last,dob,zip,gender\n0,james,smith\n";
  expect_failure "bad owner order" "0,a,b,1950-01-01,12345,f\n2,c,d,1951-02-02,54321,m\n";
  expect_failure "bad dob" "0,a,b,1950-13-41,12345,f\n";
  expect_failure "bad gender" "0,a,b,1950-01-01,12345,x\n"

(* The roster reader as first written: the whole file split into a list
   of lines, persons collected in a list.  [Roster.of_csv] and
   [Roster.input_csv] must accept exactly what it accepts and fail with
   the same message. *)
module Roster_reference = struct
  let header = "owner,first,last,dob,zip,gender"
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

  let of_csv text =
    let rows = ref [] in
    let expected = ref 0 in
    let lineno = ref 0 in
    String.split_on_char '\n' text
    |> List.iter (fun raw ->
           incr lineno;
           let line = String.trim raw in
           if line <> "" && line <> header then
             match String.split_on_char ',' line with
             | [ owner; first; last; dob; zip; gender ] ->
                 (match int_of_string_opt (String.trim owner) with
                 | Some o when o = !expected -> ()
                 | Some o -> fail !lineno (Printf.sprintf "owner %d, expected %d" o !expected)
                 | None -> fail !lineno (Printf.sprintf "bad owner id %S" owner));
                 incr expected;
                 rows :=
                   {
                     Demographic.first = String.trim first;
                     last = String.trim last;
                     dob = parse_dob !lineno (String.trim dob);
                     zip = String.trim zip;
                     gender = parse_gender !lineno (String.trim gender);
                   }
                   :: !rows
             | fields ->
                 fail !lineno (Printf.sprintf "%d fields, expected 6" (List.length fields)));
    Array.of_list (List.rev !rows)
end

let roster_outcome read text =
  match read text with people -> Ok people | exception Failure msg -> Error msg

let roster_via_channel text =
  let path = Filename.temp_file "eppi_roster" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      In_channel.with_open_bin path Roster.input_csv)

(* Roster files: a generated roster's lines, each kept, dropped, doubled
   or mutated (owner ids in the other spellings [int_of_string] takes,
   padded fields, a field cut off, a bad date or gender code, a
   truncated header), with blank lines mixed in; lines may end in CR, and
   the final newline may be missing.  An empty file is one draw in
   twenty. *)
let gen_roster_csv =
  let open QCheck.Gen in
  let mutate line =
    match String.split_on_char ',' line with
    | [ owner; first; last; dob; zip; gender ] as fields ->
        let join = String.concat "," in
        let o = int_of_string_opt owner in
        frequency
          [ (12, return [ line ]);
            (1, return []);
            (1, return [ line; line ]);
            (1, return [ ""; line ]);
            ( 1,
              oneofl
                (match o with
                | Some o ->
                    [ Printf.sprintf "0x%x" o; "+" ^ owner; "0" ^ owner; owner ^ "_0"; " " ^ owner ]
                | None -> [ owner ])
              >|= fun owner -> [ join [ owner; first; last; dob; zip; gender ] ] );
            (1, return [ join [ owner; " " ^ first ^ " "; last; dob; zip; gender ^ "\t" ] ]);
            (1, return [ join (List.filteri (fun i _ -> i < 5) fields) ]);
            (1, oneofl [ "1950-13-01"; "19x0-01-01"; "1950-01"; "" ] >|= fun dob ->
                [ join [ owner; first; last; dob; zip; gender ] ]);
            (1, oneofl [ "x"; "F"; "" ] >|= fun gender ->
                [ join [ owner; first; last; dob; zip; gender ] ]) ]
    | _ ->
        (* The header, or the empty tail after the last newline. *)
        frequency
          [ (8, return [ line ]); (1, return [ "owner,first,last" ]); (1, return [ line; "" ]) ]
  in
  let file =
    pair (int_range 0 8) int >>= fun (n, seed) ->
    let lines = String.split_on_char '\n' (Roster.to_csv (Roster.generate (Rng.create seed) ~n)) in
    flatten_l (List.map mutate lines) >>= fun lines ->
    let lines = List.concat lines in
    list_repeat (List.length lines) (frequency [ (8, return "\n"); (1, return "\r\n") ])
    >>= fun ends ->
    bool >|= fun final_newline ->
    let text = String.concat "" (List.map2 ( ^ ) lines ends) in
    if final_newline || text = "" then text else String.sub text 0 (String.length text - 1)
  in
  frequency [ (19, file); (1, return "") ]

let roster_loader_props =
  let open QCheck in
  [
    Test.make ~name:"roster loaders agree with the reference reader" ~count:1000
      (make ~print:String.escaped gen_roster_csv)
      (fun text ->
        let reference = roster_outcome Roster_reference.of_csv text in
        reference = roster_outcome Roster.of_csv text
        && reference = roster_outcome roster_via_channel text);
  ]

(* ---- resolver ---- *)

(* An identity no generated roster contains. *)
let absent_person : Demographic.t =
  { first = "zzyzx"; last = "qwertyuiop"; dob = (1900, 1, 1); zip = "00000"; gender = Other }

let test_resolve_exact_self () =
  let people = roster 50 in
  let r = Resolver.build config people in
  check_int "entries" 50 (Resolver.entries r);
  Array.iteri
    (fun owner person ->
      let probe = Probe.of_demographic config.params person in
      let outcome = Resolver.resolve r probe ~k:3 in
      match outcome.candidates with
      | top :: _ ->
          check_int (Printf.sprintf "owner %d self-match" owner) owner top.owner;
          check_bool "perfect score" true (top.score = 1.0)
      | [] -> Alcotest.failf "owner %d resolved nothing" owner)
    people

let test_resolve_corrupted () =
  let people = roster 200 in
  let r = Resolver.build config people in
  let rng = Rng.create 7 in
  let hits = ref 0 in
  let trials = 200 in
  for _ = 1 to trials do
    let truth = Rng.int rng 200 in
    let observed = Demographic.corrupt rng people.(truth) in
    let probe = Probe.of_demographic config.params observed in
    let outcome = Resolver.resolve r probe ~k:10 in
    if List.exists (fun (c : Resolver.resolved) -> c.owner = truth) outcome.candidates then
      incr hits
  done;
  check_bool
    (Printf.sprintf "recall %d/%d >= 0.9 under default noise" !hits trials)
    true
    (float_of_int !hits /. float_of_int trials >= 0.9)

(* Conjunctive keys keep a typo probe's scan near the padding floor on a
   roster where the single-key buckets hold hundreds of entries, without
   giving up recall. *)
let test_resolve_blocking_scale () =
  let people = Roster.generate (Rng.create 61) ~n:8192 in
  let r = Resolver.build config people in
  let rng = Rng.create 67 in
  let probes = 2000 in
  let scanned = ref 0 and hits = ref 0 in
  for _ = 1 to probes do
    let truth = Rng.int rng (Array.length people) in
    let probe = Probe.of_demographic config.params (Demographic.corrupt rng people.(truth)) in
    let o = Resolver.resolve r probe ~k:10 in
    scanned := !scanned + o.scanned;
    if List.exists (fun (c : Resolver.resolved) -> c.owner = truth) o.candidates then incr hits
  done;
  let mean = float_of_int !scanned /. float_of_int probes in
  let recall = float_of_int !hits /. float_of_int probes in
  check_bool
    (Printf.sprintf "mean scanned %.1f <= 2 x min_scan" mean)
    true
    (mean <= 2.0 *. float_of_int config.min_scan);
  check_bool (Printf.sprintf "recall@10 %.4f >= 0.99" recall) true (recall >= 0.99)

let test_resolve_padding_floor () =
  let people = roster 300 in
  let r = Resolver.build config people in
  (* Any probe scans at least min_scan signatures — even one matching a
     rare (or absent) identity — so scan size does not leak rarity. *)
  let probe = Probe.of_demographic config.params absent_person in
  let outcome = Resolver.resolve r probe ~k:10 in
  check_bool "padding floor" true (outcome.scanned >= config.min_scan);
  let common = Probe.of_demographic config.params people.(0) in
  let outcome2 = Resolver.resolve r common ~k:10 in
  check_bool "padding floor (present identity)" true (outcome2.scanned >= config.min_scan);
  (* Small roster: the floor clamps to n. *)
  let small = Resolver.build config (roster 5) in
  let o = Resolver.resolve small probe ~k:10 in
  check_int "clamped to roster size" 5 o.scanned

let test_resolve_threshold_and_k () =
  let people = roster 100 in
  let strict = Resolver.build { config with match_threshold = 1.0 } people in
  let probe = Probe.of_demographic config.params people.(3) in
  let outcome = Resolver.resolve strict probe ~k:10 in
  (* Threshold 1.0: only the exact self-match survives. *)
  check_int "only self at threshold 1.0" 1 (List.length outcome.candidates);
  check_int "self" 3 (List.hd outcome.candidates).owner;
  let loose = Resolver.build { config with match_threshold = 0.0 } people in
  let o2 = Resolver.resolve loose probe ~k:4 in
  check_bool "k caps candidates" true (List.length o2.candidates <= 4);
  (* Sorted by score descending. *)
  let rec sorted = function
    | (a : Resolver.resolved) :: (b : Resolver.resolved) :: tl ->
        a.score >= b.score && sorted (b :: tl)
    | _ -> true
  in
  check_bool "sorted" true (sorted o2.candidates)

let test_resolve_deterministic_and_validation () =
  let people = roster 80 in
  let r = Resolver.build config people in
  let probe = Probe.of_demographic config.params people.(7) in
  let a = Resolver.resolve r probe ~k:10 and b = Resolver.resolve r probe ~k:10 in
  check_bool "deterministic outcome" true (a = b);
  check_bool "compatible" true (Resolver.compatible r probe);
  let alien = Probe.of_demographic (Bloom.keyed ~seed ~bits:128 ()) people.(7) in
  check_bool "incompatible geometry" false (Resolver.compatible r alien);
  check_bool "filter shorter than its stated bits" false
    (Resolver.compatible r { probe with first = Bitvec.create 128 });
  Alcotest.check_raises "resolve rejects geometry"
    (Invalid_argument "Resolver.resolve: incompatible probe geometry") (fun () ->
      ignore (Resolver.resolve r alien ~k:10));
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Resolver.resolve: k must be positive") (fun () ->
      ignore (Resolver.resolve r probe ~k:0));
  Alcotest.check_raises "threshold validated"
    (Invalid_argument "Resolver.build: threshold out of [0, 1]") (fun () ->
      ignore (Resolver.build { config with match_threshold = 1.5 } people));
  (* Empty roster resolves nothing, scans nothing. *)
  let empty = Resolver.build config [||] in
  let o = Resolver.resolve empty probe ~k:10 in
  check_int "empty roster candidates" 0 (List.length o.candidates);
  check_int "empty roster scanned" 0 o.scanned

let test_partial_probe_renormalizes () =
  let people = roster 60 in
  let r = Resolver.build config people in
  (* A probe stating only the last name + dob still self-matches with
     score 1.0: weights renormalize over stated fields. *)
  let target = people.(11) in
  let partial = { target with first = ""; zip = "" } in
  let probe = Probe.of_demographic config.params partial in
  let outcome = Resolver.resolve r probe ~k:5 in
  match outcome.candidates with
  | top :: _ ->
      check_int "partial self-match" 11 top.owner;
      check_bool "renormalized score is 1.0" true (top.score = 1.0)
  | [] -> Alcotest.fail "partial probe resolved nothing"

(* ---- pinned outcomes and the reference scorer ---- *)

(* The resolver as it was first written: one [Probe.t] per owner, buckets
   as a [Hashtbl] of lists, and Dice through [Bitvec.inter] with both
   sides recounted on every pair.  Entries are filed under the same keys
   ([Probe.signature]).  The resolver must agree with it on every score,
   candidate, [scanned] and [buckets_hit]. *)
module Reference = struct
  type t = {
    config : Resolver.config;
    signatures : Probe.t array;
    buckets : (int, int list) Hashtbl.t;
  }

  let build (config : Resolver.config) roster =
    let signatures = Array.map (Probe.signature config.params) roster in
    let buckets = Hashtbl.create (max 16 (2 * Array.length roster)) in
    Array.iteri
      (fun owner (s : Probe.t) ->
        Array.iter
          (fun key ->
            let members = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
            Hashtbl.replace buckets key (owner :: members))
          s.keys)
      signatures;
    { config; signatures; buckets }

  let dice a b =
    let ca = Bitvec.count a and cb = Bitvec.count b in
    if ca = 0 && cb = 0 then 1.0
    else 2.0 *. float_of_int (Bitvec.count (Bitvec.inter a b)) /. float_of_int (ca + cb)

  let weights = [| 0.25; 0.25; 0.30; 0.20 |]
  let fields (p : Probe.t) = [| p.first; p.last; p.dob; p.zip |]

  let score probe signature =
    let pf = fields probe and sf = fields signature in
    let acc = ref 0.0 and total = ref 0.0 in
    Array.iteri
      (fun i f ->
        if Bitvec.count f > 0 then begin
          total := !total +. weights.(i);
          acc := !acc +. (weights.(i) *. dice f sf.(i))
        end)
      pf;
    if !total = 0.0 then 0.0 else Float.round (!acc /. !total *. 10000.) /. 10000.

  let resolve t (probe : Probe.t) ~k : Resolver.outcome =
    let n = Array.length t.signatures in
    if n = 0 then { candidates = []; scanned = 0; buckets_hit = 0 }
    else begin
      let seen = Bytes.make n '\000' in
      let members = ref [] and count = ref 0 and buckets_hit = ref 0 in
      let add owner =
        if owner >= 0 && owner < n && Bytes.get seen owner = '\000' then begin
          Bytes.set seen owner '\001';
          members := owner :: !members;
          incr count
        end
      in
      Array.iter
        (fun key ->
          match Hashtbl.find_opt t.buckets key with
          | Some owners ->
              incr buckets_hit;
              List.iter add owners
          | None -> ())
        probe.keys;
      let target = min t.config.min_scan n in
      if !count < target then begin
        let rng = Rng.create (Probe.routing_hash probe) in
        while !count < target do
          add (Rng.int rng n)
        done
      end;
      let scored =
        List.filter_map
          (fun owner ->
            let s = score probe t.signatures.(owner) in
            if s >= t.config.match_threshold then Some { Resolver.owner; score = s } else None)
          !members
      in
      let sorted =
        List.sort
          (fun (a : Resolver.resolved) (b : Resolver.resolved) ->
            if a.score <> b.score then compare b.score a.score else compare a.owner b.owner)
          scored
      in
      { candidates = List.filteri (fun i _ -> i < k) sorted; scanned = !count;
        buckets_hit = !buckets_hit }
    end
end

(* The probe mix a deployment sees: clean and typo'd registrations,
   partial records, a dob-only probe (birth-year key alone), identities
   nobody registered, and keyless probes that reach no bucket and are
   answered from the padding decoys alone. *)
let pinned_records (people : Demographic.t array) =
  let rng = Rng.create 37 in
  let at = List.map (fun i -> people.(i)) in
  let clean = at [ 0; 1; 7; 42; 123; 500; 999; 1234; 1777; 1999 ] in
  let corrupted =
    List.init 15 (fun _ ->
        let truth = Rng.int rng (Array.length people) in
        Demographic.corrupt rng people.(truth))
  in
  let partial =
    List.map (fun (p : Demographic.t) -> { p with first = ""; zip = "" })
      (at [ 3; 77; 640; 1500; 1998 ])
  in
  let dob_only =
    List.map
      (fun (p : Demographic.t) -> { p with first = ""; last = ""; zip = "" })
      (at [ 5; 250; 1100; 1888 ])
  in
  let absent =
    [ absent_person;
      { first = "nobody"; last = "nowhere"; dob = (2077, 7, 7); zip = "99999"; gender = Male } ]
  in
  let keyless =
    List.map (fun (p : Demographic.t) -> { p with last = ""; dob = (0, 0, 0) }) (at [ 11; 1300; 1600 ])
    @ [ { absent_person with first = ""; last = ""; dob = (0, 0, 0); zip = "" } ]
  in
  Array.of_list (clean @ corrupted @ partial @ dob_only @ absent @ keyless)

let pinned_roster = lazy (Roster.generate (Rng.create 31) ~n:2000)

let pinned_probes =
  lazy (Array.map (Probe.of_demographic config.params) (pinned_records (Lazy.force pinned_roster)))

(* The same forty records as clients built them before the conjunctive
   keys: the single keys only. *)
let legacy_probes =
  lazy
    (Array.map
       (fun r -> { (Probe.of_demographic config.params r) with keys = legacy_keys r })
       (pinned_records (Lazy.force pinned_roster)))

let render_outcome b (o : Resolver.outcome) =
  Printf.bprintf b "scanned %d buckets %d:" o.scanned o.buckets_hit;
  List.iter (fun (c : Resolver.resolved) -> Printf.bprintf b " %d=%h" c.owner c.score) o.candidates;
  Buffer.add_char b '\n'

(* Every pinned probe at the serving defaults (k = 10) and at threshold 0
   (k = 20, so the tail of the candidate order is pinned too). *)
let outcomes_digest probes resolve =
  let b = Buffer.create 4096 in
  Array.iter
    (fun probe ->
      render_outcome b (resolve `Default probe ~k:10);
      render_outcome b (resolve `Loose probe ~k:20))
    (Lazy.force probes);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Legacy-key probes must keep the digest every probe gave before the
   conjunctive keys.  Current probes differ only where a record states
   first name, last name and birth year: those send the conjunctive keys,
   so their scans, decoys and threshold-0 candidate tails change. *)
let legacy_outcomes_digest = "051bc79122cdfdc408dc6c609859dbb2"
let pinned_outcomes_digest = "0cb4782499205274e8d07f3c6e9f2ad9"

let test_resolve_pinned_outcomes () =
  let people = Lazy.force pinned_roster in
  let loose = { config with match_threshold = 0.0 } in
  check_int "forty probes" 40 (Array.length (Lazy.force pinned_probes));
  let flat = Resolver.build config people and flat_loose = Resolver.build loose people in
  let reference = Reference.build config people
  and reference_loose = Reference.build loose people in
  List.iter
    (fun (what, probes, digest) ->
      Alcotest.(check string)
        ("resolver outcomes, " ^ what) digest
        (outcomes_digest probes (function
          | `Default -> Resolver.resolve flat
          | `Loose -> Resolver.resolve flat_loose));
      Alcotest.(check string)
        ("reference outcomes, " ^ what) digest
        (outcomes_digest probes (function
          | `Default -> Reference.resolve reference
          | `Loose -> Reference.resolve reference_loose)))
    [ ("current probes", pinned_probes, pinned_outcomes_digest);
      ("legacy-key probes", legacy_probes, legacy_outcomes_digest) ]

(* The multicore daemon's worker domains share one resolver. *)
let test_resolve_two_domains () =
  let r = Resolver.build config (Lazy.force pinned_roster) in
  let probes = Lazy.force pinned_probes in
  let sequential = Array.map (fun p -> Resolver.resolve r p ~k:10) probes in
  let rounds order () =
    List.init 20 (fun _ -> Array.map (fun i -> (i, Resolver.resolve r probes.(i) ~k:10)) order)
  in
  let forward = Array.init (Array.length probes) Fun.id in
  let backward = Array.init (Array.length probes) (fun i -> Array.length probes - 1 - i) in
  let other = Domain.spawn (rounds backward) in
  let mine = rounds forward () in
  let theirs = Domain.join other in
  List.iter
    (Array.iter (fun (i, o) ->
         check_bool (Printf.sprintf "probe %d matches sequential" i) true (o = sequential.(i))))
    (mine @ theirs)

(* After a warm-up, resolving allocates only the outcome itself: no
   per-pair arrays, intersections or boxed scores. *)
let test_resolve_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let people = Lazy.force pinned_roster in
    let r = Resolver.build { config with min_scan = 1500 } people in
    let probe =
      Probe.of_demographic config.params (Demographic.corrupt (Rng.create 5) people.(17))
    in
    ignore (Resolver.resolve r probe ~k:10);
    let before = Gc.minor_words () in
    let o = Resolver.resolve r probe ~k:10 in
    let words = Gc.minor_words () -. before in
    check_bool (Printf.sprintf "scanned %d >= 1000" o.scanned) true (o.scanned >= 1000);
    check_bool
      (Printf.sprintf "%.0f minor words over %d scanned signatures" words o.scanned)
      true
      (words < 0.1 *. float_of_int o.scanned)
  end

(* Filter bits, blocking keys and routing hashes of a fixed record table:
   probes are built on both sides of the wire, so any drift in the
   encoding strands every client built before it. *)
let test_probe_encoding_pinned () =
  let people = Roster.generate (Rng.create 43) ~n:30 in
  let odd : Demographic.t list =
    [ absent_person;
      { first = "O'Brien"; last = "van der Berg"; dob = (1999, 12, 31); zip = "02139-4307";
        gender = Female };
      { first = "MARY-JANE"; last = "Ng"; dob = (0, 0, 0); zip = ""; gender = Other };
      { first = "x"; last = "_"; dob = (1, 2, 3); zip = "1"; gender = Male };
      { first = "jos\xc3\xa9"; last = "\xc3\x85str\xc3\xb6m"; dob = (1950, 1, 1); zip = "a1b2";
        gender = Other };
      { first = ""; last = ""; dob = (0, 0, 0); zip = ""; gender = Other } ]
  in
  let b = Buffer.create 8192 in
  let filter name bv =
    Printf.bprintf b " %s[%s]" name
      (String.concat "," (List.map string_of_int (Bitvec.to_index_list bv)))
  in
  List.iter
    (fun (params : Bloom.params) ->
      List.iter
        (fun record ->
          let p = Probe.of_demographic params record in
          Printf.bprintf b "keys %s route %d"
            (String.concat "," (Array.to_list (Array.map string_of_int p.keys)))
            (Probe.routing_hash p);
          filter "first" p.first;
          filter "last" p.last;
          filter "dob" p.dob;
          filter "zip" p.zip;
          Buffer.add_char b '\n')
        (Array.to_list people @ odd))
    [ config.params; Bloom.keyed ~seed:7 ~bits:100 ~hashes:3 () ];
  List.iter
    (fun s -> Printf.bprintf b "%s=%d\n" s (Probe.keyed_hash seed s))
    [ ""; "y:1943"; "s:S530"; "s:0000"; "\xff\x00"; String.make 40 'z' ];
  Alcotest.(check string)
    "probe encoding digest" "f8f07771a60ee411c31104c71e213c75"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let qcheck_tests =
  let open QCheck in
  [
    (* Random rosters, padding floors from 0 past the roster size, all
       three threshold regimes and every k up to 20. *)
    Test.make ~name:"resolve equals the reference scorer" ~count:150
      (quad (int_range 0 300) (int_bound 305) (int_range 1 20) (pair (int_bound 2) int))
      (fun (n, min_scan, k, (t, seed)) ->
        let rng = Rng.create seed in
        let people = Roster.generate rng ~n in
        let config =
          { config with match_threshold = [| 0.0; 0.6; 1.0 |].(t); min_scan = min_scan mod (n + 6) }
        in
        let flat = Resolver.build config people and reference = Reference.build config people in
        let from_roster f = if n = 0 then [] else [ f people.(Rng.int rng n) ] in
        let records =
          from_roster Fun.id
          @ from_roster (Demographic.corrupt rng)
          @ from_roster (fun (p : Demographic.t) -> { p with first = ""; zip = "" })
          @ from_roster (fun (p : Demographic.t) -> { p with last = ""; dob = (0, 0, 0) })
          @ [ Demographic.random_person rng; absent_person ]
        in
        List.for_all
          (fun record ->
            let probe = Probe.of_demographic config.params record in
            Resolver.resolve flat probe ~k = Reference.resolve reference probe ~k)
          records);
  ]

(* ---- the engine's fuzzy path ---- *)

let test_index n m =
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for k = 0 to j mod 5 do
      Bitmatrix.set matrix ~row:j ~col:((j + (k * 7)) mod m) true
    done
  done;
  Eppi.Index.of_matrix matrix

let test_engine_fuzzy_reply () =
  let n = 40 in
  let people = roster n in
  let resolver = Resolver.build config people in
  let index = test_index n 16 in
  let engine = Serve.create ~resolver index in
  let probe = Probe.of_demographic config.params people.(5) in
  let generation, reply = Serve.query_fuzzy ~k:3 engine probe in
  check_int "generation" 1 generation;
  (match reply with
  | Serve.Candidates ((top : Serve.candidate) :: _) ->
      check_int "top owner" 5 top.owner;
      check_bool "row matches Index.query" true
        (top.providers = Eppi.Index.query index ~owner:5)
  | _ -> Alcotest.fail "expected candidates");
  (* No resolver: explicit reply, counted as rejected. *)
  let bare = Serve.create index in
  let _, r2 = Serve.query_fuzzy bare probe in
  check_bool "no resolver" true (r2 = Serve.No_resolver);
  (* Geometry mismatch. *)
  let alien = Probe.of_demographic (Bloom.keyed ~seed ~bits:128 ()) people.(5) in
  let _, r3 = Serve.query_fuzzy engine alien in
  check_bool "probe mismatch" true (r3 = Serve.Probe_mismatch);
  let snap = Serve.metrics engine in
  check_int "fuzzy conservation" snap.fuzzy_queries
    (snap.fuzzy_resolved + snap.fuzzy_empty + snap.fuzzy_rejected + snap.fuzzy_shed);
  Alcotest.check_raises "k validated" (Invalid_argument "Serve.query_fuzzy: k must be positive")
    (fun () -> ignore (Serve.query_fuzzy ~k:0 engine probe))

let test_engine_fuzzy_republish () =
  let n = 30 in
  let people = roster n in
  let resolver = Resolver.build config people in
  let index = test_index n 16 in
  let index2 = test_index n 24 in
  let engine = Serve.create ~resolver index in
  let probe = Probe.of_demographic config.params people.(2) in
  (* Republish without a resolver: the old one is carried over and keeps
     answering, now against the new postings. *)
  let gen2 = Serve.republish engine (Postings.of_index index2) in
  check_int "generation bumped" 2 gen2;
  check_bool "resolver carried over" true (Serve.resolver engine <> None);
  let generation, reply = Serve.query_fuzzy engine probe in
  check_int "answers from new generation" 2 generation;
  (match reply with
  | Serve.Candidates ((top : Serve.candidate) :: _) ->
      check_bool "row from new index" true (top.providers = Eppi.Index.query index2 ~owner:2)
  | _ -> Alcotest.fail "expected candidates after republish");
  (* Republish with a fresh resolver over a different roster: the pair
     swaps together. *)
  let people3 = Roster.generate (Rng.create 999) ~n in
  let resolver3 = Resolver.build config people3 in
  let gen3 = Serve.republish ~resolver:resolver3 engine (Postings.of_index (test_index n 16)) in
  check_int "generation 3" 3 gen3;
  let probe3 = Probe.of_demographic config.params people3.(9) in
  let g, r = Serve.query_fuzzy engine probe3 in
  check_int "tagged with swap generation" 3 g;
  match r with
  | Serve.Candidates ((top : Serve.candidate) :: _) -> check_int "new roster resolves" 9 top.owner
  | _ -> Alcotest.fail "new resolver did not answer"

let test_engine_fuzzy_admission () =
  let n = 20 in
  let people = roster n in
  let resolver = Resolver.build config people in
  let admission = Some { Eppi_serve.Admission.rate = 1.0; burst = 2 } in
  let c = { Serve.admission } in
  let engine = Serve.create ~config:c ~resolver (test_index n 8) in
  let probe = Probe.of_demographic config.params people.(0) in
  (* Burst 2 at a frozen clock: two admitted, the third shed. *)
  let _, r1 = Serve.query_fuzzy ~now:0.0 engine probe in
  let _, r2 = Serve.query_fuzzy ~now:0.0 engine probe in
  let _, r3 = Serve.query_fuzzy ~now:0.0 engine probe in
  check_bool "first admitted" true (r1 <> Serve.Fuzzy_shed);
  check_bool "second admitted" true (r2 <> Serve.Fuzzy_shed);
  check_bool "third shed" true (r3 = Serve.Fuzzy_shed);
  let snap = Serve.metrics engine in
  check_int "shed counted" 1 snap.fuzzy_shed;
  check_int "conservation" snap.fuzzy_queries
    (snap.fuzzy_resolved + snap.fuzzy_empty + snap.fuzzy_rejected + snap.fuzzy_shed)

let test_workload_fuzzy () =
  let people = roster 50 in
  let w = Eppi_serve.Workload.fuzzy (Rng.create 3) ~roster:people ~count:200 in
  check_int "count" 200 (Array.length w);
  Array.iter
    (fun (truth, observed) ->
      check_bool "truth in range" true (truth >= 0 && truth < 50);
      (* corrupt never blanks a field, so the observed record stays a
         plausible registration of the truth. *)
      check_bool "observed non-empty" true
        (String.length observed.Demographic.first > 0 && String.length observed.last > 0))
    w;
  (* Zipf skew: owner 0 is hottest. *)
  let count0 = Array.fold_left (fun acc (t, _) -> if t = 0 then acc + 1 else acc) 0 w in
  check_bool "zipf head" true (count0 > 200 / 50);
  Alcotest.check_raises "empty roster" (Invalid_argument "Workload.fuzzy: empty roster")
    (fun () -> ignore (Eppi_serve.Workload.fuzzy (Rng.create 3) ~roster:[||] ~count:10))

let () =
  Alcotest.run "fuzzy"
    [
      ( "probe",
        [
          Alcotest.test_case "shape, determinism, keys" `Quick test_probe_shape;
          Alcotest.test_case "partial probes keep the single keys" `Quick test_probe_partial_keys;
          Alcotest.test_case "encoding pinned" `Quick test_probe_encoding_pinned;
          Alcotest.test_case "soundex and date strings pinned" `Quick test_probe_strings_pinned;
        ] );
      ( "roster",
        [
          Alcotest.test_case "csv round-trip" `Quick test_roster_roundtrip;
          Alcotest.test_case "malformed csv" `Quick test_roster_malformed;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "exact self-resolution" `Quick test_resolve_exact_self;
          Alcotest.test_case "corrupted variants recall" `Quick test_resolve_corrupted;
          Alcotest.test_case "candidate-set padding floor" `Quick test_resolve_padding_floor;
          Alcotest.test_case "conjunctive keys shrink the scan" `Quick
            test_resolve_blocking_scale;
          Alcotest.test_case "threshold and k" `Quick test_resolve_threshold_and_k;
          Alcotest.test_case "determinism and validation" `Quick
            test_resolve_deterministic_and_validation;
          Alcotest.test_case "partial probe renormalizes" `Quick test_partial_probe_renormalizes;
          Alcotest.test_case "pinned outcomes" `Quick test_resolve_pinned_outcomes;
          Alcotest.test_case "two domains share a resolver" `Quick test_resolve_two_domains;
          Alcotest.test_case "allocation per scanned signature" `Quick test_resolve_allocation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fuzzy reply shapes" `Quick test_engine_fuzzy_reply;
          Alcotest.test_case "resolver hot-swap" `Quick test_engine_fuzzy_republish;
          Alcotest.test_case "admission sheds" `Quick test_engine_fuzzy_admission;
          Alcotest.test_case "typo workload" `Quick test_workload_fuzzy;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest (qcheck_tests @ roster_loader_props));
    ]
