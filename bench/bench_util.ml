(* Shared helpers for the experiment harness. *)

open Eppi_prelude

let heading title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt

(* Success ratio of the e-PPI fast path averaged over [samples] estimator
   runs (the paper samples 20 times and averages). *)
let eppi_success rng ~policy ~frequency ~epsilon ~m ~samples ~trials =
  let acc = ref 0.0 in
  for _ = 1 to samples do
    acc :=
      !acc +. Eppi.Analysis.empirical_success rng ~policy ~frequency ~epsilon ~m ~trials
  done;
  !acc /. float_of_int samples

let grouping_success rng ~frequency ~epsilon ~m ~groups ~samples ~trials =
  let acc = ref 0.0 in
  for _ = 1 to samples do
    acc :=
      !acc +. Eppi_grouping.Grouping.empirical_success rng ~frequency ~epsilon ~m ~groups ~trials
  done;
  !acc /. float_of_int samples

(* A membership matrix with one planted row per requested frequency. *)
let matrix_of_frequencies rng ~m ~freqs =
  let membership = Bitmatrix.create ~rows:(Array.length freqs) ~cols:m in
  Array.iteri
    (fun j f ->
      let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
      Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen)
    freqs;
  membership

(* ---- results and gates ---- *)

(* Field readers for gates.  A missing or mistyped field reads as NaN,
   false or [], so a gate over it fails instead of raising. *)
let num v path = Option.value ~default:Float.nan (Json.find_num v path)
let flag v path = Json.find v path = Some (Json.Bool true)
let items v path = Option.value ~default:[] (Option.bind (Json.find v path) Json.list)
let has keys v = List.for_all (fun k -> Json.member k v <> None) keys

(* Write a bench's result to [file], then check every gate — a named
   predicate over that same value — and report each.  Any failure raises
   once the file is on disk, so the harness exits non-zero and the failing
   result stays behind for inspection. *)
let publish file result gates =
  let oc = open_out file in
  output_string oc (Json.to_string result);
  output_char oc '\n';
  close_out oc;
  note "wrote %s" file;
  let failed =
    List.filter_map
      (fun (name, holds) ->
        let ok = holds result in
        note "gate %s: %s" (if ok then "ok" else "FAILED") name;
        if ok then None else Some name)
      gates
  in
  if failed <> [] then
    failwith (Printf.sprintf "%s: gate failed: %s" file (String.concat "; " failed))
