open Eppi_prelude

type t = {
  providers : int;
  owners : int;
  membership : Bitmatrix.t;
  epsilons : float array;
}

let frequency t j = Bitmatrix.row_count t.membership j
let sigma t j = float_of_int (frequency t j) /. float_of_int t.providers
let member t ~provider ~owner = Bitmatrix.get t.membership ~row:owner ~col:provider

type profile = {
  zipf_exponent : float;
  max_rare_frequency : int;
  common_fraction : float;
  common_min_sigma : float;
}

let default_profile =
  { zipf_exponent = 1.1; max_rare_frequency = 500; common_fraction = 0.0; common_min_sigma = 0.9 }

let scatter rng membership ~providers ~owner ~count =
  let chosen = Rng.sample_without_replacement rng ~k:count ~n:providers in
  Array.iter (fun p -> Bitmatrix.set membership ~row:owner ~col:p true) chosen

let generate ?(profile = default_profile) rng ~providers ~owners =
  if providers <= 0 || owners <= 0 then invalid_arg "Dataset.generate: empty network";
  let membership = Bitmatrix.create ~rows:owners ~cols:providers in
  let max_rare = max 1 (min profile.max_rare_frequency providers) in
  let zipf = Sampling.Zipf.create ~n:max_rare ~s:profile.zipf_exponent in
  let commons = int_of_float (profile.common_fraction *. float_of_int owners) in
  for j = 0 to owners - 1 do
    let count =
      if j < commons then begin
        (* Planted common identity: sigma in [common_min_sigma, 1]. *)
        let lo = int_of_float (profile.common_min_sigma *. float_of_int providers) in
        Rng.int_in rng (min lo providers) providers
      end
      else
        (* Tail identity: Zipf rank maps directly to a provider count, so the
           frequency histogram is Zipf-shaped with many rank-1 singletons. *)
        Sampling.Zipf.sample zipf rng
    in
    scatter rng membership ~providers ~owner:j ~count
  done;
  { providers; owners; membership; epsilons = Array.make owners 0.5 }

let check_epsilon e =
  if e < 0.0 || e > 1.0 then invalid_arg "Dataset: epsilon out of [0, 1]"

let with_epsilons t epsilons =
  if Array.length epsilons <> t.owners then invalid_arg "Dataset.with_epsilons: length mismatch";
  Array.iter check_epsilon epsilons;
  { t with epsilons = Array.copy epsilons }

let uniform_epsilons rng t =
  { t with epsilons = Array.init t.owners (fun _ -> Rng.float rng 1.0) }

let constant_epsilons t e =
  check_epsilon e;
  { t with epsilons = Array.make t.owners e }

let vip_epsilons rng t ~vip_fraction ~vip_epsilon ~base_epsilon =
  check_epsilon vip_epsilon;
  check_epsilon base_epsilon;
  let vips = int_of_float (vip_fraction *. float_of_int t.owners) in
  let chosen = Rng.sample_without_replacement rng ~k:vips ~n:t.owners in
  let epsilons = Array.make t.owners base_epsilon in
  Array.iter (fun j -> epsilons.(j) <- vip_epsilon) chosen;
  { t with epsilons }

let exact_frequency_owner t ~frequency:want =
  let rec go j =
    if j >= t.owners then None else if frequency t j = want then Some j else go (j + 1)
  in
  go 0

let stats_summary t =
  let freqs = Array.init t.owners (fun j -> float_of_int (frequency t j)) in
  let s = Stats.summary freqs in
  let density =
    Array.fold_left ( +. ) 0.0 freqs /. float_of_int (t.providers * t.owners)
  in
  Format.asprintf "providers=%d owners=%d density=%.5f frequency: %a" t.providers t.owners
    density Stats.pp_summary s

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# providers=%d owners=%d\n" t.providers t.owners);
  Array.iteri (fun j e -> Buffer.add_string buf (Printf.sprintf "eps,%d,%f\n" j e)) t.epsilons;
  for j = 0 to t.owners - 1 do
    Bitvec.iter_set
      (fun p -> Buffer.add_string buf (Printf.sprintf "m,%d,%d\n" j p))
      (Bitmatrix.row t.membership j)
  done;
  Buffer.contents buf

let of_csv text =
  let lines = String.split_on_char '\n' text in
  let providers = ref 0 and owners = ref 0 in
  (match lines with
  | header :: _ ->
      (try Scanf.sscanf header "# providers=%d owners=%d" (fun p o ->
               providers := p;
               owners := o)
       with Scanf.Scan_failure _ | Failure _ | End_of_file ->
         failwith "Dataset.of_csv: bad header")
  | [] -> failwith "Dataset.of_csv: empty input");
  if !providers <= 0 || !owners <= 0 then failwith "Dataset.of_csv: bad dimensions";
  Option.iter
    (fun msg -> failwith ("Dataset.of_csv: " ^ msg))
    (Bitmatrix.budget_error ~rows:!owners ~cols:!providers);
  let membership = Bitmatrix.create ~rows:!owners ~cols:!providers in
  let epsilons = Array.make !owners 0.5 in
  let owner j =
    match int_of_string_opt j with Some j when j >= 0 && j < !owners -> Some j | _ -> None
  in
  List.iteri
    (fun lineno line ->
      if lineno > 0 && line <> "" then
        let bad () = failwith (Printf.sprintf "Dataset.of_csv: bad line %d" (lineno + 1)) in
        match String.split_on_char ',' line with
        | [ "eps"; j; e ] -> (
            match (owner j, float_of_string_opt e) with
            | Some j, Some e -> epsilons.(j) <- e
            | _ -> bad ())
        | [ "m"; j; p ] -> (
            match (owner j, int_of_string_opt p) with
            | Some row, Some col when col >= 0 && col < !providers ->
                Bitmatrix.set membership ~row ~col true
            | _ -> bad ())
        | _ -> bad ())
    lines;
  { providers = !providers; owners = !owners; membership; epsilons }
