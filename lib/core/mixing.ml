let lambda ~xi ~n_common ~n_total =
  if xi < 0.0 || xi >= 1.0 then invalid_arg "Mixing.lambda: xi out of [0, 1)";
  if n_common < 0 || n_total < 0 || n_common > n_total then
    invalid_arg "Mixing.lambda: bad counts";
  if n_common = 0 then 0.0
  else if n_common = n_total then 1.0
  else begin
    let c = float_of_int n_common and rest = float_of_int (n_total - n_common) in
    Float.min 1.0 (xi /. (1.0 -. xi) *. (c /. rest))
  end

let decoy_fraction ~lambda ~n_common ~n_total =
  if n_common = 0 then 1.0
  else begin
    let decoys = lambda *. float_of_int (n_total - n_common) in
    decoys /. (decoys +. float_of_int n_common)
  end

let mix rng ~lambda = Eppi_prelude.Rng.bernoulli rng lambda

type mode = Bernoulli | Exact_count

let mode_name = function Bernoulli -> "bernoulli" | Exact_count -> "exact-count"

let select_decoys rng ~mode ~lambda ~candidates =
  let n = Array.length candidates in
  match mode with
  | Bernoulli -> Array.map (fun _ -> mix rng ~lambda) candidates
  | Exact_count ->
      let k = min n (int_of_float (Float.ceil (lambda *. float_of_int n))) in
      let chosen = Eppi_prelude.Rng.sample_without_replacement rng ~k ~n in
      let mask = Array.make n false in
      Array.iter (fun slot -> mask.(slot) <- true) chosen;
      mask

let xi ~epsilons ~common =
  let acc = ref 0.0 in
  Array.iteri (fun j c -> if c then acc := Float.max !acc epsilons.(j)) common;
  (* ξ = 1 would require infinitely many decoys; the strongest enforceable
     requirement leaves at least one true positive in the pool. *)
  Float.min !acc 0.999

type plan = { xi : float; lambda : float; mixed : bool array }

let plan rng ~mode ~epsilons ~common =
  let n = Array.length common in
  let xi = xi ~epsilons ~common in
  let n_common = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 common in
  let lambda = lambda ~xi ~n_common ~n_total:n in
  let candidates = Array.of_list (List.filter (fun j -> not common.(j)) (List.init n Fun.id)) in
  let mixed = Array.make n false in
  let decoys = select_decoys rng ~mode ~lambda ~candidates in
  Array.iteri (fun slot j -> if decoys.(slot) then mixed.(j) <- true) candidates;
  { xi; lambda; mixed }
