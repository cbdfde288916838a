open Eppi_prelude
module Trace = Eppi_obs.Trace

type result = {
  index : Index.t;
  betas : float array;
  raw_betas : float array;
  common : bool array;
  mixed : bool array;
  lambda : float;
  xi : float;
}

let run ?(mixing = Mixing.Bernoulli) ?provider_floors rng ~membership ~epsilons ~policy =
  let n = Bitmatrix.rows membership in
  let m = Bitmatrix.cols membership in
  if Array.length epsilons <> n then invalid_arg "Construct.run: epsilons length mismatch";
  if m <= 0 then invalid_arg "Construct.run: m must be positive";
  Array.iter
    (fun e -> if e < 0.0 || e > 1.0 then invalid_arg "Construct.run: epsilon out of [0, 1]")
    epsilons;
  let frequencies = Array.init n (fun j -> Bitmatrix.row_count membership j) in
  let raw_betas =
    Trace.span "phase.beta" ~args:[ ("owners", n) ] (fun () ->
        Array.init n (fun j ->
            let sigma = float_of_int frequencies.(j) /. float_of_int m in
            Policy.beta policy ~sigma ~epsilon:epsilons.(j) ~m))
  in
  Trace.begin_span "phase.mixing";
  let common = Array.map (fun b -> b >= 1.0) raw_betas in
  let mix = Mixing.plan rng ~mode:mixing ~epsilons ~common in
  let betas =
    Array.init n (fun j -> if common.(j) || mix.mixed.(j) then 1.0 else raw_betas.(j))
  in
  let n_common = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 common in
  Trace.end_span "phase.mixing" ~args:[ ("n_common", n_common) ];
  let index =
    Trace.span "phase.publish" ~args:[ ("owners", n); ("providers", m) ] (fun () ->
        let published =
          match provider_floors with
          | None -> Publish.publish_matrix rng ~betas membership
          | Some floors -> Publish.publish_matrix_with_floors rng ~betas ~floors membership
        in
        Index.of_matrix published)
  in
  { index; betas; raw_betas; common; mixed = mix.mixed; lambda = mix.lambda; xi = mix.xi }

let extend rng ~previous ~membership ~epsilons ~policy =
  let old_n = Index.owners previous.index in
  let n = Bitmatrix.rows membership in
  let m = Bitmatrix.cols membership in
  if n < old_n then invalid_arg "Construct.extend: the population cannot shrink";
  if m <> Index.providers previous.index then
    invalid_arg "Construct.extend: the provider count changed";
  if Array.length epsilons <> n then invalid_arg "Construct.extend: epsilons length mismatch";
  let old_published = Index.matrix previous.index in
  (* An existing owner's memberships must be unchanged: her published row is
     immutable, so any new true positive would break the recall invariant. *)
  for j = 0 to old_n - 1 do
    let truth = Bitmatrix.row membership j in
    let published = Bitmatrix.row old_published j in
    if Bitvec.count (Bitvec.diff truth published) <> 0 then
      invalid_arg "Construct.extend: existing owner's memberships changed; rebuild instead"
  done;
  (* Price the appended owners. *)
  let raw =
    Array.init n (fun j ->
        if j < old_n then previous.raw_betas.(j)
        else
          Policy.beta policy
            ~sigma:(float_of_int (Bitmatrix.row_count membership j) /. float_of_int m)
            ~epsilon:epsilons.(j) ~m)
  in
  let common = Array.init n (fun j -> if j < old_n then previous.common.(j) else raw.(j) >= 1.0) in
  let n_common = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 common in
  let xi = Mixing.xi ~epsilons ~common in
  (* Decoys needed overall for the new xi, minus those already published;
     the deficit is spread over the appended non-common owners. *)
  let old_decoys =
    Array.fold_left (fun acc mixed -> if mixed then acc + 1 else acc) 0 previous.mixed
  in
  let required =
    if n_common = 0 then 0.0 else xi /. (1.0 -. xi) *. float_of_int n_common
  in
  let new_non_common = ref 0 in
  for j = old_n to n - 1 do
    if not common.(j) then incr new_non_common
  done;
  let lambda =
    if !new_non_common = 0 then 0.0
    else
      Float.min 1.0
        (Float.max 0.0 (required -. float_of_int old_decoys) /. float_of_int !new_non_common)
  in
  let mixed = Array.init n (fun j -> j < old_n && previous.mixed.(j)) in
  let betas =
    Array.init n (fun j ->
        if j < old_n then previous.betas.(j)
        else if common.(j) then 1.0
        else if Mixing.mix rng ~lambda then begin
          mixed.(j) <- true;
          1.0
        end
        else raw.(j))
  in
  (* Publish: old rows verbatim, new rows fresh. *)
  let published =
    Bitmatrix.map_rows
      (fun j row ->
        if j < old_n then Bitvec.copy (Bitmatrix.row old_published j)
        else Publish.publish_row rng ~beta:betas.(j) row)
      membership
  in
  {
    index = Index.of_matrix published;
    betas;
    raw_betas = raw;
    common;
    mixed;
    lambda;
    xi;
  }
