open Eppi_prelude
module Simnet = Eppi_simnet.Simnet
module Additive = Eppi_secretshare.Additive

type msg = Shares of { k : int; values : int array } | Super of int array

type result = {
  coordinator_shares : int array array;
  net : Simnet.metrics;
  link : Link.report;
}

let timing = { Link.rto = 0.01; backoff = 2.0; max_rto = 0.08; max_retries = 25 }

(* Failure-detector horizon: providers check for missing shares at
   [deadline], coordinators for missing super-shares at twice that. *)
let deadline = 0.25

(* Rough wire size: 4 bytes per residue plus a small envelope. *)
let message_size n = (4 * n) + 16

(* CPU charge per modular operation in the simulated time model. *)
let op_cost = 2e-8

let validate_inputs inputs ~c ~q =
  let m = Array.length inputs in
  if c < 2 then invalid_arg "Secsumshare.run: need c >= 2";
  if m < c then invalid_arg "Secsumshare.run: need at least c providers";
  let n = Array.length inputs.(0) in
  if n = 0 then invalid_arg "Secsumshare.run: empty input vectors";
  let qi = Modarith.to_int q in
  Array.iteri
    (fun i v ->
      if Array.length v <> n then invalid_arg "Secsumshare.run: ragged inputs";
      Array.iter
        (fun x ->
          if x < 0 || x >= qi then
            invalid_arg (Printf.sprintf "Secsumshare.run: provider %d input out of [0, q)" i))
        v)
    inputs;
  (m, n)

let run ?plan rng ~inputs ~c ~q =
  let m, n = validate_inputs inputs ~c ~q in
  let link = Link.create plan timing ~nodes:m in
  let net = Link.net link in
  (* Per-provider accumulator over the shares it holds (own 0-th + received). *)
  let acc = Array.init m (fun _ -> Array.make n 0) in
  let received = Array.make m 0 in
  (* got_share.(i).(k): provider i holds its k-th ring predecessor's share. *)
  let got_share = Array.make_matrix m c false in
  let got_super = Array.make m false in
  let coordinator_shares = Array.init c (fun _ -> Array.make n 0) in
  let coord_expect = Array.make c 0 in
  for i = 0 to m - 1 do
    coord_expect.(i mod c) <- coord_expect.(i mod c) + 1
  done;
  let coord_received = Array.make c 0 in
  (* Each provider derives its own randomness stream so message timing cannot
     perturb another provider's draws. *)
  let provider_rngs = Array.init m (fun _ -> Rng.split rng) in
  let finish_if_complete i =
    if received.(i) = c - 1 then begin
      (* Step 3-4: the accumulated vector is the super-share; ship it to the
         coordinator responsible for this provider. *)
      Simnet.work net i (op_cost *. float_of_int n);
      Link.send link ~src:i ~dst:(i mod c) ~size:(message_size n) ~round:1 (Super acc.(i))
    end
  in
  for i = 0 to m - 1 do
    Link.on_receive link i (fun ~src msg ->
        Simnet.work net i (op_cost *. float_of_int n);
        match msg with
        | Shares { k; values } ->
            got_share.(i).(k) <- true;
            Additive.add_into ~q ~acc:acc.(i) values;
            received.(i) <- received.(i) + 1;
            finish_if_complete i
        | Super values ->
            got_super.(src) <- true;
            let r = i in
            Additive.add_into ~q ~acc:coordinator_shares.(r) values;
            coord_received.(r) <- coord_received.(r) + 1;
            if coord_received.(r) = coord_expect.(r)
               && Array.for_all2 ( = ) coord_received coord_expect
            then Link.finish link);
    Simnet.at net ~delay:0.0 i (fun _ ->
        (* Steps 1-2: split every private value into c shares; add share 0
           into the local accumulator, send share k to the k-th successor. *)
        let my_rng = provider_rngs.(i) in
        Simnet.work net i (op_cost *. float_of_int (n * c));
        let vectors = Array.init c (fun k -> if k = 0 then [||] else Array.make n 0) in
        let mine = acc.(i) and input = inputs.(i) in
        for j = 0 to n - 1 do
          let own = Additive.share_into my_rng ~q input.(j) ~into:vectors j in
          mine.(j) <- Modarith.add_residues q mine.(j) own
        done;
        for k = 1 to c - 1 do
          Link.send link ~src:i ~dst:((i + k) mod m) ~size:(message_size n) ~round:0
            (Shares { k; values = vectors.(k) })
        done;
        finish_if_complete i)
  done;
  let stalled = Array.make m false in
  let missing_super = Array.make m false in
  if Link.reliable link then begin
    (* Deadline: a provider still short of shares blames exactly the ring
       predecessors whose vectors are missing, and flags itself stalled. *)
    for i = 0 to m - 1 do
      Simnet.at net ~delay:deadline i (fun _ ->
          if received.(i) < c - 1 then begin
            stalled.(i) <- true;
            for k = 1 to c - 1 do
              if not got_share.(i).(k) then Link.blame link ((((i - k) mod m) + m) mod m)
            done
          end)
    done;
    (* Coordinators check for missing super-shares after the providers'
       deadline has had a chance to fire. *)
    for r = 0 to c - 1 do
      Simnet.at net ~delay:(2.0 *. deadline) r (fun _ ->
          if coord_received.(r) < coord_expect.(r) then
            for i = 0 to m - 1 do
              if i mod c = r && not got_super.(i) then missing_super.(i) <- true
            done)
    done
  end;
  Simnet.run net;
  (* A stalled provider's super-share is missing because of someone else's
     failure; do not suspect it without direct evidence. *)
  Array.iteri (fun i missing -> if missing && not stalled.(i) then Link.blame link i) missing_super;
  let report = Link.report link ~stalled:(List.filter (fun i -> stalled.(i)) (List.init m Fun.id)) in
  if not (Link.finished link) then raise (Link.Stalled report);
  { coordinator_shares; net = Simnet.metrics net; link = report }

let reconstruct ~q shares =
  match Array.length shares with
  | 0 -> [||]
  | _ ->
      let n = Array.length shares.(0) in
      Array.init n (fun j ->
          Array.fold_left (fun acc vec -> Modarith.add q acc vec.(j)) 0 shares)
