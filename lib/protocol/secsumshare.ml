open Eppi_prelude
module Simnet = Eppi_simnet.Simnet
module Additive = Eppi_secretshare.Additive

type msg = Shares of { k : int; values : Additive.vector } | Super of Additive.vector

type result = {
  coordinator_shares : int array array;
  net : Simnet.metrics;
  link : Link.report;
}

let timing = { Link.rto = 0.01; backoff = 2.0; max_rto = 0.08; max_retries = 25 }

(* Failure-detector horizon: providers check for missing shares at
   [deadline], coordinators for missing super-shares at twice that. *)
let deadline = 0.25

(* Wire size of an n-residue vector: its packed residues plus a small
   envelope. *)
let message_size ~q n = (Additive.width q * n) + 16

(* CPU charge per modular operation in the simulated time model. *)
let op_cost = 2e-8

let validate membership ~c =
  let m = Bitmatrix.cols membership and n = Bitmatrix.rows membership in
  if c < 2 then invalid_arg "Secsumshare.run: need c >= 2";
  if m < c then invalid_arg "Secsumshare.run: need at least c providers";
  if n = 0 then invalid_arg "Secsumshare.run: empty input vectors";
  (m, n)

(* The providers' private inputs, transposed out of the owner-major matrix:
   provider i's column as [stride] packed bytes at [i * stride], identity j
   at bit [j mod 8] of byte [j / 8].  Only set bits are visited. *)
let columns membership ~m ~n =
  let stride = (n + 7) / 8 in
  let cols = Bytes.make (m * stride) '\000' in
  let j = ref 0 in
  let set i =
    let o = (i * stride) + (!j lsr 3) in
    Bytes.set cols o (Char.unsafe_chr (Char.code (Bytes.get cols o) lor (1 lsl (!j land 7))))
  in
  for row = 0 to n - 1 do
    j := row;
    Bitvec.iter_set set (Bitmatrix.row membership row)
  done;
  (cols, stride)

let run ?plan rng ~membership ~c ~q =
  let m, n = validate membership ~c in
  let link = Link.create plan timing ~nodes:m in
  let net = Link.net link in
  let cols, stride = columns membership ~m ~n in
  (* Per-provider accumulator over the shares it holds (own 0-th + received). *)
  let acc = Array.init m (fun _ -> Additive.vector ~q n) in
  (* Scratch for one provider's draws: the time-0 splits run one at a time. *)
  let draws = Array.make ((c - 1) * n) 0 in
  let received = Array.make m 0 in
  (* got_share.(i).(k): provider i holds its k-th ring predecessor's share. *)
  let got_share = Array.make_matrix m c false in
  let got_super = Array.make m false in
  let coordinator_sums = Array.init c (fun _ -> Additive.vector ~q n) in
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
      Link.send link ~src:i ~dst:(i mod c) ~size:(message_size ~q n) ~round:1 (Super acc.(i))
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
            Additive.add_into ~q ~acc:coordinator_sums.(r) values;
            coord_received.(r) <- coord_received.(r) + 1;
            if coord_received.(r) = coord_expect.(r)
               && Array.for_all2 ( = ) coord_received coord_expect
            then Link.finish link);
    Simnet.at net ~delay:0.0 i (fun _ ->
        (* Steps 1-2: split every private bit into c shares; add share 0
           into the local accumulator, send share k to the k-th successor. *)
        Simnet.work net i (op_cost *. float_of_int (n * c));
        let vectors = Array.init c (fun k -> if k = 0 then acc.(i) else Additive.vector ~q n) in
        Additive.share_bits provider_rngs.(i) ~q ~bits:cols ~pos:(i * stride) ~draws
          ~into:vectors;
        for k = 1 to c - 1 do
          Link.send link ~src:i ~dst:((i + k) mod m) ~size:(message_size ~q n) ~round:0
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
  {
    coordinator_shares = Array.map (Additive.to_array ~q) coordinator_sums;
    net = Simnet.metrics net;
    link = report;
  }

let reconstruct ~q shares =
  match Array.length shares with
  | 0 -> [||]
  | _ ->
      let n = Array.length shares.(0) in
      Array.init n (fun j ->
          Array.fold_left (fun acc vec -> Modarith.add q acc vec.(j)) 0 shares)
