module Simnet = Eppi_simnet.Simnet
module Cost = Eppi_mpc.Cost
module Bitslice = Eppi_mpc.Bitslice

type msg = { round : int; words : int array array }

type result = {
  outputs : int array array;
  rounds : int;
  net : Simnet.metrics;
  link : Link.report;
}

let timing = { Link.rto = 0.005; backoff = 2.0; max_rto = 0.08; max_retries = 12 }

(* A party that entered a round this long ago and is still missing
   contributions blames the missing parties. *)
let round_deadline = 0.25

let bits_size n = (n + 7) / 8

let execute ?plan chunks =
  if Array.length chunks = 0 then invalid_arg "Mpcnet.execute: no chunks";
  let p = Bitslice.parties chunks.(0) in
  if Array.exists (fun c -> Bitslice.parties c <> p) chunks then
    invalid_arg "Mpcnet.execute: chunks differ in parties";
  if p < 2 then invalid_arg "Mpcnet.execute: need at least 2 parties";
  (* Round r < n_layers opens And layer r, two words per gate; round
     n_layers opens the outputs, one word each.  A round's message carries
     one word array per chunk. *)
  let n_layers = Array.fold_left (fun acc c -> max acc (Bitslice.depth c)) 0 chunks in
  let gates r c = if r < n_layers then Bitslice.layer_ands c r else Bitslice.outputs c in
  let width r c = if r < n_layers then 2 * gates r c else gates r c in
  let zeros r = Array.map (fun c -> Array.make (width r c) 0) chunks in
  let live =
    Array.init (n_layers + 1) (fun r ->
        Array.fold_left (fun n c -> n + (Bitslice.lanes c * gates r c)) 0 chunks)
  in
  let link = Link.create plan timing ~nodes:p in
  let net = Link.net link in
  (* Per receiving party and round: the XOR of the contributions it has,
     how many, and from whom — the failure detector blames exactly the
     parties still missing at a deadline. *)
  let acc = Array.init p (fun _ -> Array.init (n_layers + 1) zeros) in
  let count = Array.make_matrix p (n_layers + 1) 0 in
  let got = Array.init p (fun _ -> Array.make_matrix (n_layers + 1) p false) in
  let opened = Array.make n_layers false in
  let final = ref None in
  let params = Cost.default_params in
  let rec start i r =
    let mine = zeros r and layer = r < n_layers in
    Simnet.work net i
      ((if layer then params.crypto_per_and else params.cpu_per_gate) *. float_of_int live.(r));
    Array.iteri
      (fun k c ->
        if layer then Bitslice.contribute c ~party:i ~layer:r mine.(k)
        else Bitslice.output_shares c ~party:i mine.(k))
      chunks;
    let payload = if layer then 2 * bits_size live.(r) else bits_size live.(r) in
    Link.broadcast link ~src:i ~size:(payload + 16) ~round:r { round = r; words = mine };
    absorb i ~src:i r mine;
    if Link.reliable link then
      Simnet.at net ~delay:round_deadline i (fun _ ->
          if (not (Link.finished link)) && count.(i).(r) < p then
            Array.iteri
              (fun j seen -> if (not seen) && j <> i then Link.blame link j)
              got.(i).(r))
  (* Party 0 reconstructs the outputs; under retransmission skew its own
     contribution can be the last to arrive, so own words come through
     here too. *)
  and absorb i ~src r contribution =
    got.(i).(r).(src) <- true;
    Array.iteri
      (fun k words ->
        let a = acc.(i).(r).(k) in
        Array.iteri (fun m v -> a.(m) <- a.(m) lxor v) words)
      contribution;
    count.(i).(r) <- count.(i).(r) + 1;
    if count.(i).(r) = p then
      if r < n_layers then begin
        (* Every party opens the same words.  The chunks hold all parties'
           shares, so the first party to open a layer closes it for all. *)
        if not opened.(r) then begin
          opened.(r) <- true;
          Array.iteri (fun k c -> Bitslice.finish c ~layer:r acc.(i).(r).(k)) chunks
        end;
        start i (r + 1)
      end
      else if i = 0 then begin
        final := Some acc.(i).(r);
        Link.finish link
      end
  in
  for i = 0 to p - 1 do
    Link.on_receive link i (fun ~src { round; words } -> absorb i ~src round words);
    Simnet.at net ~delay:0.0 i (fun _ -> start i 0)
  done;
  Simnet.run net;
  let report = Link.report link ~stalled:[] in
  match !final with
  | None -> raise (Link.Stalled report)
  | Some outputs -> { outputs; rounds = n_layers + 1; net = Simnet.metrics net; link = report }
