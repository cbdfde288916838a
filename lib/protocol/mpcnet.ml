open Eppi_prelude
open Eppi_circuit
module Simnet = Eppi_simnet.Simnet
module Cost = Eppi_mpc.Cost

type msg =
  | Opens of { layer : int; ds : bool array; es : bool array }
  | Outs of bool array

type result = {
  outputs : bool array;
  rounds : int;
  net : Simnet.metrics;
  link : Link.report;
}

let timing = { Link.rto = 0.005; backoff = 2.0; max_rto = 0.08; max_retries = 12 }

(* A party that entered a round this long ago and is still missing
   contributions blames the missing parties. *)
let round_deadline = 0.25

(* XOR-share a bit among p parties. *)
let share_bit rng ~p v =
  let shares = Array.init p (fun i -> if i < p - 1 then Rng.bool rng else false) in
  let parity = Array.fold_left ( <> ) false shares in
  shares.(p - 1) <- parity <> v;
  shares

let bits_size n = (n + 7) / 8

(* --- Dealer phase (offline): input shares and Beaver triples.  The rng
   draw order here is load-bearing (bit-identical outputs across transports
   depend on it). --- *)
let deal rng circuit ~inputs ~p =
  let gates = Circuit.gates circuit in
  let n_wires = Array.length gates in
  let input_shares = Array.init p (fun _ -> Array.make n_wires false) in
  let sa = Array.init p (fun _ -> Array.make n_wires false) in
  let sb = Array.init p (fun _ -> Array.make n_wires false) in
  let sc = Array.init p (fun _ -> Array.make n_wires false) in
  Array.iteri
    (fun w gate ->
      match gate with
      | Circuit.Input { party; index } ->
          if party >= Array.length inputs || index >= Array.length inputs.(party) then
            invalid_arg "Mpcnet.execute: missing input bit";
          let shares = share_bit rng ~p inputs.(party).(index) in
          Array.iteri (fun i s -> input_shares.(i).(w) <- s) shares
      | And _ ->
          let ta = Rng.bool rng and tb = Rng.bool rng in
          let dealt_a = share_bit rng ~p ta in
          let dealt_b = share_bit rng ~p tb in
          let dealt_c = share_bit rng ~p (ta && tb) in
          for i = 0 to p - 1 do
            sa.(i).(w) <- dealt_a.(i);
            sb.(i).(w) <- dealt_b.(i);
            sc.(i).(w) <- dealt_c.(i)
          done
      | Const _ | Not _ | Xor _ -> ())
    gates;
  (input_shares, sa, sb, sc)

let execute ?plan rng circuit ~inputs =
  let p = Circuit.num_parties circuit in
  if p < 2 then invalid_arg "Mpcnet.execute: need at least 2 parties";
  let gates = Circuit.gates circuit in
  let n_wires = Array.length gates in
  let layers = Circuit.and_layers circuit in
  let n_layers = Array.length layers in
  let outputs_w = Circuit.outputs circuit in
  (* Dealer draws happen before the network exists: message-level faults
     cannot shift them, so outputs are a pure function of (rng, inputs). *)
  let input_shares, sa, sb, sc = deal rng circuit ~inputs ~p in
  (* --- Online phase over the network. --- *)
  let link = Link.create plan timing ~nodes:p in
  let net = Link.net link in
  let shares = Array.init p (fun _ -> Array.make n_wires false) in
  let computed = Array.init p (fun _ -> Array.make n_wires false) in
  (* Opened d/e values, agreed by all parties once a layer completes; they
     are public, so a single global table is faithful. *)
  let opened_d = Array.make n_wires false in
  let opened_e = Array.make n_wires false in
  (* Per-party, per-layer accumulators. *)
  let d_acc = Array.init p (fun _ -> Array.map (fun ws -> Array.make (Array.length ws) false) layers) in
  let e_acc = Array.init p (fun _ -> Array.map (fun ws -> Array.make (Array.length ws) false) layers) in
  let opens_count = Array.make_matrix p n_layers 0 in
  let out_acc = Array.init p (fun _ -> Array.make (Array.length outputs_w) false) in
  let outs_count = Array.make p 0 in
  (* Who has contributed what, per receiver: the failure detector blames
     exactly the parties whose contribution is still missing at a deadline. *)
  let got_open = Array.init p (fun _ -> Array.make_matrix n_layers p false) in
  let got_out = Array.make_matrix p p false in
  let final_outputs = ref None in
  let rounds = if n_layers = 0 then 1 else n_layers + 1 in
  let params = Cost.default_params in
  (* Under a fault plan, a party still missing contributions to a round
     [round_deadline] after entering it blames the missing parties. *)
  let watch i ~count ~got =
    if Link.reliable link then
      Simnet.at net ~delay:round_deadline i (fun _ ->
          if (not (Link.finished link)) && count () < p then
            for j = 0 to p - 1 do
              if (not got.(j)) && j <> i then Link.blame link j
            done)
  in
  (* Memoized local evaluation: And wires must already be finalized. *)
  let rec eval i w =
    if not computed.(i).(w) then begin
      (match gates.(w) with
      | Circuit.Input _ -> shares.(i).(w) <- input_shares.(i).(w)
      | Const b -> shares.(i).(w) <- (i = 0 && b)
      | Not a ->
          eval i a;
          shares.(i).(w) <- (if i = 0 then not shares.(i).(a) else shares.(i).(a))
      | Xor (a, b) ->
          eval i a;
          eval i b;
          shares.(i).(w) <- shares.(i).(a) <> shares.(i).(b)
      | And _ -> failwith "Mpcnet: AND wire evaluated before its layer opened");
      computed.(i).(w) <- true
    end
  in
  (* Fold a (possibly own) output contribution in; party 0 reconstructs.
     Under retransmission skew party 0 can be the last to contribute its own
     share, so this runs for its own contribution too. *)
  let absorb_outputs i ~src contribution =
    got_out.(i).(src) <- true;
    Array.iteri (fun k v -> out_acc.(i).(k) <- out_acc.(i).(k) <> v) contribution;
    outs_count.(i) <- outs_count.(i) + 1;
    if outs_count.(i) = p && i = 0 then begin
      final_outputs := Some (Array.copy out_acc.(i));
      Link.finish link
    end
  in
  let send_outputs i =
    let my = Array.map (fun w -> eval i w; shares.(i).(w)) outputs_w in
    absorb_outputs i ~src:i my;
    Simnet.work net i (params.cpu_per_gate *. float_of_int (Array.length outputs_w));
    Link.broadcast link ~src:i
      ~size:(bits_size (Array.length outputs_w) + 16)
      ~round:n_layers (Outs my);
    watch i ~count:(fun () -> outs_count.(i)) ~got:got_out.(i)
  in
  let rec start_layer i l =
    if l >= n_layers then send_outputs i
    else begin
      let wires = layers.(l) in
      Simnet.work net i (params.crypto_per_and *. float_of_int (Array.length wires));
      let ds =
        Array.map
          (fun w ->
            match gates.(w) with
            | Circuit.And (a, _) ->
                eval i a;
                shares.(i).(a) <> sa.(i).(w)
            | _ -> assert false)
          wires
      in
      let es =
        Array.map
          (fun w ->
            match gates.(w) with
            | Circuit.And (_, b) ->
                eval i b;
                shares.(i).(b) <> sb.(i).(w)
            | _ -> assert false)
          wires
      in
      absorb i ~src:i l ds es;
      Link.broadcast link ~src:i
        ~size:(2 * bits_size (Array.length wires) + 16)
        ~round:l
        (Opens { layer = l; ds; es });
      watch i ~count:(fun () -> opens_count.(i).(l)) ~got:got_open.(i).(l)
    end
  (* Fold a (possibly own) contribution into the layer accumulators; when
     all p contributions are in, finalize the layer's AND gates. *)
  and absorb i ~src l ds es =
    got_open.(i).(l).(src) <- true;
    Array.iteri (fun k v -> d_acc.(i).(l).(k) <- d_acc.(i).(l).(k) <> v) ds;
    Array.iteri (fun k v -> e_acc.(i).(l).(k) <- e_acc.(i).(l).(k) <> v) es;
    opens_count.(i).(l) <- opens_count.(i).(l) + 1;
    if opens_count.(i).(l) = p then begin
      Array.iteri
        (fun k w ->
          (* The opened values are identical at every party; record them
             once (they're public). *)
          opened_d.(w) <- d_acc.(i).(l).(k);
          opened_e.(w) <- e_acc.(i).(l).(k);
          let d = opened_d.(w) and e = opened_e.(w) in
          shares.(i).(w) <-
            sc.(i).(w)
            <> (d && sb.(i).(w))
            <> (e && sa.(i).(w))
            <> (i = 0 && d && e);
          computed.(i).(w) <- true)
        layers.(l);
      start_layer i (l + 1)
    end
  in
  for i = 0 to p - 1 do
    Link.on_receive link i (fun ~src msg ->
        match msg with
        | Opens { layer; ds; es } -> absorb i ~src layer ds es
        | Outs contribution -> absorb_outputs i ~src contribution);
    Simnet.at net ~delay:0.0 i (fun _ -> start_layer i 0)
  done;
  Simnet.run net;
  let report = Link.report link ~stalled:[] in
  match !final_outputs with
  | Some outputs -> { outputs; rounds; net = Simnet.metrics net; link = report }
  | None when Array.length outputs_w = 0 ->
      { outputs = [||]; rounds; net = Simnet.metrics net; link = report }
  | None -> raise (Link.Stalled report)
