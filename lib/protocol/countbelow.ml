open Eppi_prelude
module Circuit = Eppi_circuit.Circuit
module Compile = Eppi_sfdl.Compile
module Programs = Eppi_sfdl.Programs
module Gmw = Eppi_mpc.Gmw
module Cost = Eppi_mpc.Cost
module Bitslice = Eppi_mpc.Bitslice
module Trace = Eppi_obs.Trace

type result = {
  common : bool array;
  frequencies : int option array;
  n_common : int;
  circuit_stats : Circuit.stats;
  comm : Gmw.comm_stats;
  time : float;
  link : Link.report option;
}

type transport = [ `Cost_model | `Simnet ]

let integer_threshold ~policy ~epsilon ~m =
  if epsilon <= 0.0 then m + 1
  else begin
    let common_at f =
      Eppi.Policy.is_common policy ~sigma:(float_of_int f /. float_of_int m) ~epsilon ~m
    in
    (* β* is monotone in the frequency: binary-search the first common count. *)
    if not (common_at m) then m + 1
    else begin
      let lo = ref 0 and hi = ref m in
      (* Invariant: common_at !hi, and !lo is below the first common count. *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if common_at mid then hi := mid else lo := mid
      done;
      if common_at !lo then !lo else !hi
    end
  end

(* The single-identity comparator for one (c, q): its And-layer schedule,
   where coordinator 0's threshold bits start, and where its outputs sit.
   The generated source is a pure function of (c, q), so a process-wide
   memo compiles each comparator once across constructions. *)
type comparator = {
  sched : Bitslice.schedule;
  t_bit : int;  (* coordinator 0's input index of the threshold's least significant bit *)
  out_bits : int;
  common_bit : int;
  freq_bit : int;  (* output index of the frequency's least significant bit *)
  freq_width : int;
}

let comparators : (int * int, comparator) Hashtbl.t = Hashtbl.create 4
let comparators_lock = Mutex.create ()

let comparator ~c ~q =
  Mutex.protect comparators_lock (fun () ->
      match Hashtbl.find_opt comparators (c, q) with
      | Some cmp -> cmp
      | None ->
          let compiled = Compile.compile_source (Programs.count_below ~c ~q) in
          let rec offset name pos = function
            | [] -> failwith ("Countbelow: comparator has no port " ^ name)
            | (o, shape) :: rest ->
                if o = name then pos else offset name (pos + Compile.shape_bits shape) rest
          in
          let party0 =
            List.filter_map
              (fun (name, party, shape) -> if party = 0 then Some (name, shape) else None)
              compiled.input_layout
          in
          let layout = compiled.output_layout in
          let cmp =
            {
              sched = Bitslice.schedule compiled.circuit;
              t_bit = offset "t" 0 party0;
              out_bits = Array.length (Circuit.outputs compiled.circuit);
              common_bit = offset "common" 0 layout;
              freq_bit = offset "freq" 0 layout;
              freq_width = Compile.shape_bits (List.assoc "freq" layout);
            }
          in
          Hashtbl.add comparators (c, q) cmp;
          cmp)

let run ?(transport = `Cost_model) ?(pool = Pool.sequential) ?plan rng ~shares ~q ~thresholds =
  let c = Array.length shares in
  if c < 2 then invalid_arg "Countbelow.run: need at least 2 coordinators";
  let n = Array.length shares.(0) in
  Array.iter
    (fun v -> if Array.length v <> n then invalid_arg "Countbelow.run: ragged share vectors")
    shares;
  if Array.length thresholds <> n then invalid_arg "Countbelow.run: thresholds length mismatch";
  if n = 0 then invalid_arg "Countbelow.run: no identities";
  let qi = Modarith.to_int q in
  let cmp = Trace.span "countbelow.compile" (fun () -> comparator ~c ~q:qi) in
  (* Coordinator 0 feeds its share and the identity's clamped threshold as
     one input word. *)
  let inputs = Array.copy shares in
  inputs.(0) <-
    Array.mapi (fun j s0 -> s0 lor (max 0 (min thresholds.(j) (qi - 1)) lsl cmp.t_bit)) shares.(0);
  (* Lane chunks: identities 0 … n − 1, 63 at a time, each with an rng split
     in chunk order before either transport runs, so the draws depend
     neither on the transport nor on the pool or fault plan. *)
  let chunks =
    Array.init
      ((n + Bitslice.max_lanes - 1) / Bitslice.max_lanes)
      (fun k ->
        let pos = k * Bitslice.max_lanes in
        (pos, min Bitslice.max_lanes (n - pos), Rng.split rng))
  in
  let deal (pos, lanes, rng) = Bitslice.deal rng cmp.sched ~inputs ~pos ~lanes in
  (* Accounting per identity: gates, inputs and outputs are n times the
     comparator's, the depth is the comparator's — the coordinators open
     every chunk's layer l in one round. *)
  let s = Bitslice.stats cmp.sched in
  let stats : Circuit.stats =
    {
      size = n * s.size;
      and_gates = n * s.and_gates;
      xor_gates = n * s.xor_gates;
      not_gates = n * s.not_gates;
      inputs = n * s.inputs;
      and_depth = s.and_depth;
    }
  in
  let out_bits = n * cmp.out_bits in
  let comm = Gmw.comm_estimate ~parties:c stats ~outputs:out_bits in
  let outputs, time, link =
    Trace.span "gmw.execute"
      ~args:
        [
          ("gates", stats.size);
          ("and_gates", stats.and_gates);
          ("and_depth", stats.and_depth);
          ("rounds", comm.rounds);
          ("messages", comm.messages);
          ("bytes", comm.bytes);
        ]
      (fun () ->
        match (transport, plan) with
        | `Cost_model, None ->
            ( Pool.parallel_map pool (fun chunk -> Bitslice.evaluate (deal chunk)) chunks,
              Cost.estimate ~network:Cost.lan ~parties:c ~outputs:out_bits stats,
              None )
        (* The network transport opens every layer over the simulated LAN;
           a fault plan implies that network. *)
        | _ ->
            let r = Mpcnet.execute ?plan (Array.map deal chunks) in
            (r.outputs, r.link.protocol_time, Some r.link))
  in
  let common = Array.make n false and frequencies = Array.make n None in
  let n_common = ref 0 in
  Array.iteri
    (fun k (pos, lanes, _) ->
      let out = outputs.(k) in
      for lane = 0 to lanes - 1 do
        let j = pos + lane in
        if Bitslice.lane out.(cmp.common_bit) lane then begin
          common.(j) <- true;
          incr n_common
        end
        else begin
          let f = ref 0 in
          for b = cmp.freq_width - 1 downto 0 do
            f := (!f lsl 1) lor ((out.(cmp.freq_bit + b) lsr lane) land 1)
          done;
          frequencies.(j) <- Some !f
        end
      done)
    chunks;
  { common; frequencies; n_common = !n_common; circuit_stats = stats; comm; time; link }
