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

(* The single-identity comparator for one (c, q, threshold): its And-layer
   schedule and where its outputs sit.  The generated source is a pure
   function of the key, so a process-wide memo compiles each comparator
   once across constructions. *)
type comparator = {
  sched : Bitslice.schedule;
  out_bits : int;
  common_bit : int;
  freq_bit : int;  (* output index of the frequency's least significant bit *)
  freq_width : int;
}

let comparators : (int * int * int, comparator) Hashtbl.t = Hashtbl.create 16
let comparators_lock = Mutex.create ()

let comparator ~c ~q t =
  Mutex.protect comparators_lock (fun () ->
      match Hashtbl.find_opt comparators (c, q, t) with
      | Some cmp -> cmp
      | None ->
          let compiled = Compile.compile_source (Programs.count_below ~c ~q ~thresholds:[| t |]) in
          let rec offset name pos = function
            | [] -> failwith ("Countbelow: comparator has no output " ^ name)
            | (o, shape) :: rest ->
                if o = name then pos else offset name (pos + Compile.shape_bits shape) rest
          in
          let layout = compiled.output_layout in
          let cmp =
            {
              sched = Bitslice.schedule compiled.circuit;
              out_bits = Array.length (Circuit.outputs compiled.circuit);
              common_bit = offset "common" 0 layout;
              freq_bit = offset "freq" 0 layout;
              freq_width = Compile.shape_bits (List.assoc "freq" layout);
            }
          in
          Hashtbl.add comparators (c, q, t) cmp;
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
  (* Identities grouped by clamped threshold, groups in order of first
     appearance, identities ascending within a group. *)
  let members = Hashtbl.create 8 and keys = ref [] in
  Array.iteri
    (fun j t ->
      let t = max 0 (min t (qi - 1)) in
      match Hashtbl.find members t with
      | ids -> ids := j :: !ids
      | exception Not_found ->
          Hashtbl.add members t (ref [ j ]);
          keys := t :: !keys)
    thresholds;
  let groups =
    Trace.span "countbelow.compile" (fun () ->
        List.rev_map
          (fun t -> (comparator ~c ~q:qi t, Array.of_list (List.rev !(Hashtbl.find members t))))
          !keys)
  in
  (* Lane chunks: each group's identities, 63 at a time, each with an rng
     split in chunk order before either transport runs, so the draws depend
     neither on the transport nor on the pool or fault plan. *)
  let chunks =
    Array.of_list
      (List.concat_map
         (fun (cmp, ids) ->
           List.init
             ((Array.length ids + Bitslice.max_lanes - 1) / Bitslice.max_lanes)
             (fun k ->
               let pos = k * Bitslice.max_lanes in
               (cmp, ids, pos, min Bitslice.max_lanes (Array.length ids - pos), Rng.split rng)))
         groups)
  in
  let deal (cmp, ids, pos, lanes, rng) =
    Bitslice.deal rng cmp.sched ~inputs:shares ~ids ~pos ~lanes
  in
  (* Accounting per identity: gates, inputs and outputs sum over the
     identities, the depth is the largest — the coordinators open every
     comparator's layer l in one round. *)
  let sum f = List.fold_left (fun acc (cmp, ids) -> acc + (Array.length ids * f cmp)) 0 groups in
  let stat f = sum (fun cmp -> f (Bitslice.stats cmp.sched)) in
  let stats : Circuit.stats =
    {
      size = stat (fun s -> s.size);
      and_gates = stat (fun s -> s.and_gates);
      xor_gates = stat (fun s -> s.xor_gates);
      not_gates = stat (fun s -> s.not_gates);
      inputs = stat (fun s -> s.inputs);
      and_depth =
        List.fold_left (fun d (cmp, _) -> max d (Bitslice.stats cmp.sched).and_depth) 0 groups;
    }
  in
  let out_bits = sum (fun cmp -> cmp.out_bits) in
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
    (fun k (cmp, ids, pos, lanes, _) ->
      let out = outputs.(k) in
      for lane = 0 to lanes - 1 do
        let j = ids.(pos + lane) in
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
