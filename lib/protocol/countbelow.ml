open Eppi_prelude
module Circuit = Eppi_circuit.Circuit
module Compile = Eppi_sfdl.Compile
module Programs = Eppi_sfdl.Programs
module Gmw = Eppi_mpc.Gmw
module Cost = Eppi_mpc.Cost
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
type strategy = [ `Monolithic | `Sharded ]

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

let validate ~shares ~thresholds =
  let c = Array.length shares in
  if c < 2 then invalid_arg "Countbelow.run: need at least 2 coordinators";
  let n = Array.length shares.(0) in
  Array.iter
    (fun v -> if Array.length v <> n then invalid_arg "Countbelow.run: ragged share vectors")
    shares;
  if Array.length thresholds <> n then invalid_arg "Countbelow.run: thresholds length mismatch";
  (c, n)

(* Pull the typed common/freq/count outputs out of a raw output bit vector. *)
let decode_counts compiled raw_outputs =
  let outputs = Compile.decode_outputs compiled raw_outputs in
  let common =
    match Compile.lookup_output outputs "common" with
    | Compile.Dbools bs -> bs
    | _ -> failwith "Countbelow.run: bad common output shape"
  in
  let freqs =
    match Compile.lookup_output outputs "freq" with
    | Compile.Dints fs -> fs
    | _ -> failwith "Countbelow.run: bad freq output shape"
  in
  let count =
    match Compile.lookup_output outputs "count" with
    | Compile.Dint k -> k
    | _ -> failwith "Countbelow.run: bad count output shape"
  in
  (common, freqs, count)

(* ---------- monolithic path ---------- *)

(* One count_below circuit over all n identities, walked by a single GMW
   interpreter (optionally round-by-round over the simulated network, under
   a fault plan if one is given).  This is the paper-literal formulation and
   the reference the sharded pipeline is tested against. *)
let run_monolithic ~transport ?plan rng ~shares ~q ~c ~clamped =
  Trace.begin_span "countbelow.monolithic";
  let source = Programs.count_below ~c ~q:(Modarith.to_int q) ~thresholds:clamped in
  let compiled = Compile.compile_source source in
  let inputs =
    Compile.encode_inputs compiled
      (List.init c (fun i -> (Printf.sprintf "s%d" i, Compile.Dints shares.(i))))
  in
  let stats = Circuit.stats compiled.circuit in
  let outputs_bits = Array.length (Circuit.outputs compiled.circuit) in
  let raw_outputs, comm, link =
    match transport with
    | `Cost_model ->
        let mpc = Gmw.execute rng compiled.circuit ~inputs in
        (mpc.outputs, mpc.comm, None)
    | `Simnet ->
        let mpc =
          try Mpcnet.execute ?plan rng compiled.circuit ~inputs
          with Link.Stalled _ as e ->
            Trace.end_span "countbelow.monolithic" ~args:[ ("raised", 1) ];
            raise e
        in
        (mpc.outputs, Gmw.comm_estimate ~parties:c stats ~outputs:outputs_bits, Some mpc.link)
  in
  let common, freqs, count = decode_counts compiled raw_outputs in
  let time =
    match link with
    | Some l -> l.protocol_time
    | None -> Cost.estimate ~network:Cost.lan ~parties:c ~outputs:outputs_bits stats
  in
  Trace.end_span "countbelow.monolithic"
    ~args:
      [
        ("identities", Array.length clamped);
        ("gates", stats.size);
        ("and_depth", stats.and_depth);
        ("messages", comm.messages);
        ("bytes", comm.bytes);
      ];
  {
    common;
    frequencies = Array.mapi (fun j f -> if common.(j) then None else Some f) freqs;
    n_common = count;
    circuit_stats = stats;
    comm;
    time;
    link;
  }

(* ---------- sharded pipeline ---------- *)

(* Per-identity comparator circuits share one process-wide memo cache: the
   generated source is a pure function of (c, q, threshold), so across a
   whole construction — and across repeated benchmark runs — each distinct
   threshold compiles exactly once. *)
let circuit_cache = Compile.create_cache ()

type shard_circuit = {
  compiled : Compile.compiled;
  stats : Circuit.stats;
  out_bits : int;
}

(* The per-identity comparator circuits are independent: evaluate them on
   the domain pool.  Results are index-addressed and each shard draws from
   its own pre-split rng, so outputs, stats and comm accounting are
   bit-identical at every pool size (and to the sequential fallback). *)
let run_sharded ~pool rng ~shares ~q ~c ~n ~clamped =
  let qi = Modarith.to_int q in
  (* Compile (or fetch) the comparator for each distinct threshold up front,
     sequentially: the parallel phase then only reads. *)
  let by_threshold = Hashtbl.create 8 in
  Trace.span "countbelow.compile" (fun () ->
      Array.iter
        (fun t ->
          if not (Hashtbl.mem by_threshold t) then begin
            let compiled =
              Compile.compile_source_cached circuit_cache
                (Programs.count_below ~c ~q:qi ~thresholds:[| t |])
            in
            let stats = Circuit.stats compiled.circuit in
            let out_bits = Array.length (Circuit.outputs compiled.circuit) in
            Hashtbl.replace by_threshold t { compiled; stats; out_bits }
          end)
        clamped);
  (* One child rng per shard, split in shard order before entering the pool:
     the streams do not depend on the execution schedule. *)
  let shard_rngs = Array.init n (fun _ -> Rng.split rng) in
  let eval j =
    let sc = Hashtbl.find by_threshold clamped.(j) in
    (* One span per identity shard, on whichever domain evaluates it; the
       nested gmw.execute span carries the traffic accounting. *)
    Trace.span "countbelow.shard"
      ~args:
        [ ("identity", j); ("gates", sc.stats.size); ("and_depth", sc.stats.and_depth) ]
      (fun () ->
        let inputs =
          Compile.encode_inputs sc.compiled
            (List.init c (fun i -> (Printf.sprintf "s%d" i, Compile.Dints [| shares.(i).(j) |])))
        in
        let mpc = Gmw.execute shard_rngs.(j) sc.compiled.circuit ~inputs in
        let outputs = Compile.decode_outputs sc.compiled mpc.outputs in
        let is_common =
          match Compile.lookup_output outputs "common" with
          | Dbools [| b |] -> b
          | _ -> failwith "Countbelow.run: bad shard common output shape"
        in
        let freq =
          match Compile.lookup_output outputs "freq" with
          | Dints [| f |] -> f
          | _ -> failwith "Countbelow.run: bad shard freq output shape"
        in
        (is_common, freq))
  in
  let shard_results = Pool.parallel_map pool eval (Array.init n Fun.id) in
  let common = Array.map fst shard_results in
  let freqs = Array.map snd shard_results in
  let n_common = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 common in
  (* Aggregate circuit accounting.  Gate and input counts sum across shards;
     the multiplicative depth is the max — the coordinators batch every
     shard's And layer into one broadcast round, exactly like the layers of
     a single wide circuit. *)
  let agg, out_bits =
    Array.fold_left
      (fun ((acc : Circuit.stats), outs) t ->
        let { stats = s; out_bits; _ } = Hashtbl.find by_threshold t in
        ( {
            Circuit.size = acc.size + s.size;
            and_gates = acc.and_gates + s.and_gates;
            xor_gates = acc.xor_gates + s.xor_gates;
            not_gates = acc.not_gates + s.not_gates;
            inputs = acc.inputs + s.inputs;
            and_depth = max acc.and_depth s.and_depth;
          },
          outs + out_bits ))
      ( { Circuit.size = 0; and_gates = 0; xor_gates = 0; not_gates = 0; inputs = 0; and_depth = 0 },
        0 )
      clamped
  in
  let comm = Gmw.comm_estimate ~parties:c agg ~outputs:out_bits in
  let time = Cost.estimate ~network:Cost.lan ~parties:c ~outputs:out_bits agg in
  {
    common;
    frequencies = Array.mapi (fun j f -> if common.(j) then None else Some f) freqs;
    n_common;
    circuit_stats = agg;
    comm;
    time;
    link = None;
  }

let run ?(transport = `Cost_model) ?(pool = Pool.sequential) ?strategy ?plan rng ~shares ~q
    ~thresholds =
  let c, n = validate ~shares ~thresholds in
  if n = 0 then invalid_arg "Countbelow.run: no identities";
  let qi = Modarith.to_int q in
  let clamped = Array.map (fun t -> max 0 (min t (qi - 1))) thresholds in
  match (transport, strategy, plan) with
  | `Cost_model, (None | Some `Sharded), None -> run_sharded ~pool rng ~shares ~q ~c ~n ~clamped
  | `Cost_model, Some `Monolithic, None -> run_monolithic ~transport rng ~shares ~q ~c ~clamped
  (* The network transport replays the protocol round-by-round over the
     simulated LAN, always walking the single circuit; a fault plan implies
     that network. *)
  | _ -> run_monolithic ~transport:`Simnet ?plan rng ~shares ~q ~c ~clamped
