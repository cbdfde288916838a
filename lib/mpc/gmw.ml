open Eppi_prelude
open Eppi_circuit

type comm_stats = { rounds : int; messages : int; bytes : int }

type view = {
  party : int;
  wire_shares : Bitvec.t;
  opened : (bool * bool) array;
}

type result = {
  outputs : bool array;
  comm : comm_stats;
  views : view array;
}

let comm_estimate ~parties (stats : Circuit.stats) ~outputs =
  let p = parties in
  let pairs = p * (p - 1) in
  (* Input sharing: one message per ordered party pair, the input bits'
     shares packed 8 to a byte (nothing for a circuit without inputs).
     And layer: every party broadcasts 2 masked bits per gate in the
     layer.  Output: every party broadcasts its output shares. *)
  let input_messages = if stats.inputs > 0 then pairs else 0 in
  let input_bytes = ((stats.inputs * (p - 1)) + 7) / 8 in
  let and_messages = stats.and_depth * pairs in
  let and_bits = 2 * stats.and_gates * pairs in
  let output_messages = pairs in
  let output_bytes = pairs * ((outputs + 7) / 8) in
  {
    rounds = 1 + stats.and_depth + 1;
    messages = input_messages + and_messages + output_messages;
    bytes = input_bytes + ((and_bits + 7) / 8) + output_bytes;
  }

let execute rng circuit ~inputs =
  let p = Circuit.num_parties circuit in
  let gates = Circuit.gates circuit in
  let n_wires = Array.length gates in
  let stats = Circuit.stats circuit in
  let n_outputs = Array.length (Circuit.outputs circuit) in
  let comm = comm_estimate ~parties:p stats ~outputs:n_outputs in
  (* One bit-packed share row per party (Bytes-backed): 1 bit per wire
     instead of the word-per-bool of a [bool array], which keeps the whole
     working set cache-resident on wide circuits. *)
  let shares = Array.init p (fun _ -> Bitvec.create n_wires) in
  (* The opened (d, e) pairs are exactly one per And gate: preallocate. *)
  let opened = Array.make stats.and_gates (false, false) in
  let n_opened = ref 0 in
  (* Scratch share buffers reused across gates instead of three fresh
     allocations per And gate. *)
  let sa = Array.make p false in
  let sb = Array.make p false in
  let sc = Array.make p false in
  (* XOR-share a bit among p parties into [dst]: p-1 random shares, last
     fixes the parity.  Same draw order as the historical allocating
     version. *)
  let share_bit_into dst v =
    let parity = ref false in
    for i = 0 to p - 2 do
      let s = Rng.bool rng in
      dst.(i) <- s;
      parity := !parity <> s
    done;
    dst.(p - 1) <- !parity <> v
  in
  Array.iteri
    (fun w g ->
      match g with
      | Circuit.Input { party; index } ->
          if party >= Array.length inputs || index >= Array.length inputs.(party) then
            invalid_arg "Gmw.execute: missing input bit";
          share_bit_into sa inputs.(party).(index);
          for i = 0 to p - 1 do
            Bitvec.assign shares.(i) w sa.(i)
          done
      | Const b ->
          (* Public constant: party 0 holds it, everyone else holds zero. *)
          if b then Bitvec.set shares.(0) w
      | Not a ->
          for i = 0 to p - 1 do
            let s = Bitvec.get shares.(i) a in
            Bitvec.assign shares.(i) w (if i = 0 then not s else s)
          done
      | Xor (a, b) ->
          for i = 0 to p - 1 do
            let sh = shares.(i) in
            Bitvec.assign sh w (Bitvec.get sh a <> Bitvec.get sh b)
          done
      | And (a, b) ->
          (* Beaver triple (ta, tb, tc) with tc = ta && tb, dealt XOR-shared. *)
          let ta = Rng.bool rng and tb = Rng.bool rng in
          let tc = ta && tb in
          share_bit_into sa ta;
          share_bit_into sb tb;
          share_bit_into sc tc;
          (* Open d = x ^ ta and e = y ^ tb (each party broadcasts its share). *)
          let d = ref false and e = ref false in
          for i = 0 to p - 1 do
            let sh = shares.(i) in
            d := !d <> (Bitvec.get sh a <> sa.(i));
            e := !e <> (Bitvec.get sh b <> sb.(i))
          done;
          opened.(!n_opened) <- (!d, !e);
          incr n_opened;
          for i = 0 to p - 1 do
            let z =
              sc.(i)
              <> (!d && sb.(i))
              <> (!e && sa.(i))
              <> (i = 0 && !d && !e)
            in
            Bitvec.assign shares.(i) w z
          done)
    gates;
  let outputs =
    Array.map
      (fun w ->
        let v = ref false in
        for i = 0 to p - 1 do
          v := !v <> Bitvec.get shares.(i) w
        done;
        !v)
      (Circuit.outputs circuit)
  in
  let views =
    Array.init p (fun i -> { party = i; wire_shares = shares.(i); opened })
  in
  { outputs; comm; views }
