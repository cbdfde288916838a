open Eppi_prelude
open Eppi_circuit

let max_lanes = Sys.int_size

type schedule = {
  gates : Circuit.gate array;
  parties : int;
  stats : Circuit.stats;
  (* local.(l): the Const/Not/Xor wires that depend on l And layers, in
     gate order, evaluated once layer l - 1 is finished. *)
  local : Circuit.wire array array;
  (* The And wires in layer order; layer l is ands.(base.(l)) up to
     ands.(base.(l + 1) - 1). *)
  ands : Circuit.wire array;
  base : int array;
  outputs : Circuit.wire array;
}

let schedule circuit =
  let gates = Circuit.gates circuit and layers = Circuit.and_layers circuit in
  let depth = Array.make (Array.length gates) 0 in
  let local = Array.make (Array.length layers + 1) [] in
  let add_local w d =
    depth.(w) <- d;
    local.(d) <- w :: local.(d)
  in
  Array.iteri
    (fun w g ->
      match g with
      | Circuit.Input { index; _ } ->
          if index >= Sys.int_size - 1 then
            invalid_arg "Bitslice.schedule: input wider than 62 bits"
      | Const _ -> add_local w 0
      | Not a -> add_local w depth.(a)
      | Xor (a, b) -> add_local w (max depth.(a) depth.(b))
      | And (a, b) -> depth.(w) <- 1 + max depth.(a) depth.(b))
    gates;
  let base = Array.make (Array.length layers + 1) 0 in
  Array.iteri (fun l ws -> base.(l + 1) <- base.(l) + Array.length ws) layers;
  {
    gates;
    parties = Circuit.num_parties circuit;
    stats = Circuit.stats circuit;
    local = Array.map (fun l -> Array.of_list (List.rev l)) local;
    ands = Array.concat (Array.to_list layers);
    base;
    outputs = Circuit.outputs circuit;
  }

let stats s = s.stats

type chunk = {
  sched : schedule;
  lanes : int;
  (* shares.(w * p + i): party i's word of wire w. *)
  shares : int array;
  (* triples.(3 * (t * p + i) + k): party i's share of a (k = 0), b (1) or
     a ∧ b (2) for the t-th And gate in layer order. *)
  triples : int array;
}

let lanes c = c.lanes
let parties c = c.sched.parties
let depth c = Array.length c.sched.base - 1
let outputs c = Array.length c.sched.outputs

let layer_ands c l =
  let base = c.sched.base in
  if l + 1 < Array.length base then base.(l + 1) - base.(l) else 0

let[@inline] lane word k = (word lsr k) land 1 = 1

(* XOR-share [v] into dst.(base), dst.(base + stride), ..., one per party:
   p - 1 random words, the last fixing the XOR. *)
let share_word rng dst ~base ~stride ~p v =
  let last = ref v in
  for i = 0 to p - 2 do
    let r = Rng.bits63 rng in
    dst.(base + (i * stride)) <- r;
    last := !last lxor r
  done;
  dst.(base + ((p - 1) * stride)) <- !last

(* The local gates that wait on [level] And layers, for every party. *)
let eval_local c level =
  let p = c.sched.parties and sh = c.shares in
  Array.iter
    (fun w ->
      let o = w * p in
      match c.sched.gates.(w) with
      | Circuit.Const b -> if b then sh.(o) <- -1
      | Not a ->
          sh.(o) <- lnot sh.(a * p);
          Array.blit sh ((a * p) + 1) sh (o + 1) (p - 1)
      | Xor (a, b) ->
          for i = 0 to p - 1 do
            sh.(o + i) <- sh.((a * p) + i) lxor sh.((b * p) + i)
          done
      | Input _ | And _ -> assert false)
    c.sched.local.(level)

let deal rng s ~inputs ~pos ~lanes =
  if lanes < 1 || lanes > max_lanes then invalid_arg "Bitslice.deal: lanes outside [1, 63]";
  let p = s.parties in
  let shares = Array.make (Array.length s.gates * p) 0 in
  Array.iteri
    (fun w g ->
      match g with
      | Circuit.Input { party; index } ->
          if party >= Array.length inputs then invalid_arg "Bitslice.deal: missing party input";
          let v = ref 0 in
          for k = 0 to lanes - 1 do
            v := !v lor (((inputs.(party).(pos + k) lsr index) land 1) lsl k)
          done;
          share_word rng shares ~base:(w * p) ~stride:1 ~p !v
      | _ -> ())
    s.gates;
  let triples = Array.make (3 * p * Array.length s.ands) 0 in
  for t = 0 to Array.length s.ands - 1 do
    let a = Rng.bits63 rng in
    let b = Rng.bits63 rng in
    let base = 3 * p * t in
    share_word rng triples ~base ~stride:3 ~p a;
    share_word rng triples ~base:(base + 1) ~stride:3 ~p b;
    share_word rng triples ~base:(base + 2) ~stride:3 ~p (a land b)
  done;
  let c = { sched = s; lanes; shares; triples } in
  eval_local c 0;
  c

let contribute c ~party ~layer buf =
  let p = c.sched.parties in
  for k = 0 to layer_ands c layer - 1 do
    let t = c.sched.base.(layer) + k in
    let tr = 3 * ((t * p) + party) and d = 2 * k in
    match c.sched.gates.(c.sched.ands.(t)) with
    | Circuit.And (x, y) ->
        buf.(d) <- buf.(d) lxor c.shares.((x * p) + party) lxor c.triples.(tr);
        buf.(d + 1) <- buf.(d + 1) lxor c.shares.((y * p) + party) lxor c.triples.(tr + 1)
    | _ -> assert false
  done

let finish c ~layer buf =
  let p = c.sched.parties in
  for k = 0 to layer_ands c layer - 1 do
    let t = c.sched.base.(layer) + k in
    let d = buf.(2 * k) and e = buf.((2 * k) + 1) in
    let o = c.sched.ands.(t) * p in
    for i = 0 to p - 1 do
      let tr = 3 * ((t * p) + i) in
      let z = c.triples.(tr + 2) lxor (d land c.triples.(tr + 1)) lxor (e land c.triples.(tr)) in
      c.shares.(o + i) <- (if i = 0 then z lxor (d land e) else z)
    done
  done;
  eval_local c (layer + 1)

let output_shares c ~party buf =
  Array.iteri
    (fun k w -> buf.(k) <- buf.(k) lxor c.shares.((w * c.sched.parties) + party))
    c.sched.outputs

let evaluate c =
  let opened = Array.make (2 * Array.length c.sched.ands) 0 in
  for l = 0 to depth c - 1 do
    Array.fill opened 0 (2 * layer_ands c l) 0;
    for i = 0 to parties c - 1 do
      contribute c ~party:i ~layer:l opened
    done;
    finish c ~layer:l opened
  done;
  let out = Array.make (outputs c) 0 in
  for i = 0 to parties c - 1 do
    output_shares c ~party:i out
  done;
  out
