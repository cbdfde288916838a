open Eppi_prelude

type node_id = int

type config = { latency : float; bandwidth : float }

let default_config = { latency = 0.0005; bandwidth = 100_000_000.0 }

type link_fault = { drop : float; duplicate : float; reorder : float }

let perfect_link = { drop = 0.0; duplicate = 0.0; reorder = 0.0 }

type partition = {
  starts : float;
  stops : float;
  islands : node_id list list;
}

type fault_plan = {
  fault_seed : int;
  default_link : link_fault;
  links : ((node_id * node_id) * link_fault) list;
  crashes : (float * node_id) list;
  partitions : partition list;
  slow : (node_id * float) list;
  jitter : float;
}

let no_faults =
  {
    fault_seed = 0;
    default_link = perfect_link;
    links = [];
    crashes = [];
    partitions = [];
    slow = [];
    jitter = 0.002;
  }

(* Compiled form of a fault plan: link overrides in a hashtable, partitions
   as node -> island maps, straggler factors as a dense array. *)
type faults = {
  frng : Rng.t;  (* dedicated stream: protocol rng draws never shift faults *)
  default_link : link_fault;
  flinks : (int, link_fault) Hashtbl.t;  (* keyed src * n + dst *)
  fpartitions : (float * float * int array) list;  (* starts, stops, island_of *)
  jitter : float;
}

type 'msg event =
  | Deliver of { src : node_id; dst : node_id; msg : 'msg }
  | Timer of { node : node_id; callback : 'msg t -> unit }
  | Crash of node_id

and 'msg t = {
  config : config;
  n : int;
  queue : 'msg event Heap.t;
  handlers : ('msg t -> src:node_id -> 'msg -> unit) option array;
  busy_until : float array;
  busy_total : float array;
  crashed : bool array;
  slow_factor : float array;
  faults : faults option;
  mutable clock : float;
  mutable current_node : node_id;  (* node whose handler is running, -1 otherwise *)
  mutable messages_sent : int;
  mutable messages_delivered : int;
  mutable messages_dropped : int;
  mutable messages_duplicated : int;
  mutable bytes_sent : int;
  mutable completion_time : float;
}

let compile_plan plan ~nodes =
  let check id =
    if id < 0 || id >= nodes then invalid_arg "Simnet: fault plan names unknown node"
  in
  List.iter (fun ((s, d), _) -> check s; check d) plan.links;
  List.iter
    (fun (time, node) ->
      check node;
      if time < 0.0 then invalid_arg "Simnet: negative crash time")
    plan.crashes;
  List.iter
    (fun (node, factor) ->
      check node;
      if factor <= 0.0 then invalid_arg "Simnet: slow factor must be > 0")
    plan.slow;
  let flinks = Hashtbl.create 16 in
  List.iter (fun ((s, d), lf) -> Hashtbl.replace flinks ((s * nodes) + d) lf) plan.links;
  let fpartitions =
    List.map
      (fun p ->
        (* Nodes in no listed island share implicit island -1. *)
        let island_of = Array.make nodes (-1) in
        List.iteri
          (fun i members -> List.iter (fun node -> check node; island_of.(node) <- i) members)
          p.islands;
        (p.starts, p.stops, island_of))
      plan.partitions
  in
  {
    frng = Rng.create plan.fault_seed;
    default_link = plan.default_link;
    flinks;
    fpartitions;
    jitter = plan.jitter;
  }

let create ?(config = default_config) ?plan ~nodes () =
  if nodes <= 0 then invalid_arg "Simnet.create: need at least one node";
  let faults = Option.map (compile_plan ~nodes) plan in
  let slow_factor = Array.make nodes 1.0 in
  (match plan with
  | None -> ()
  | Some p -> List.iter (fun (node, factor) -> slow_factor.(node) <- factor) p.slow);
  let t =
    {
      config;
      n = nodes;
      queue = Heap.create ();
      handlers = Array.make nodes None;
      busy_until = Array.make nodes 0.0;
      busy_total = Array.make nodes 0.0;
      crashed = Array.make nodes false;
      slow_factor;
      faults;
      clock = 0.0;
      current_node = -1;
      messages_sent = 0;
      messages_delivered = 0;
      messages_dropped = 0;
      messages_duplicated = 0;
      bytes_sent = 0;
      completion_time = 0.0;
    }
  in
  (match plan with
  | None -> ()
  | Some p ->
      List.iter (fun (time, node) -> Heap.push t.queue ~key:time (Crash node)) p.crashes);
  t

let nodes t = t.n
let now t = t.clock

let check_node t id = if id < 0 || id >= t.n then invalid_arg "Simnet: unknown node"

let on_receive t id handler =
  check_node t id;
  t.handlers.(id) <- Some handler

let partitioned f ~clock ~src ~dst =
  List.exists
    (fun (starts, stops, island_of) ->
      clock >= starts && clock < stops && island_of.(src) <> island_of.(dst))
    f.fpartitions

let link_fault f ~n ~src ~dst =
  match Hashtbl.find_opt f.flinks ((src * n) + dst) with
  | Some lf -> lf
  | None -> f.default_link

let send t ~src ~dst ~size msg =
  check_node t src;
  check_node t dst;
  if size < 0 then invalid_arg "Simnet.send: negative size";
  t.messages_sent <- t.messages_sent + 1;
  t.bytes_sent <- t.bytes_sent + size;
  let arrival =
    t.clock
    +. if src = dst then 0.0 else t.config.latency +. (float_of_int size /. t.config.bandwidth)
  in
  match t.faults with
  | None -> Heap.push t.queue ~key:arrival (Deliver { src; dst; msg })
  | Some f ->
      if src <> dst && partitioned f ~clock:t.clock ~src ~dst then
        t.messages_dropped <- t.messages_dropped + 1
      else begin
        let lf = link_fault f ~n:t.n ~src ~dst in
        (* Draw order per message is fixed (drop, reorder, duplicate) so a
           plan's effect is a pure function of (fault_seed, send sequence). *)
        if Rng.bernoulli f.frng lf.drop then
          t.messages_dropped <- t.messages_dropped + 1
        else begin
          let extra =
            if Rng.bernoulli f.frng lf.reorder then Rng.float f.frng f.jitter else 0.0
          in
          Heap.push t.queue ~key:(arrival +. extra) (Deliver { src; dst; msg });
          if Rng.bernoulli f.frng lf.duplicate then begin
            t.messages_duplicated <- t.messages_duplicated + 1;
            let dup_extra = Rng.float f.frng f.jitter in
            Heap.push t.queue ~key:(arrival +. dup_extra) (Deliver { src; dst; msg })
          end
        end
      end

let broadcast t ~src ~size msg =
  for dst = 0 to t.n - 1 do
    if dst <> src then send t ~src ~dst ~size msg
  done

let at t ~delay node callback =
  check_node t node;
  if delay < 0.0 then invalid_arg "Simnet.at: negative delay";
  Heap.push t.queue ~key:(t.clock +. delay) (Timer { node; callback })

let work t node duration =
  check_node t node;
  if duration < 0.0 then invalid_arg "Simnet.work: negative duration";
  if not t.crashed.(node) then begin
    let duration = duration *. t.slow_factor.(node) in
    t.busy_total.(node) <- t.busy_total.(node) +. duration;
    t.busy_until.(node) <- max t.busy_until.(node) t.clock +. duration;
    if t.busy_until.(node) > t.completion_time then t.completion_time <- t.busy_until.(node)
  end

let crash t node =
  check_node t node;
  t.crashed.(node) <- true

let is_crashed t node =
  check_node t node;
  t.crashed.(node)

let max_events = 50_000_000

let dispatch t node fire =
  if not t.crashed.(node) then begin
    (* A node handles one event at a time: queue behind its busy clock. *)
    let start = max t.clock t.busy_until.(node) in
    t.clock <- start;
    t.busy_until.(node) <- start;
    t.current_node <- node;
    fire ();
    t.current_node <- -1;
    if t.busy_until.(node) > t.completion_time then t.completion_time <- t.busy_until.(node);
    if t.clock > t.completion_time then t.completion_time <- t.clock
  end

let run t =
  let count = ref 0 in
  let loop () =
    let continue = ref true in
    while !continue do
      match Heap.pop t.queue with
      | None -> continue := false
      | Some (time, event) ->
          incr count;
          if !count > max_events then
            failwith "Simnet.run: event budget exceeded (runaway protocol?)";
          (match event with
          | Crash node ->
              t.clock <- max t.clock time;
              t.crashed.(node) <- true
          (* Events addressed to a crashed node are cancelled without even
             advancing the clock: a dead node holds nothing open. *)
          | Deliver { dst; _ } when t.crashed.(dst) -> ()
          | Timer { node; _ } when t.crashed.(node) -> ()
          | Deliver { src; dst; msg } ->
              t.clock <- max t.clock time;
              dispatch t dst (fun () ->
                  match t.handlers.(dst) with
                  | Some handler ->
                      t.messages_delivered <- t.messages_delivered + 1;
                      handler t ~src msg
                  | None -> ())
          | Timer { node; callback } ->
              t.clock <- max t.clock time;
              dispatch t node (fun () -> callback t))
    done
  in
  (* The span times the harness's own event loop (wall ns); the simulated
     protocol clock travels separately in the [sim_us] arg. *)
  Eppi_obs.Trace.begin_span "simnet.run";
  (match loop () with
  | () -> ()
  | exception e ->
      Eppi_obs.Trace.end_span "simnet.run" ~args:[ ("events", !count); ("raised", 1) ];
      raise e);
  Eppi_obs.Trace.end_span "simnet.run"
    ~args:
      [
        ("events", !count);
        ("delivered", t.messages_delivered);
        ("dropped", t.messages_dropped);
        ("messages", t.messages_sent);
        ("bytes", t.bytes_sent);
        ("sim_us", int_of_float (t.completion_time *. 1e6));
      ]

type metrics = {
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  messages_duplicated : int;
  bytes_sent : int;
  completion_time : float;
}

let metrics (t : _ t) =
  {
    messages_sent = t.messages_sent;
    messages_delivered = t.messages_delivered;
    messages_dropped = t.messages_dropped;
    messages_duplicated = t.messages_duplicated;
    bytes_sent = t.bytes_sent;
    completion_time = t.completion_time;
  }

let node_busy_time t node =
  check_node t node;
  t.busy_total.(node)
