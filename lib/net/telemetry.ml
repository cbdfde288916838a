(* Always-on request-stage telemetry for the daemon.

   Every request the loop decodes gets one {!record}, stamped when its
   decode began, when it was decoded and when its reply frame entered the
   connection's write buffer; it is finished when the last byte of that
   reply hits the socket.  The three stages telescope — each stage is the
   difference of adjacent stamps — so per request

     decode + execute + flush = total

   holds {e exactly} in integer nanoseconds, and therefore the aggregated
   sums satisfy the same conservation law.  That law is the telemetry's
   self-check: a stage the accounting misses would show up as a gap.

   The store has a single writer, the daemon's loop. *)

module Json = Eppi_prelude.Json
module Stats = Eppi_prelude.Stats

type record = {
  kind : int;  (* Wire.request_tag of the unwrapped request *)
  trace_id : int;  (* propagated trace context, -1 = none *)
  t_read : int;  (* decode began (bytes were buffered) *)
  t_decoded : int;  (* frame parsed *)
  t_executed : int;  (* reply frame appended to the connection's write buffer *)
}

let stages = 3
let stage_names = [| "decode"; "execute"; "flush" |]
let classes = [| "query"; "fuzzy"; "audit"; "republish"; "admin" |]

(* Kinds are wire tags ([Wire.request_tag]). *)
let class_of_kind = function
  | 0x01 -> 0 (* query *)
  | 0x09 -> 1 (* fuzzy *)
  | 0x03 -> 2 (* audit *)
  | 0x08 -> 3 (* republish *)
  | _ -> 4 (* stats, ping, shutdown, telemetry, cluster status *)

let kind_name = function
  | 0x01 -> "query"
  | 0x03 -> "audit"
  | 0x04 -> "stats"
  | 0x06 -> "ping"
  | 0x07 -> "shutdown"
  | 0x08 -> "republish_binary"
  | 0x09 -> "fuzzy"
  | 0x0B -> "telemetry"
  | 0x0C -> "cluster"
  | _ -> "other"

type slow = {
  s_kind : int;
  s_trace_id : int;
  s_total_ns : int;
  s_stages : int array;  (* length [stages] *)
}

type t = {
  stage_hist : Stats.Log2_histogram.t array;  (* seconds, one per stage *)
  stage_sum_ns : int array;  (* exact integer sums for the conservation law *)
  total_hist : Stats.Log2_histogram.t;
  mutable total_sum_ns : int;
  mutable finished : int;
  windows : Stats.Windowed.t array;  (* rolling window, one per class *)
  slow : slow option array;  (* worst-N ring, unordered *)
  mutable slow_filled : int;
  mutable slow_min_ns : int;  (* smallest total among filled slots *)
}

let create ?(slow_slots = 16) () =
  if slow_slots < 1 then invalid_arg "Telemetry.create: slow_slots must be >= 1";
  {
    stage_hist = Array.init stages (fun _ -> Stats.Log2_histogram.create ());
    stage_sum_ns = Array.make stages 0;
    total_hist = Stats.Log2_histogram.create ();
    total_sum_ns = 0;
    finished = 0;
    windows =
      Array.init (Array.length classes) (fun _ ->
          Stats.Windowed.create ~slots:10 ~slot_ns:1_000_000_000 ());
    slow = Array.make slow_slots None;
    slow_filled = 0;
    slow_min_ns = max_int;
  }

let ns_to_s ns = float_of_int ns /. 1e9

let note_slow t r ~total_ns ~stage_ns =
  let n = Array.length t.slow in
  if t.slow_filled >= n && total_ns <= t.slow_min_ns then ()
  else begin
    let entry =
      Some { s_kind = r.kind; s_trace_id = r.trace_id; s_total_ns = total_ns; s_stages = stage_ns }
    in
    if t.slow_filled < n then begin
      t.slow.(t.slow_filled) <- entry;
      t.slow_filled <- t.slow_filled + 1;
      if total_ns < t.slow_min_ns then t.slow_min_ns <- total_ns
    end
    else begin
      (* Evict the smallest; rescan for the new minimum (N is small). *)
      let min_i = ref 0 and min_v = ref max_int in
      Array.iteri
        (fun i e ->
          match e with
          | Some s when s.s_total_ns < !min_v ->
              min_i := i;
              min_v := s.s_total_ns
          | _ -> ())
        t.slow;
      t.slow.(!min_i) <- entry;
      let new_min = ref max_int in
      Array.iter
        (fun e -> match e with Some s when s.s_total_ns < !new_min -> new_min := s.s_total_ns | _ -> ())
        t.slow;
      t.slow_min_ns <- !new_min
    end
  end

let finish t r ~t_written =
  let stage_ns = [| r.t_decoded - r.t_read; r.t_executed - r.t_decoded; t_written - r.t_executed |] in
  let total_ns = t_written - r.t_read in
  for i = 0 to stages - 1 do
    Stats.Log2_histogram.add t.stage_hist.(i) (ns_to_s stage_ns.(i));
    t.stage_sum_ns.(i) <- t.stage_sum_ns.(i) + stage_ns.(i)
  done;
  Stats.Log2_histogram.add t.total_hist (ns_to_s total_ns);
  t.total_sum_ns <- t.total_sum_ns + total_ns;
  t.finished <- t.finished + 1;
  Stats.Windowed.add t.windows.(class_of_kind r.kind) ~now_ns:t_written (ns_to_s total_ns);
  note_slow t r ~total_ns ~stage_ns

let stage_sum_ns t = Array.fold_left ( + ) 0 t.stage_sum_ns

(* ---- JSON rendering ---- *)

let json ?(extra = []) t ~now_ns =
  let int = Json.int in
  let latency ~mean ~p50 ~p99 =
    [ ("mean_s", Json.Num mean); ("p50_s", Num p50); ("p99_s", Num p99) ]
  in
  let hist ?sum_ns h =
    let module H = Stats.Log2_histogram in
    let sum = Option.fold ~none:[] ~some:(fun ns -> [ ("sum_ns", int ns) ]) sum_ns in
    (("count", int (H.total h)) :: sum)
    @ latency ~mean:(H.mean h) ~p50:(H.quantile h 0.5) ~p99:(H.quantile h 0.99)
  in
  (* Rolling window, one summary per request class. *)
  let window =
    List.mapi
      (fun i name ->
        let s = Stats.Windowed.snapshot t.windows.(i) ~now_ns in
        ( name,
          Json.Obj
            (("count", int s.count) :: ("rate", Num s.rate)
            :: latency ~mean:s.mean ~p50:s.p50 ~p99:s.p99) ))
      (Array.to_list classes)
  in
  (* Cumulative per-stage histograms with exact integer sums. *)
  let stages =
    List.mapi
      (fun i name -> (name, Json.Obj (hist ~sum_ns:t.stage_sum_ns.(i) t.stage_hist.(i))))
      (Array.to_list stage_names)
    @ [ ("total", Obj (hist t.total_hist)); ("sum_ns", int t.total_sum_ns) ]
  in
  (* Worst-N ring, slowest first. *)
  let slow =
    Array.to_list t.slow
    |> List.filter_map Fun.id
    |> List.sort (fun a b -> compare b.s_total_ns a.s_total_ns)
    |> List.map (fun s ->
           Json.Obj
             (("kind", Json.Str (kind_name s.s_kind)) :: ("trace_id", int s.s_trace_id)
             :: ("total_ns", int s.s_total_ns)
             :: List.mapi
                  (fun j name -> (name ^ "_ns", int s.s_stages.(j)))
                  (Array.to_list stage_names)))
  in
  let stage_sum = stage_sum_ns t in
  Json.Obj
    ([ ("requests", int t.finished);
       ("window", Obj (("span_s", Num (Stats.Windowed.span_s t.windows.(0))) :: window));
       ("stages", Obj stages);
       ( "conservation",
         Obj [ ("stage_sum_ns", int stage_sum); ("total_ns", int t.total_sum_ns);
               ("exact", Bool (stage_sum = t.total_sum_ns)) ] );
       ("slow", List slow) ]
    @ extra)
