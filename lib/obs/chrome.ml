(* Chrome trace-event JSON export (the "JSON Array Format" with a
   traceEvents envelope), loadable in Perfetto and chrome://tracing.

   Mapping: one process (pid 1), one thread track per recording domain
   (tid = domain id, named via a thread_name metadata event).  Spans
   become B/E pairs, instants "i" events, counters "C" events whose args
   render as stacked series.  Timestamps are microseconds relative to the
   earliest event in the session, so traces start at t=0 regardless of
   machine uptime.

   Each event is one [Json.t] rendered by the shared writer; only the
   constant envelope around them is literal text, so a large session is
   streamed event by event instead of materialising as one value. *)

module Json = Eppi_prelude.Json

let origin_of tracks =
  List.fold_left
    (fun acc (t : Trace.track) ->
      List.fold_left (fun acc (e : Trace.event) -> min acc e.ts) acc t.track_events)
    max_int tracks

let render add tracks =
  let origin = origin_of tracks in
  let sep = ref "" in
  let emit fields =
    add !sep;
    sep := ",\n";
    add (Json.to_string (Obj fields))
  in
  add "{\"traceEvents\":[";
  List.iter
    (fun (t : Trace.track) ->
      let tid = ("tid", Json.int t.track_domain) in
      emit
        [ ("name", Str "thread_name"); ("ph", Str "M"); ("pid", Json.int 1); tid;
          ("args", Obj [ ("name", Str t.track_label) ]) ];
      List.iter
        (fun (e : Trace.event) ->
          let phase =
            match e.kind with
            | Trace.Span_begin -> [ ("ph", Json.Str "B") ]
            | Trace.Span_end -> [ ("ph", Str "E") ]
            | Trace.Instant -> [ ("ph", Str "i"); ("s", Str "t") ]
            | Trace.Counter -> [ ("ph", Str "C") ]
          in
          let args =
            if e.args = [] then []
            else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) e.args)) ]
          in
          emit
            ([ ("name", Json.Str e.name); ("cat", Str "eppi"); ("pid", Json.int 1); tid;
               ("ts", Num (float_of_int (e.ts - origin) /. 1e3)) ]
            @ phase @ args))
        t.track_events)
    tracks;
  add "],\"displayTimeUnit\":\"ms\"}\n"

let to_json tracks =
  let b = Buffer.create 65_536 in
  render (Buffer.add_string b) tracks;
  Buffer.contents b

let write path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> render (output_string oc) (Trace.tracks ()))
