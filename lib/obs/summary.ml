(* Aggregate view of a tracing session: per-span-name totals (time, bytes,
   messages, allocation) against the session wall, plus the last sample of
   every counter series.  This is the table the CLI prints next to the
   Chrome export — the quick answer to "where did the time go" without
   opening Perfetto. *)

type row = {
  name : string;
  count : int;
  total_ns : int;
  bytes : int;
  messages : int;
  minor_words : int;
  major_words : int;
}

type t = {
  wall_ns : int;
  track_count : int;
  dropped : int;
  rows : row list;
  counters : (string * int) list;
}

let arg args key = match List.assoc_opt key args with Some v -> v | None -> 0

let compute tracks =
  let rows : (string, row) Hashtbl.t = Hashtbl.create 16 in
  let counters : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let counter_order = ref [] in
  let lo = ref max_int and hi = ref min_int and dropped = ref 0 in
  List.iter
    (fun (tr : Trace.track) ->
      dropped := !dropped + tr.track_dropped;
      (* Spans nest properly within a track (single writer, LIFO), so a
         plain stack pairs each end with its begin. *)
      let stack = ref [] in
      List.iter
        (fun (e : Trace.event) ->
          if e.ts < !lo then lo := e.ts;
          if e.ts > !hi then hi := e.ts;
          match e.kind with
          | Trace.Span_begin -> stack := e.ts :: !stack
          | Trace.Span_end -> (
              match !stack with
              | [] -> () (* unbalanced: begin fell off the ring *)
              | t0 :: rest ->
                  stack := rest;
                  let prev =
                    match Hashtbl.find_opt rows e.name with
                    | Some r -> r
                    | None ->
                        {
                          name = e.name;
                          count = 0;
                          total_ns = 0;
                          bytes = 0;
                          messages = 0;
                          minor_words = 0;
                          major_words = 0;
                        }
                  in
                  Hashtbl.replace rows e.name
                    {
                      prev with
                      count = prev.count + 1;
                      total_ns = prev.total_ns + (e.ts - t0);
                      bytes = prev.bytes + arg e.args "bytes";
                      messages = prev.messages + arg e.args "messages";
                      minor_words = prev.minor_words + arg e.args "minor_words";
                      major_words = prev.major_words + arg e.args "major_words";
                    })
          | Trace.Instant -> ()
          | Trace.Counter ->
              List.iter
                (fun (k, v) ->
                  let key = e.name ^ "." ^ k in
                  if not (Hashtbl.mem counters key) then
                    counter_order := key :: !counter_order;
                  Hashtbl.replace counters key v)
                e.args)
        tr.track_events)
    tracks;
  let rows =
    Hashtbl.fold (fun _ r acc -> r :: acc) rows []
    |> List.sort (fun a b -> compare b.total_ns a.total_ns)
  in
  {
    wall_ns = (if !hi >= !lo then !hi - !lo else 0);
    track_count = List.length tracks;
    dropped = !dropped;
    rows;
    counters =
      List.rev_map (fun key -> (key, Hashtbl.find counters key)) !counter_order;
  }

let ms ns = float_of_int ns /. 1e6

let pp ppf t =
  Format.fprintf ppf "trace summary: %d track%s, wall %.3f ms, %d event%s dropped@,"
    t.track_count
    (if t.track_count = 1 then "" else "s")
    (ms t.wall_ns) t.dropped
    (if t.dropped = 1 then "" else "s");
  if t.rows <> [] then begin
    Format.fprintf ppf "%-28s %8s %12s %7s %12s %12s@," "span" "count" "total(ms)"
      "%wall" "bytes" "minor(w)";
    List.iter
      (fun r ->
        let pct =
          if t.wall_ns = 0 then 0.0
          else 100.0 *. float_of_int r.total_ns /. float_of_int t.wall_ns
        in
        Format.fprintf ppf "%-28s %8d %12.3f %7.1f %12d %12d@," r.name r.count
          (ms r.total_ns) pct r.bytes r.minor_words)
      t.rows
  end;
  if t.counters <> [] then begin
    Format.fprintf ppf "counters (last sample):@,";
    List.iter
      (fun (k, v) ->
        (* A busy_us counter against the session wall is a utilization. *)
        if t.wall_ns > 0 && String.length k > 8 && Filename.check_suffix k ".busy_us"
        then
          Format.fprintf ppf "  %-32s = %d  (%.1f%% of wall)@," k v
            (100.0 *. float_of_int (v * 1000) /. float_of_int t.wall_ns)
        else Format.fprintf ppf "  %-32s = %d@," k v)
      t.counters
  end

let print ppf t = Format.fprintf ppf "@[<v>%a@]@." pp t
