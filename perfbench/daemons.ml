(* Replica daemons as child processes: each is a production
   [eppi serve --listen] with default shards, cache and worker count, so
   it shares neither domains nor minor GCs with the load generator. *)

module Addr = Eppi_net.Addr
module Client = Eppi_net.Client

type t = { pid : int; addr : Addr.t; name : string }

(* Every daemon still running: the driver's exit handler kills them, so an
   exception anywhere cannot leave one behind. *)
let live : t list ref = ref []

let forget d = live := List.filter (fun x -> x.pid <> d.pid) !live

let reap_or_kill d ~grace =
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  forget d

let kill_all () = List.iter (fun d -> reap_or_kill d ~grace:0.0) !live

let start ~eppi ~index_csv ~roster_csv ~linkage_seed ~peers ~socket ~log =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv =
    [|
      eppi; "serve"; "-i"; index_csv; "--listen"; socket; "--peers"; peers; "--roster"; roster_csv;
      "--linkage-seed"; string_of_int linkage_seed;
    |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close out)
      (fun () -> Unix.create_process eppi argv null out out)
  in
  let d = { pid; addr = Addr.Unix_socket socket; name = Filename.remove_extension socket } in
  live := d :: !live;
  d

let wait_ready ?(timeout = 60.0) d =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ ->
        forget d;
        failwith (Printf.sprintf "daemon %s exited during start-up (see %s.log)" d.name d.name));
    match Client.connect d.addr with
    | c ->
        Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.ping c)
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let with_client d f =
  let c = Client.connect ~request_timeout:30.0 d.addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let stats d = Eppi_prelude.Json.parse_exn (with_client d Client.stats_json)
let telemetry d = Eppi_prelude.Json.parse_exn (with_client d Client.telemetry_json)

(* Peak resident set of the daemon process, from the kernel's VmHWM. *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      scan ())

(* CPU seconds (user + system, every thread) the daemon has used so far,
   from /proc/PID/stat in clock ticks of 1/100 s.  The command name may
   hold spaces, so fields are counted after its closing parenthesis. *)
let cpu_seconds d =
  let line =
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" d.pid) In_channel.input_all
  in
  let start = String.rindex line ')' + 2 in
  match String.split_on_char ' ' (String.sub line start (String.length line - start)) with
  | _state :: _ppid :: _pgrp :: _session :: _tty :: _tpgid :: _flags :: _minflt :: _cminflt
    :: _majflt :: _cmajflt :: utime :: stime :: _ ->
      float_of_int (int_of_string utime + int_of_string stime) /. 100.0
  | _ -> failwith "malformed /proc stat line"

let stop d =
  (try with_client d Client.shutdown with _ -> ());
  reap_or_kill d ~grace:10.0
