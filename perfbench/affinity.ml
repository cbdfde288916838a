(* During a lookup block the reader and the replica daemons share one CPU,
   so a depth-1 round trip never waits for a cross-CPU wakeup: on a
   virtual machine that wakeup is an inter-processor interrupt whose cost
   swings with the host's load and swamps microsecond latencies.
   Successive blocks take the CPUs in turn, because each virtual CPU's
   speed drifts on its own over seconds; rotating averages that drift
   instead of betting the run on one CPU.  Outside lookup blocks everyone
   gets every CPU back, so construction and the replicas' swaps run in
   parallel. *)

external set_affinity : int -> int -> bool = "perfbench_set_affinity"

let cpus = Domain.recommended_domain_count ()
let turn = ref 0

(* Every thread of a child process.  Best effort: a thread that exits
   meanwhile is simply skipped. *)
let threads pid =
  try
    Sys.readdir (Printf.sprintf "/proc/%d/task" pid)
    |> Array.to_list |> List.filter_map int_of_string_opt
  with Sys_error _ -> []

let set_all ~pids cpu =
  ignore (set_affinity 0 cpu);
  List.iter (fun pid -> List.iter (fun tid -> ignore (set_affinity tid cpu)) (threads pid)) pids

(* Run [f] with the calling thread and every thread of [pids] on the next
   CPU in turn. *)
let serving ~pids f =
  let cpu = !turn mod cpus in
  incr turn;
  set_all ~pids cpu;
  Fun.protect ~finally:(fun () -> set_all ~pids (-1)) f
