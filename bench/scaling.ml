(* Multicore construction scaling: wall-clock time of the full distributed
   construction (SecSumShare + CountBelow + release + publication) at
   1/2/4/8 domains, against the pre-shard monolithic single-domain path.

   Unlike the fig4/fig5/fig6 targets, which report *simulated* protocol
   seconds from the cost model, this target measures the harness's own
   wall-clock time — the thing the multicore pipeline actually improves —
   and writes BENCH_construct.json so successive PRs can track the
   trajectory.  Its own gate is the sharded-vs-monolithic output
   equality, checked on every run.

   Environment knobs: SCALING_N (identities, default 2000), SCALING_M
   (providers, default 8), SCALING_DOMAINS (comma list, default 1,2,4,8). *)

open Eppi_prelude

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let domain_counts () =
  match Sys.getenv_opt "SCALING_DOMAINS" with
  | None -> [ 1; 2; 4; 8 ]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun tok -> int_of_string_opt (String.trim tok))
      |> List.filter (fun d -> d >= 1)

let wall f =
  let t0 = Clock.seconds () in
  let result = f () in
  (Clock.seconds () -. t0, result)

let run () =
  let n = getenv_int "SCALING_N" 2000 in
  let m = getenv_int "SCALING_M" 8 in
  Bench_util.heading
    (Printf.sprintf "Construction scaling: wall time vs domains (n=%d identities, m=%d providers)"
       n m);
  let rng = Rng.create 4242 in
  let freqs = Array.init n (fun j -> 1 + (j mod m)) in
  let membership = Bench_util.matrix_of_frequencies rng ~m ~freqs in
  let epsilons = Array.init n (fun j -> 0.2 +. (0.6 *. float_of_int (j mod 5) /. 4.0)) in
  let policy = Eppi.Policy.Chernoff 0.9 in
  let construct ?pool ?strategy () =
    Eppi_protocol.Construct.run ?pool ?strategy (Rng.create 99) ~membership ~epsilons ~policy
  in
  (* Pre-shard reference: one monolithic circuit, sequential interpreter. *)
  let mono_time, mono = wall (fun () -> construct ~strategy:`Monolithic ()) in
  Bench_util.note "monolithic (pre-shard) 1 domain: %.3f s" mono_time;
  let runs =
    List.map
      (fun domains ->
        let seconds, r =
          if domains = 1 then wall (fun () -> construct ())
          else
            Pool.with_pool ~size:domains (fun pool -> wall (fun () -> construct ~pool ()))
        in
        (* The determinism contract, re-checked on the bench path. *)
        if r.betas <> mono.betas || r.common <> mono.common then
          failwith "scaling: construction output diverged across domain counts";
        Bench_util.note "sharded %d domain%s: %.3f s (x%.2f vs monolithic)" domains
          (if domains = 1 then " " else "s")
          seconds (mono_time /. seconds);
        (domains, seconds))
      (domain_counts ())
  in
  let seconds_at d = List.assoc_opt d runs in
  let speedup num den =
    match (num, den) with Some a, Some b when b > 0.0 -> a /. b | _ -> Float.nan
  in
  let s1 = seconds_at 1 and s4 = seconds_at 4 in
  (match (s1, s4) with
  | Some s1, Some s4 ->
      Bench_util.note "4-domain speedup: x%.2f vs 1 domain, x%.2f vs monolithic" (s1 /. s4)
        (mono_time /. s4)
  | _ -> ());
  (* Speedups are NaN when the domain list lacks a 1 or 4 entry: null in
     the JSON. *)
  Bench_util.publish "BENCH_construct.json"
    (Obj
       [ ("bench", Str "construct-scaling"); ("n_identities", Json.int n);
         ("m_providers", Json.int m);
         ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
         ("monolithic_seconds", Num mono_time);
         ( "sharded_runs",
           List
             (List.map
                (fun (d, s) -> Json.Obj [ ("domains", Json.int d); ("seconds", Num s) ])
                runs) );
         ("speedup_4_domains_vs_1_domain", Num (speedup s1 s4));
         ("speedup_4_domains_vs_monolithic", Num (speedup (Some mono_time) s4)) ])
    []
