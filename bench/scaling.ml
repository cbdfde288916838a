(* Multicore construction scaling: wall-clock time of the full distributed
   construction (SecSumShare + CountBelow + release + publication) at
   1/2/4/8 domains.

   Unlike the fig4/fig5/fig6 targets, which report *simulated* protocol
   seconds from the cost model, this target measures the harness's own
   wall-clock time — the thing the multicore pipeline actually improves —
   and writes BENCH_construct.json so successive PRs can track the
   trajectory.  Its gates are checked on every run, at every domain count:
   the construction's betas and common flags equal the first run's, and
   CountBelow over the same coordinator shares gives every identity the
   common bit and frequency of a per-gate Gmw.execute of the comparator.

   Environment knobs: SCALING_N (identities, default 2000), SCALING_M
   (providers, default 8), SCALING_DOMAINS (comma list, default 1,2,4,8). *)

open Eppi_prelude
module Compile = Eppi_sfdl.Compile
module Countbelow = Eppi_protocol.Countbelow

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

(* Each identity's (common, frequency) from a gate-at-a-time Gmw.execute of
   the comparator; the frequency is withheld (None) when common. *)
let per_gate_reference ~shares ~q ~thresholds =
  let c = Array.length shares in
  let cmp = Compile.compile_source (Eppi_sfdl.Programs.count_below ~c ~q) in
  Array.mapi
    (fun j t ->
      let inputs =
        Compile.encode_inputs cmp
          (("t", Compile.Dint (max 0 (min t (q - 1))))
          :: List.init c (fun i -> (Printf.sprintf "s%d" i, Compile.Dint shares.(i).(j))))
      in
      let outputs =
        Compile.decode_outputs cmp (Eppi_mpc.Gmw.execute (Rng.create j) cmp.circuit ~inputs).outputs
      in
      match (Compile.lookup_output outputs "common", Compile.lookup_output outputs "freq") with
      | Dbool common, Dint f -> (common, if common then None else Some f)
      | _ -> failwith "scaling: bad comparator output shape")
    thresholds

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
  (* CountBelow's inputs, as a construction over this matrix feeds them. *)
  let q = Eppi_protocol.Construct.modulus_for m in
  let shares =
    (Eppi_protocol.Secsumshare.run (Rng.create 98) ~membership ~c:3 ~q).coordinator_shares
  in
  let thresholds =
    Array.map (fun epsilon -> Countbelow.integer_threshold ~policy ~epsilon ~m) epsilons
  in
  let reference = per_gate_reference ~shares ~q:(Modarith.to_int q) ~thresholds in
  let first = ref None in
  let runs =
    List.map
      (fun domains ->
        Pool.with_pool ~size:domains (fun pool ->
            let seconds, r =
              wall (fun () ->
                  Eppi_protocol.Construct.run ~pool (Rng.create 99) ~membership ~epsilons ~policy)
            in
            let same_output =
              match !first with
              | None ->
                  first := Some r;
                  true
              | Some (f : Eppi_protocol.Construct.result) ->
                  r.betas = f.betas && r.common = f.common
            in
            let cb = Countbelow.run ~pool (Rng.create 97) ~shares ~q ~thresholds in
            let mismatches = ref 0 in
            Array.iteri
              (fun j (common, freq) ->
                if cb.common.(j) <> common || cb.frequencies.(j) <> freq then incr mismatches)
              reference;
            Bench_util.note "%d domain%s: %.3f s, %d of %d identities differ from per-gate GMW%s"
              domains
              (if domains = 1 then " " else "s")
              seconds !mismatches n
              (if same_output then "" else ", construction DIVERGED from the first run");
            (domains, seconds, same_output, !mismatches)))
      (domain_counts ())
  in
  let seconds_at d = List.find_map (fun (d', s, _, _) -> if d = d' then Some s else None) runs in
  let s1 = seconds_at 1 and s4 = seconds_at 4 in
  (match (s1, s4) with
  | Some s1, Some s4 -> Bench_util.note "4-domain speedup: x%.2f vs 1 domain" (s1 /. s4)
  | _ -> ());
  (* The speedup is NaN when the domain list lacks a 1 or 4 entry: null in
     the JSON. *)
  let speedup =
    match (s1, s4) with Some a, Some b when b > 0.0 -> a /. b | _ -> Float.nan
  in
  let open Bench_util in
  publish "BENCH_construct.json"
    (Obj
       [ ("bench", Str "construct-scaling"); ("n_identities", Json.int n);
         ("m_providers", Json.int m);
         ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
         ( "sharded_runs",
           List
             (List.map
                (fun (d, s, same, mismatches) ->
                  Json.Obj
                    [ ("domains", Json.int d); ("seconds", Num s);
                      ("output_equal_across_domains", Bool same);
                      ("identities_unlike_per_gate_gmw", Json.int mismatches) ])
                runs) );
         ("speedup_4_domains_vs_1_domain", Num speedup) ])
    [ ( "construction output equal across domain counts",
        fun v ->
          let rs = items v [ "sharded_runs" ] in
          rs <> [] && List.for_all (fun r -> flag r [ "output_equal_across_domains" ]) rs );
      ( "every identity matches per-gate GMW at every domain count",
        fun v ->
          let rs = items v [ "sharded_runs" ] in
          rs <> []
          && List.for_all (fun r -> num r [ "identities_unlike_per_gate_gmw" ] = 0.0) rs ) ]
