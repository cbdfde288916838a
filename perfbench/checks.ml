open Eppi_prelude
module Serve = Eppi_serve.Serve

module Expect = struct
  type t = { matrix : Bitmatrix.t; counts : int array }

  let of_index index =
    let matrix = Eppi.Index.matrix index in
    { matrix; counts = Array.init (Bitmatrix.rows matrix) (Bitmatrix.row_count matrix) }

  let owners t = Array.length t.counts

  (* Ascending, in range, each bit set, and as many as the row holds:
     together these pin the list to the row exactly. *)
  let row_ok t ~owner ps =
    owner >= 0
    && owner < owners t
    &&
    let m = Bitmatrix.cols t.matrix in
    let rec go prev len = function
      | [] -> len = t.counts.(owner)
      | p :: rest ->
          p > prev && p < m && Bitmatrix.get t.matrix ~row:owner ~col:p && go p (len + 1) rest
    in
    go (-1) 0 ps
end

module Generations = struct
  module M = Map.Make (Int)

  type t = Expect.t M.t Atomic.t

  let create () = Atomic.make M.empty

  let rec add t g e =
    let cur = Atomic.get t in
    if not (Atomic.compare_and_set t cur (M.add g e cur)) then add t g e

  let find t g = M.find_opt g (Atomic.get t)
end

type verdict = Correct | Failed of string | Wrong of string

let check_exact gens ~owner ~generation (reply : Serve.reply) =
  match Generations.find gens generation with
  | None -> Wrong (Printf.sprintf "reply names generation %d, which was never published" generation)
  | Some e -> (
      let in_range = owner >= 0 && owner < Expect.owners e in
      match reply with
      | Providers _ when not in_range ->
          Wrong (Printf.sprintf "owner %d is not in the index but got a provider list" owner)
      | Providers ps ->
          if Expect.row_ok e ~owner ps then Correct
          else
            Wrong
              (Printf.sprintf "owner %d: row differs from Index.query at generation %d" owner
                 generation)
      | Unknown_owner ->
          if in_range then Failed (Printf.sprintf "Unknown_owner for in-range owner %d" owner)
          else Correct
      | Shed_rate_limit | Shed_queue_full -> Failed "shed")

let check_fuzzy gens ~generation ~truth (reply : Serve.fuzzy_reply) =
  match reply with
  | No_resolver | Probe_mismatch -> (Failed "fuzzy reject", false)
  | Fuzzy_shed -> (Failed "fuzzy shed", false)
  | Candidates cs -> (
      match Generations.find gens generation with
      | None ->
          ( Wrong
              (Printf.sprintf "fuzzy reply names generation %d, which was never published"
                 generation),
            false )
      | Some e -> (
          match
            List.find_opt
              (fun (c : Serve.candidate) -> not (Expect.row_ok e ~owner:c.owner c.providers))
              cs
          with
          | Some c ->
              ( Wrong
                  (Printf.sprintf
                     "fuzzy candidate %d: row differs from Index.query at generation %d" c.owner
                     generation),
                false )
          | None -> (Correct, List.exists (fun (c : Serve.candidate) -> c.owner = truth) cs)))

let codec_roundtrip_ok index =
  match Eppi_net.Index_codec.decode (Eppi_net.Index_codec.encode index) with
  | Ok back -> Bitmatrix.equal (Eppi.Index.matrix back) (Eppi.Index.matrix index)
  | Error _ -> false

type identity = { name : string; residual : float; tolerance : float }

let holds i = Float.abs i.residual <= i.tolerance

let to_line i =
  Printf.sprintf "conservation %s residual=%.6g tolerance=%.6g %s" i.name i.residual i.tolerance
    (if holds i then "ok" else "FAILED")

type replica_counts = {
  queries : int;
  served : int;
  unknown : int;
  shed : int;
  fuzzy_queries : int;
  fuzzy_answered : int;
  fuzzy_rejected : int;
  fuzzy_shed : int;
}

let replica_counts_of_stats json =
  let get k =
    match Json.find_int json [ k ] with
    | Some v -> v
    | None -> failwith (Printf.sprintf "stats reply lacks %S" k)
  in
  {
    queries = get "queries";
    served = get "served";
    unknown = get "unknown";
    shed = get "shed_rate" + get "shed_queue";
    fuzzy_queries = get "fuzzy_queries";
    fuzzy_answered = get "fuzzy_resolved" + get "fuzzy_empty";
    fuzzy_rejected = get "fuzzy_rejected";
    fuzzy_shed = get "fuzzy_shed";
  }

let exact name residual = { name; residual = float_of_int residual; tolerance = 0.0 }

let replica_identities replica c =
  [
    exact (replica ^ ".exact") (c.served + c.unknown + c.shed - c.queries);
    exact (replica ^ ".fuzzy")
      (c.fuzzy_answered + c.fuzzy_rejected + c.fuzzy_shed - c.fuzzy_queries);
  ]

let cluster_identities ~exact_sent ~fuzzy_sent ~failovers counts =
  if failovers > 0 then []
  else
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 counts in
    [
      exact "cluster.exact_received" (sum (fun c -> c.queries) - exact_sent);
      exact "cluster.fuzzy_received" (sum (fun c -> c.fuzzy_queries) - fuzzy_sent);
    ]

let stage_identity name ~stage_sum_ns ~total_ns = exact name (stage_sum_ns - total_ns)

let layer_identity name ~wall ~parts ~tolerance =
  let sum = List.fold_left ( +. ) 0.0 parts in
  { name; residual = (wall -. sum) /. wall; tolerance }
