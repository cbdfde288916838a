open Eppi_prelude

type t = {
  mutable queries : int;
  mutable served : int;
  mutable unknown : int;
  mutable shed_rate : int;
  mutable audits : int;
  mutable fuzzy_queries : int;
  mutable fuzzy_resolved : int;
  mutable fuzzy_empty : int;
  mutable fuzzy_rejected : int;
  mutable fuzzy_shed : int;
  mutable fuzzy_scanned : int;
}

let create () =
  {
    queries = 0;
    served = 0;
    unknown = 0;
    shed_rate = 0;
    audits = 0;
    fuzzy_queries = 0;
    fuzzy_resolved = 0;
    fuzzy_empty = 0;
    fuzzy_rejected = 0;
    fuzzy_shed = 0;
    fuzzy_scanned = 0;
  }

let incr_queries t = t.queries <- t.queries + 1
let incr_served t = t.served <- t.served + 1
let incr_unknown t = t.unknown <- t.unknown + 1
let incr_shed_rate t = t.shed_rate <- t.shed_rate + 1
let incr_audits t = t.audits <- t.audits + 1
let incr_fuzzy t = t.fuzzy_queries <- t.fuzzy_queries + 1
let incr_fuzzy_resolved t = t.fuzzy_resolved <- t.fuzzy_resolved + 1
let incr_fuzzy_empty t = t.fuzzy_empty <- t.fuzzy_empty + 1
let incr_fuzzy_rejected t = t.fuzzy_rejected <- t.fuzzy_rejected + 1
let incr_fuzzy_shed t = t.fuzzy_shed <- t.fuzzy_shed + 1
let add_fuzzy_scanned t n = t.fuzzy_scanned <- t.fuzzy_scanned + n

type snapshot = {
  queries : int;
  served : int;
  unknown : int;
  shed_rate : int;
  shed_queue : int;
  audits : int;
  generation : int;
  swaps : int;
  fuzzy_queries : int;
  fuzzy_resolved : int;
  fuzzy_empty : int;
  fuzzy_rejected : int;
  fuzzy_shed : int;
  fuzzy_scanned : int;
}

let snapshot ?(generation = 1) (ts : t list) =
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 ts in
  {
    queries = sum (fun t -> t.queries);
    served = sum (fun t -> t.served);
    unknown = sum (fun t -> t.unknown);
    shed_rate = sum (fun t -> t.shed_rate);
    shed_queue = 0;
    audits = sum (fun t -> t.audits);
    generation;
    swaps = generation - 1;
    fuzzy_queries = sum (fun t -> t.fuzzy_queries);
    fuzzy_resolved = sum (fun t -> t.fuzzy_resolved);
    fuzzy_empty = sum (fun t -> t.fuzzy_empty);
    fuzzy_rejected = sum (fun t -> t.fuzzy_rejected);
    fuzzy_shed = sum (fun t -> t.fuzzy_shed);
    fuzzy_scanned = sum (fun t -> t.fuzzy_scanned);
  }

(* Interval view: counters subtract (a long-running engine reports
   per-window rates from two snapshots); the generation is a label, so it
   comes from the newer snapshot. *)
let diff (newer : snapshot) (older : snapshot) =
  {
    queries = newer.queries - older.queries;
    served = newer.served - older.served;
    unknown = newer.unknown - older.unknown;
    shed_rate = newer.shed_rate - older.shed_rate;
    shed_queue = newer.shed_queue - older.shed_queue;
    audits = newer.audits - older.audits;
    generation = newer.generation;
    swaps = newer.swaps - older.swaps;
    fuzzy_queries = newer.fuzzy_queries - older.fuzzy_queries;
    fuzzy_resolved = newer.fuzzy_resolved - older.fuzzy_resolved;
    fuzzy_empty = newer.fuzzy_empty - older.fuzzy_empty;
    fuzzy_rejected = newer.fuzzy_rejected - older.fuzzy_rejected;
    fuzzy_shed = newer.fuzzy_shed - older.fuzzy_shed;
    fuzzy_scanned = newer.fuzzy_scanned - older.fuzzy_scanned;
  }

let json ?(extra = []) s =
  let ints = List.map (fun (k, v) -> (k, Json.int v)) in
  Json.Obj
    (ints
       [ ("queries", s.queries); ("served", s.served); ("unknown", s.unknown);
         ("shed_rate", s.shed_rate); ("shed_queue", s.shed_queue); ("audits", s.audits);
         ("generation", s.generation); ("swaps", s.swaps); ("fuzzy_queries", s.fuzzy_queries);
         ("fuzzy_resolved", s.fuzzy_resolved); ("fuzzy_empty", s.fuzzy_empty);
         ("fuzzy_rejected", s.fuzzy_rejected); ("fuzzy_shed", s.fuzzy_shed);
         ("fuzzy_scanned", s.fuzzy_scanned) ]
    @ extra)

let to_json s = Json.to_string (json s)
