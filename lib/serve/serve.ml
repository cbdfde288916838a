open Eppi_prelude
module Trace = Eppi_obs.Trace
module Resolver = Eppi_fuzzy.Resolver

type config = { admission : Admission.config option }

let default_config = { admission = None }

(* Every 16th query has its latency recorded: sampling keeps the clock
   calls off the common path. *)
let sample_every = 16

type reply =
  | Providers of int list
  | Unknown_owner
  | Shed_rate_limit
  | Shed_queue_full  (* never produced by the engine; see serve.mli *)

(* The currently published index: one immutable record behind an atomic,
   so a republish is a single pointer swap — readers always see a
   consistent (generation, postings, resolver) and never a torn mix of
   two indexes, or a resolver naming identities of a different vintage
   than the postings it rides with. *)
type published = {
  generation : int;
  store : Postings.t;
  resolver : Resolver.t option;
}

type t = {
  published : published Atomic.t;
  bucket : Admission.t option;
  metrics : Metrics.t;
  mutable tick : int;
}

let create ?(config = default_config) ?resolver index =
  let bucket = Option.map Admission.create config.admission in
  let store = Postings.of_index index in
  {
    published = Atomic.make { generation = 1; store; resolver };
    bucket;
    metrics = Metrics.create ();
    tick = 0;
  }

let postings t = (Atomic.get t.published).store
let generation t = (Atomic.get t.published).generation
let resolver t = (Atomic.get t.published).resolver

let republish ?resolver t store =
  (* CAS loop: concurrent republishers each get a distinct generation.
     Every request after the CAS loads the new record.  The resolver
     swaps in the same CAS as the postings — omitted, the currently
     installed one is carried over, so (postings, resolver) stays a
     consistent pair either way. *)
  let rec install () =
    let old = Atomic.get t.published in
    let resolver = match resolver with Some _ -> resolver | None -> old.resolver in
    let next = { generation = old.generation + 1; store; resolver } in
    if Atomic.compare_and_set t.published old next then next.generation else install ()
  in
  install ()

(* The range check and the row decode, after admission.  [pub] is the
   published record the caller loaded for this request. *)
let lookup pub t ~owner =
  if owner < 0 || owner >= Postings.owners pub.store then begin
    Metrics.incr_unknown t.metrics;
    Unknown_owner
  end
  else begin
    Metrics.incr_served t.metrics;
    Providers (Postings.query pub.store ~owner)
  end

(* Only an engine with admission control reads the clock. *)
let admit ?now t =
  match t.bucket with
  | None -> true
  | Some b ->
      let now = match now with Some n -> n | None -> Clock.seconds () in
      Admission.try_admit b ~now

(* [pub] comes from one atomic load per request, which pins the
   (generation, postings) pair this reply is computed from: a republish
   between two requests is picked up by the second, never mid-reply. *)
let query_tagged ?now t ~owner =
  let pub = Atomic.get t.published in
  Metrics.incr_queries t.metrics;
  let reply =
    if not (admit ?now t) then begin
      Metrics.incr_shed_rate t.metrics;
      Shed_rate_limit
    end
    else begin
      t.tick <- t.tick + 1;
      if t.tick >= sample_every then begin
        t.tick <- 0;
        let t0 = Clock.seconds () in
        let reply = lookup pub t ~owner in
        Metrics.record_latency t.metrics (Clock.seconds () -. t0);
        reply
      end
      else lookup pub t ~owner
    end
  in
  (pub.generation, reply)

let query ?now t ~owner = snd (query_tagged ?now t ~owner)

type candidate = {
  owner : int;
  score : float;
  providers : int list;
}

type fuzzy_reply =
  | Candidates of candidate list
  | No_resolver
  | Probe_mismatch
  | Fuzzy_shed

let query_fuzzy ?now ?(k = 10) t probe =
  if k <= 0 then invalid_arg "Serve.query_fuzzy: k must be positive";
  Metrics.incr_fuzzy t.metrics;
  let pub = Atomic.get t.published in
  if not (admit ?now t) then begin
    Metrics.incr_fuzzy_shed t.metrics;
    (pub.generation, Fuzzy_shed)
  end
  else
    match pub.resolver with
    | None ->
        Metrics.incr_fuzzy_rejected t.metrics;
        (pub.generation, No_resolver)
    | Some r when not (Resolver.compatible r probe) ->
        Metrics.incr_fuzzy_rejected t.metrics;
        (pub.generation, Probe_mismatch)
    | Some r ->
        let resolve () = Resolver.resolve r probe ~k in
        let outcome =
          if not (Trace.enabled ()) then resolve ()
          else begin
            Trace.begin_span "fuzzy.resolve";
            let o = resolve () in
            Trace.end_span "fuzzy.resolve"
              ~args:
                [
                  ("buckets", o.buckets_hit);
                  ("scanned", o.scanned);
                  ("candidates", List.length o.candidates);
                ];
            o
          end
        in
        Metrics.add_fuzzy_scanned t.metrics outcome.scanned;
        (* Candidate rows come from the pinned postings. *)
        let owners = Postings.owners pub.store in
        let candidates =
          List.filter_map
            (fun (rv : Resolver.resolved) ->
              if rv.owner < 0 || rv.owner >= owners then None
              else
                Some
                  {
                    owner = rv.owner;
                    score = rv.score;
                    providers = Postings.query pub.store ~owner:rv.owner;
                  })
            outcome.candidates
        in
        (match candidates with
        | [] -> Metrics.incr_fuzzy_empty t.metrics
        | _ :: _ -> Metrics.incr_fuzzy_resolved t.metrics);
        (pub.generation, Candidates candidates)

let audit t ~provider =
  let store = (Atomic.get t.published).store in
  if provider < 0 || provider >= Postings.providers store then None
  else begin
    Metrics.incr_audits t.metrics;
    Some (Postings.owners_of store ~provider)
  end

let metrics t = Metrics.snapshot ~generation:(generation t) [ t.metrics ]
