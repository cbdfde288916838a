open Eppi_prelude
open Eppi_linkage

type config = {
  params : Bloom.params;
  match_threshold : float;
  min_scan : int;
}

let default_config ~seed =
  { params = Bloom.keyed ~seed (); match_threshold = 0.6; min_scan = 64 }

(* Signatures are flat.  Owner [o]'s four field filters (first, last, dob,
   zip) sit back to back in [filters] from byte [4 * o * stride], each its
   [Bitvec] bytes zero-padded to whole 64-bit words: [stride] is 32 bytes at
   the default 256 bits, and Dice is an AND and a popcount per word.
   [counts.(4 * o + f)] is that filter's popcount, counted once at build
   rather than on every pair.  The blocking buckets are the sorted distinct
   [keys]: bucket [b]'s owners are [members] from [offsets.(b)] up to
   [offsets.(b + 1)], ascending.  Every entry is filed under each key
   [Probe.signature] gives it, so probes under either key rule find it. *)
type t = {
  config : config;
  entries : int;
  stride : int;
  filters : Bytes.t;
  counts : int array;
  keys : int array;
  offsets : int array;
  members : int array;
}

(* Lay a probe's four filters out as signature [i] of [filters], and their
   popcounts in [counts]. *)
let store ~stride filters counts i (p : Probe.t) =
  let field f bv =
    Bitvec.blit_bytes bv filters (((4 * i) + f) * stride);
    counts.((4 * i) + f) <- Bitvec.count bv
  in
  field 0 p.first;
  field 1 p.last;
  field 2 p.dob;
  field 3 p.zip

(* A filing packs its 32-bit key above a 30-bit owner. *)
let owner_bits = 30
let owner_mask = (1 lsl owner_bits) - 1

(* Stable LSD radix sort of the first [total] packed filings by key, 16
   key bits a pass.  Filings are written in owner order, so each bucket's
   owners come out ascending.  For a 32,768-entry roster (six filings
   each) this takes about 10 ms on a 2-vCPU Xeon VM, against 90 ms for
   [Array.sort Int.compare]. *)
let sort_by_key filings total =
  let tmp = Array.make total 0 and count = Array.make 65537 0 in
  let pass src dst shift =
    Array.fill count 0 65537 0;
    for i = 0 to total - 1 do
      let d = ((src.(i) lsr shift) land 0xFFFF) + 1 in
      count.(d) <- count.(d) + 1
    done;
    for d = 1 to 65536 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    for i = 0 to total - 1 do
      let f = src.(i) in
      let d = (f lsr shift) land 0xFFFF in
      dst.(count.(d)) <- f;
      count.(d) <- count.(d) + 1
    done
  in
  pass filings tmp owner_bits;
  pass tmp filings (owner_bits + 16)

(* An entry files under at most six keys: three pairs and the date, then
   the last-name and year keys ([Probe.signature]). *)
let max_filings = 6

let build config roster =
  if config.match_threshold < 0.0 || config.match_threshold > 1.0 then
    invalid_arg "Resolver.build: threshold out of [0, 1]";
  if config.min_scan < 0 then invalid_arg "Resolver.build: negative padding floor";
  if config.params.bits <= 0 || config.params.hashes <= 0 then
    invalid_arg "Resolver.build: bad filter parameters";
  let entries = Array.length roster in
  if entries > owner_mask then invalid_arg "Resolver.build: roster of 2^30 entries or more";
  let stride = 8 * ((config.params.bits + 63) / 64) in
  let filters = Bytes.make (4 * entries * stride) '\000' in
  let counts = Array.make (4 * entries) 0 in
  let filings = Array.make (max_filings * entries) 0 and total = ref 0 in
  for owner = 0 to entries - 1 do
    let p = Probe.signature config.params roster.(owner) in
    store ~stride filters counts owner p;
    Array.iter
      (fun key ->
        filings.(!total) <- (key lsl owner_bits) lor owner;
        incr total)
      p.keys
  done;
  let total = !total in
  sort_by_key filings total;
  let filings = if total = Array.length filings then filings else Array.sub filings 0 total in
  let distinct = ref 0 in
  for i = 0 to total - 1 do
    if i = 0 || filings.(i) lsr owner_bits <> filings.(i - 1) lsr owner_bits then incr distinct
  done;
  let keys = Array.make !distinct 0 and offsets = Array.make (!distinct + 1) total in
  let b = ref 0 in
  for i = 0 to total - 1 do
    let key = filings.(i) lsr owner_bits in
    if i = 0 || key <> keys.(!b - 1) then begin
      keys.(!b) <- key;
      offsets.(!b) <- i;
      incr b
    end;
    filings.(i) <- filings.(i) land owner_mask
  done;
  { config; entries; stride; filters; counts; keys; offsets; members = filings }

let config t = t.config
let entries t = t.entries

let compatible t (p : Probe.t) =
  let bits = t.config.params.bits in
  p.bits = bits && p.hashes = t.config.params.hashes
  && Bitvec.length p.first = bits && Bitvec.length p.last = bits
  && Bitvec.length p.dob = bits && Bitvec.length p.zip = bits

(* Index of [key] in the sorted bucket keys, or -1. *)
let find_bucket (keys : int array) key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length keys && keys.(!lo) = key then !lo else -1

(* Per-domain scratch, reused by every resolve on that domain whichever
   resolver it runs against: the daemon's worker domains share one [t] but
   never a scratch, and a resolve calls out to nothing that could start
   another on the same domain.  [seen.(o) = stamp] marks owner [o] as
   gathered by the current resolve, so no per-call buffer is cleared or
   allocated. *)
type scratch = {
  mutable probe : Bytes.t;  (* the probe's four filters, laid out as one signature *)
  probe_counts : int array;
  mutable seen : int array;
  mutable stamp : int;
  mutable gathered : int array;  (* candidate owners of the current resolve *)
  mutable top_owner : int array;  (* the best candidates so far, best first *)
  mutable top_score : float array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        probe = Bytes.empty;
        probe_counts = Array.make 4 0;
        seen = [||];
        stamp = 0;
        gathered = [||];
        top_owner = [||];
        top_score = [||];
      })

let scratch t ~slots =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.seen < t.entries then begin
    s.seen <- Array.make t.entries 0;
    s.gathered <- Array.make t.entries 0
  end;
  if Bytes.length s.probe < 4 * t.stride then s.probe <- Bytes.create (4 * t.stride);
  if Array.length s.top_owner < slots then begin
    s.top_owner <- Array.make slots 0;
    s.top_score <- Array.make slots 0.0
  end;
  s.stamp <- s.stamp + 1;
  s

let[@inline] gather s owner count =
  if s.seen.(owner) = s.stamp then count
  else begin
    s.seen.(owner) <- s.stamp;
    s.gathered.(count) <- owner;
    count + 1
  end

(* Field weights mirror Linkage.field_score with gender dropped (it is
   not encoded) and its share redistributed: names 50%, dob 30%, zip 20%.
   Weights renormalize over the probe's non-empty filters so a partial
   probe is scored on what it actually states. *)
let weights = [| 0.25; 0.25; 0.30; 0.20 |]

let[@inline] popcount x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

(* Bits set in both [len]-byte filters, [a] from [ia] and [b] from [ib]. *)
let common a ia b ib len =
  let acc = ref 0 in
  let w = ref 0 in
  while !w < len do
    acc :=
      !acc
      + popcount (Int64.logand (Bytes.get_int64_ne a (ia + !w)) (Bytes.get_int64_ne b (ib + !w)));
    w := !w + 8
  done;
  !acc

let[@inline] beats s i score owner =
  score > s.top_score.(i) || (score = s.top_score.(i) && owner < s.top_owner.(i))

(* Score the [scanned] gathered candidates and keep the best [slots] at or
   above the threshold in [s.top_*], best first (score descending, owner
   ascending on ties); returns how many slots filled.  Each score sums
   w_f * 2|p_f & s_f| / (|p_f| + |s_f|) over the probe's non-empty fields in
   field order, divides by their weight [total] and rounds to 1e-4 so it
   survives the wire's basis-point encoding bit-exactly. *)
let scan t s ~scanned ~slots ~total =
  let threshold = t.config.match_threshold in
  let filled = ref 0 in
  for c = 0 to scanned - 1 do
    let owner = s.gathered.(c) in
    let score =
      if total = 0.0 then 0.0
      else begin
        let acc = ref 0.0 in
        for f = 0 to 3 do
          let pc = s.probe_counts.(f) in
          if pc > 0 then begin
            let i = (4 * owner) + f in
            let both = common s.probe (f * t.stride) t.filters (i * t.stride) t.stride in
            acc :=
              !acc
              +. (weights.(f) *. (2.0 *. float_of_int both /. float_of_int (pc + t.counts.(i))))
          end
        done;
        Float.round (!acc /. total *. 10000.) /. 10000.
      end
    in
    if score >= threshold && (!filled < slots || beats s (slots - 1) score owner) then begin
      let i = ref (if !filled < slots then !filled else slots - 1) in
      while !i > 0 && beats s (!i - 1) score owner do
        s.top_score.(!i) <- s.top_score.(!i - 1);
        s.top_owner.(!i) <- s.top_owner.(!i - 1);
        decr i
      done;
      s.top_score.(!i) <- score;
      s.top_owner.(!i) <- owner;
      if !filled < slots then incr filled
    end
  done;
  !filled

type resolved = {
  owner : int;
  score : float;
}

type outcome = {
  candidates : resolved list;
  scanned : int;
  buckets_hit : int;
}

let resolve t (probe : Probe.t) ~k =
  if k <= 0 then invalid_arg "Resolver.resolve: k must be positive";
  if not (compatible t probe) then invalid_arg "Resolver.resolve: incompatible probe geometry";
  let n = t.entries in
  if n = 0 then { candidates = []; scanned = 0; buckets_hit = 0 }
  else begin
    let s = scratch t ~slots:(min k n) in
    let count = ref 0 and buckets_hit = ref 0 in
    for i = 0 to Array.length probe.keys - 1 do
      let b = find_bucket t.keys probe.keys.(i) in
      if b >= 0 then begin
        incr buckets_hit;
        for j = t.offsets.(b) to t.offsets.(b + 1) - 1 do
          count := gather s t.members.(j) !count
        done
      end
    done;
    (* Candidate-set padding: always score at least [min_scan] signatures,
       topping the bucket harvest up with decoys drawn deterministically
       from the probe hash, so scan size (and its timing) does not reveal
       how rare the probed name is. *)
    let target = min t.config.min_scan n in
    if !count < target then begin
      let rng = Rng.create (Probe.routing_hash probe) in
      while !count < target do
        count := gather s (Rng.int rng n) !count
      done
    end;
    (* Zeroed first: a filter's padding up to the word must read as 0. *)
    Bytes.fill s.probe 0 (4 * t.stride) '\000';
    store ~stride:t.stride s.probe s.probe_counts 0 probe;
    let total = ref 0.0 in
    for f = 0 to 3 do
      if s.probe_counts.(f) > 0 then total := !total +. weights.(f)
    done;
    let filled = scan t s ~scanned:!count ~slots:(min k !count) ~total:!total in
    let candidates = ref [] in
    for i = filled - 1 downto 0 do
      candidates := { owner = s.top_owner.(i); score = s.top_score.(i) } :: !candidates
    done;
    { candidates = !candidates; scanned = !count; buckets_hit = !buckets_hit }
  end
