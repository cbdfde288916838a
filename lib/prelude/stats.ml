let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty array";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.variance: empty array";
  if n = 1 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty array";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = quantile xs 0.5

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let summary xs =
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = Array.fold_left Float.min xs.(0) xs;
    max = Array.fold_left Float.max xs.(0) xs;
    p50 = quantile xs 0.5;
    p95 = quantile xs 0.95;
  }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.4f sd=%.4f min=%.4f p50=%.4f p95=%.4f max=%.4f"
    s.n s.mean s.stddev s.min s.p50 s.p95 s.max

module Log2_histogram = struct
  type t = {
    lo : float;
    counts : int array;
    mutable total : int;
    mutable sum : float;
  }

  let create ?(lo = 1e-9) ?(buckets = 64) () =
    if lo <= 0.0 then invalid_arg "Log2_histogram.create: lo must be positive";
    if buckets <= 0 then invalid_arg "Log2_histogram.create: buckets must be positive";
    { lo; counts = Array.make buckets 0; total = 0; sum = 0.0 }

  let bucket_of t x =
    if x <= t.lo then 0
    else begin
      let i = int_of_float (Float.floor (Float.log2 (x /. t.lo))) in
      if i < 0 then 0 else min (Array.length t.counts - 1) i
    end

  let add t x =
    let i = bucket_of t x in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. x

  let total t = t.total
  let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total
  let sum t = t.sum
  let counts t = Array.copy t.counts

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.total <- 0;
    t.sum <- 0.0

  let merge a b =
    if a.lo <> b.lo || Array.length a.counts <> Array.length b.counts then
      invalid_arg "Log2_histogram.merge: incompatible histograms";
    let t = { a with counts = Array.copy a.counts } in
    Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) b.counts;
    t.total <- a.total + b.total;
    t.sum <- a.sum +. b.sum;
    t

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Log2_histogram.quantile: q out of [0,1]";
    if t.total = 0 then 0.0
    else begin
      (* Rank of the q-th sample, then the geometric midpoint of its bucket. *)
      let rank = int_of_float (Float.ceil (q *. float_of_int t.total)) in
      let rank = max 1 rank in
      let seen = ref 0 and bucket = ref (Array.length t.counts - 1) in
      (try
         Array.iteri
           (fun i c ->
             seen := !seen + c;
             if !seen >= rank then begin
               bucket := i;
               raise Exit
             end)
           t.counts
       with Exit -> ());
      t.lo *. Float.pow 2.0 (float_of_int !bucket +. 0.5)
    end
end

module Windowed = struct
  (* A rolling window of [slots] sub-histograms, each covering [slot_ns] of
     wall time.  [add]/[snapshot] take the caller's clock so rotation is
     deterministic under test.  Slot [e mod slots] holds epoch [e]; advancing
     past a slot clears it before reuse, so stale data never leaks into a
     snapshot.  A backwards clock step (epoch < current) discards the window
     rather than mixing samples from two timelines. *)
  type t = {
    slot_ns : int;
    slots : Log2_histogram.t array;
    mutable epoch : int;  (* now_ns / slot_ns of the most recent touch *)
    mutable touched : bool;  (* false until the first add after create/clear *)
  }

  type summary = {
    count : int;
    rate : float;  (* samples per second over the whole window span *)
    mean : float;
    p50 : float;
    p99 : float;
    span_s : float;
  }

  let create ?(lo = 1e-9) ?(hist_buckets = 64) ?(slots = 10) ?(slot_ns = 1_000_000_000) () =
    if slots <= 0 then invalid_arg "Windowed.create: slots must be positive";
    if slot_ns <= 0 then invalid_arg "Windowed.create: slot_ns must be positive";
    {
      slot_ns;
      slots = Array.init slots (fun _ -> Log2_histogram.create ~lo ~buckets:hist_buckets ());
      epoch = 0;
      touched = false;
    }

  let clear_all t =
    Array.iter Log2_histogram.clear t.slots;
    t.touched <- false

  let rotate t ~now_ns =
    let e = now_ns / t.slot_ns in
    if not t.touched then t.epoch <- e
    else if e < t.epoch then begin
      (* Clock stepped backwards: the window's timeline is gone. *)
      clear_all t;
      t.epoch <- e
    end
    else if e > t.epoch then begin
      let n = Array.length t.slots in
      let stale = e - t.epoch in
      if stale >= n then clear_all t
      else
        for k = t.epoch + 1 to e do
          Log2_histogram.clear t.slots.(k mod n)
        done;
      t.epoch <- e
    end

  let add t ~now_ns x =
    rotate t ~now_ns;
    t.touched <- true;
    Log2_histogram.add t.slots.(t.epoch mod Array.length t.slots) x

  let span_s t = float_of_int (Array.length t.slots * t.slot_ns) /. 1e9

  let snapshot t ~now_ns =
    rotate t ~now_ns;
    let merged =
      Array.fold_left
        (fun acc h -> Log2_histogram.merge acc h)
        (Log2_histogram.create
           ~lo:t.slots.(0).Log2_histogram.lo
           ~buckets:(Array.length t.slots.(0).Log2_histogram.counts)
           ())
        t.slots
    in
    let count = Log2_histogram.total merged in
    let span = span_s t in
    {
      count;
      rate = (if count = 0 then 0.0 else float_of_int count /. span);
      mean = Log2_histogram.mean merged;
      p50 = Log2_histogram.quantile merged 0.5;
      p99 = Log2_histogram.quantile merged 0.99;
      span_s = span;
    }
end
