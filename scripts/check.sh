#!/bin/sh
# Full repository check: build, tests, and a short multicore-scaling smoke.
# This is exactly what CI runs; run it locally before pushing.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

# A ~5 s smoke of the scaling bench: small n, 1 and 2 domains. Exercises the
# domain pool, the bit-sliced CountBelow, the comparator memo, and the
# bench's own gates (it exits non-zero if the construction differs across
# domain counts or any identity's CountBelow output differs from a per-gate
# Gmw.execute of the comparator).
echo "== scaling smoke =="
SCALING_N=200 SCALING_M=6 SCALING_DOMAINS=1,2 dune exec bench/main.exe -- scaling
rm -f BENCH_construct.json

# A ~5 s smoke of the serving bench: tiny index, short replay, one
# Serve.query call per request. Exercises the postings compiler, admission
# control under a manual clock, the telemetry-overhead daemons and the
# bench's reply-equality + shed-conservation assertions; the bench exits
# non-zero unless every gate on its BENCH_serve.json holds.
echo "== serve smoke =="
SERVE_N=120 SERVE_M=64 SERVE_QUERIES=4000 SERVE_TELEMETRY_QUERIES=2000 \
  dune exec bench/main.exe -- serve
rm -f BENCH_serve.json

# A ~5 s smoke of the tracing layer (docs/OBSERVABILITY.md): trace a small
# secure 2-domain construction end to end, then check the emitted Chrome
# trace-event JSON parses and actually contains what the instrumentation
# promises — complete spans for all three construction phases, GMW spans
# with byte accounting, and one counter track per pool worker.
echo "== trace smoke =="
dune exec bin/eppi_cli.exe -- generate --owners 60 --providers 12 --seed 3 \
  -o /tmp/eppi_trace_dataset.csv >/dev/null
dune exec bin/eppi_cli.exe -- construct -d /tmp/eppi_trace_dataset.csv \
  --secure --domains 2 --trace /tmp/eppi_trace.json -o /tmp/eppi_trace_index.csv
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("/tmp/eppi_trace.json") as f:
    events = json.load(f)["traceEvents"]
def spans(name):
    b = sum(1 for e in events if e["name"] == name and e["ph"] == "B")
    e = sum(1 for e in events if e["name"] == name and e["ph"] == "E")
    return b, e
for phase in ("phase.beta", "phase.mixing", "phase.publish"):
    b, e = spans(phase)
    if b < 1 or b != e:
        raise SystemExit(f"trace: {phase} has {b} begins / {e} ends")
gb, ge = spans("gmw.execute")
if gb < 1 or gb != ge:
    raise SystemExit(f"trace: gmw.execute has {gb} begins / {ge} ends")
if not any(e["name"] == "gmw.execute" and e["ph"] == "E" and "bytes" in e.get("args", {})
           for e in events):
    raise SystemExit("trace: gmw.execute spans carry no bytes accounting")
workers = {e["name"] for e in events if e["ph"] == "C" and e["name"].startswith("pool/worker-")}
if len(workers) < 2:
    raise SystemExit(f"trace: expected counter tracks for 2 pool workers, got {sorted(workers)}")
print(f"trace ok: {len(events)} events, pool counters {sorted(workers)}")
EOF
fi
rm -f /tmp/eppi_trace_dataset.csv /tmp/eppi_trace_index.csv

# A ~5 s smoke of the network front-end (docs/SERVE.md): start the daemon
# on a Unix socket, drive 100 pipelined queries and
# two hot-swap republishes through `eppi query`/`eppi republish`, assert
# the metrics conserve every request and record the swaps, then shut down
# gracefully and check that the daemon exits 0 and leaves no socket file
# behind.  Then 20 daemons are shut down the moment their socket appears:
# the socket file is created only once it accepts connections.
echo "== net smoke =="
EPPI=./_build/default/bin/eppi_cli.exe
NET_DIR=$(mktemp -d /tmp/eppi_net_smoke.XXXXXX)
NET_SOCK="$NET_DIR/eppi.sock"
trap 'rm -rf "$NET_DIR"' EXIT
"$EPPI" generate --owners 80 --providers 24 --seed 5 -o "$NET_DIR/net.csv" >/dev/null
"$EPPI" construct -d "$NET_DIR/net.csv" -o "$NET_DIR/index1.csv" 2>/dev/null
"$EPPI" construct -d "$NET_DIR/net.csv" --seed 9 --policy basic -o "$NET_DIR/index2.csv" 2>/dev/null
# The daemon has one domain and no worker flags: an old invocation with
# --domains fails loudly (over --stdio with no input, so a daemon that
# accepted the flag would exit 0 at once instead of hanging the check).
if "$EPPI" serve -i "$NET_DIR/index1.csv" --stdio --domains 2 </dev/null >/dev/null 2>&1; then
  echo "net smoke: eppi serve --domains must be refused" >&2
  exit 1
fi
"$EPPI" serve -i "$NET_DIR/index1.csv" --listen "$NET_SOCK" \
  >"$NET_DIR/server.json" 2>"$NET_DIR/server.log" &
NET_PID=$!
# The daemon creates its socket once the index is loaded, and a client
# dials once: wait for the socket before the first command.
i=0
while [ ! -S "$NET_SOCK" ] && [ "$i" -lt 50 ]; do sleep 0.1; i=$((i + 1)); done
test -S "$NET_SOCK"
# 100 queries: two rounds of 50, pipelined over one connection each, with a
# hot-swap republish in between (generation 1 -> 2, queries keep flowing),
# then a second republish back to index1 (generation 3).
seq 0 49 | sed 's/^/--owner /' | xargs "$EPPI" query --connect "$NET_SOCK" >"$NET_DIR/replies1.txt"
"$EPPI" republish --connect "$NET_SOCK" -i "$NET_DIR/index2.csv" \
  | grep -q "republished 1/1 replicas at generation 2"
seq 0 49 | sed 's/^/--owner /' | xargs "$EPPI" query --connect "$NET_SOCK" >"$NET_DIR/replies2.txt"
"$EPPI" republish --connect "$NET_SOCK" -i "$NET_DIR/index1.csv" \
  | grep -q "republished 1/1 replicas at generation 3"
test "$(wc -l < "$NET_DIR/replies1.txt")" -eq 50
test "$(wc -l < "$NET_DIR/replies2.txt")" -eq 50
"$EPPI" stats --connect "$NET_SOCK" >"$NET_DIR/stats.json"
# One status document (docs/OBSERVABILITY.md): the counters and the live
# telemetry come from the same `eppi stats` reply, which must list exactly
# the decode, execute and flush stages, hold their conservation law as an
# exact integer identity and carry no workers key; `top --json` prints a
# document with the same keys, and the watch mode produces bounded output.
"$EPPI" top --connect "$NET_SOCK" --json >"$NET_DIR/top.json"
"$EPPI" stats --connect "$NET_SOCK" --watch 0.2 --iterations 2 >"$NET_DIR/watch.txt"
test "$(wc -l < "$NET_DIR/watch.txt")" -eq 2
grep -q "queries" "$NET_DIR/watch.txt"
# After 100 queries both watch lines carry a measured p50 and p99, not "-".
test "$(grep -cE 'p50 [0-9.]+[nmu]?s  p99 [0-9.]+[nmu]?s$' "$NET_DIR/watch.txt")" -eq 2
if command -v python3 >/dev/null 2>&1; then
  NET_STATS="$NET_DIR/stats.json" NET_TOP="$NET_DIR/top.json" python3 - <<'EOF'
import json, os
with open(os.environ["NET_STATS"]) as f:
    m = json.load(f)
if m["queries"] != m["served"] + m["unknown"] + m["shed_rate"] + m["shed_queue"]:
    raise SystemExit(f"net: request conservation violated: {m}")
if m["queries"] < 100:
    raise SystemExit(f"net: expected >= 100 queries, got {m['queries']}")
if m["generation"] != 3:
    raise SystemExit(f"net: expected generation 3 after republishes, got {m['generation']}")
if m["swaps"] != m["generation"] - 1:
    raise SystemExit(f"net: swaps should count the {m['generation'] - 1} republishes: {m}")
if "workers" in m:
    raise SystemExit(f"net: stats should have no workers key: {m['workers']}")
if "dropped" not in m["trace"]:
    raise SystemExit("net: stats reply lacks trace.dropped")
c = m["conservation"]
if not c["exact"] or c["stage_sum_ns"] != c["total_ns"]:
    raise SystemExit(f"net: telemetry stage conservation violated: {c}")
if m["requests"] < 100:
    raise SystemExit(f"net: telemetry saw {m['requests']} requests, expected >= 100")
stages = [k for k in m["stages"] if k not in ("total", "sum_ns")]
if stages != ["decode", "execute", "flush"]:
    raise SystemExit(f"net: telemetry should list decode, execute, flush: {stages}")
if m["stages"]["decode"]["count"] != m["stages"]["flush"]["count"]:
    raise SystemExit(f"net: stage counts disagree: {m['stages']}")
if not m["slow"]:
    raise SystemExit("net: slow-request ring is empty after load")
def paths(v, prefix=""):
    if isinstance(v, dict):
        return {p for k, x in v.items() for p in paths(x, prefix + k + ".")} | {prefix}
    if isinstance(v, list):
        return {p for x in v for p in paths(x, prefix + "*.")} | {prefix}
    return {prefix}
with open(os.environ["NET_TOP"]) as f:
    t = json.load(f)
if paths(t) != paths(m):
    raise SystemExit(f"net: top --json and stats differ in keys: {paths(t) ^ paths(m)}")
print(f"net stats ok: {m['queries']} queries conserved, generation {m['generation']}, "
      f"{m['swaps']} swap(s)")
print(f"net telemetry ok: {m['requests']} requests, stage sum {c['stage_sum_ns']} ns "
      f"== total {c['total_ns']} ns (exact); top --json has the same keys")
EOF
fi
"$EPPI" shutdown --connect "$NET_SOCK" 2>/dev/null
wait "$NET_PID"
test ! -e "$NET_SOCK"
# The socket appears only once the daemon accepts: a shutdown sent the
# moment it appears (polled every 2 ms) reaches the daemon every time.
for k in $(seq 1 20); do
  "$EPPI" serve -i "$NET_DIR/index1.csv" --listen "$NET_SOCK" 2>/dev/null >/dev/null &
  NET_PID=$!
  i=0
  while [ ! -S "$NET_SOCK" ] && [ "$i" -lt 2500 ]; do sleep 0.002; i=$((i + 1)); done
  "$EPPI" shutdown --connect "$NET_SOCK" 2>/dev/null || {
    echo "net smoke: start $k refused a shutdown sent as its socket appeared" >&2
    exit 1
  }
  wait "$NET_PID"
done
echo "20 daemons shut down the moment their socket appeared"
rm -rf "$NET_DIR"
trap - EXIT

# A ~10 s smoke of the daemon's start-up peak (docs/PERF.md, "The
# daemon's start-up peak"): the reference index of 5,000 providers x
# 4,000 owners is a 190 MB CSV of 20 M cells, and a daemon that reads it
# a line at a time comes up and answers under a 1 GiB address-space cap
# (one that read the file into a list of its lines aborted there).  The
# reply must be owner 7's row of the file.
echo "== start-up peak smoke =="
BIG_DIR=$(mktemp -d /tmp/eppi_startup_smoke.XXXXXX)
BIG_SOCK="$BIG_DIR/eppi.sock"
trap 'rm -rf "$BIG_DIR"' EXIT
"$EPPI" generate --providers 5000 --owners 4000 --seed 5 -o "$BIG_DIR/net.csv" 2>/dev/null
"$EPPI" construct -d "$BIG_DIR/net.csv" -o "$BIG_DIR/index.csv" 2>/dev/null
(ulimit -v 1048576 && exec "$EPPI" serve -i "$BIG_DIR/index.csv" --listen "$BIG_SOCK") \
  >/dev/null 2>"$BIG_DIR/server.log" &
BIG_PID=$!
i=0
while [ ! -S "$BIG_SOCK" ] && kill -0 "$BIG_PID" 2>/dev/null && [ "$i" -lt 300 ]; do
  sleep 0.1
  i=$((i + 1))
done
test -S "$BIG_SOCK" || { cat "$BIG_DIR/server.log" >&2; exit 1; }
"$EPPI" query --connect "$BIG_SOCK" --owner 7 >"$BIG_DIR/reply.txt"
grep '^7,' "$BIG_DIR/index.csv" | cut -d, -f2 | paste -sd, - | cmp - "$BIG_DIR/reply.txt"
"$EPPI" shutdown --connect "$BIG_SOCK" 2>/dev/null
wait "$BIG_PID"
echo "a 190 MB index served under a 1 GiB address-space cap"
rm -rf "$BIG_DIR"
trap - EXIT

# A ~5 s smoke of the replication layer (docs/SERVE.md, "Replication"):
# three daemons sharing a --peers list form a replica set; a cluster
# republish fans the binary payload to all three, cluster-addressed
# queries keep answering through transparent failover while one replica
# is killed, a second fan-out with --require 2 succeeds on the
# survivors, and `top --json` over the set shows the survivors
# generation-converged with the dead replica reported down, not erroring.
echo "== cluster smoke =="
CLU_DIR=$(mktemp -d /tmp/eppi_cluster_smoke.XXXXXX)
trap 'rm -rf "$CLU_DIR"' EXIT
"$EPPI" generate --owners 80 --providers 24 --seed 5 -o "$CLU_DIR/net.csv" >/dev/null
"$EPPI" construct -d "$CLU_DIR/net.csv" -o "$CLU_DIR/index1.csv" 2>/dev/null
"$EPPI" construct -d "$CLU_DIR/net.csv" --seed 9 --policy basic -o "$CLU_DIR/index2.csv" 2>/dev/null
CLU_PEERS="$CLU_DIR/a.sock,$CLU_DIR/b.sock,$CLU_DIR/c.sock"
for r in a b c; do
  "$EPPI" serve -i "$CLU_DIR/index1.csv" --listen "$CLU_DIR/$r.sock" \
    --peers "$CLU_PEERS" >"$CLU_DIR/$r.json" 2>"$CLU_DIR/$r.log" &
done
for r in a b c; do
  i=0
  while [ ! -S "$CLU_DIR/$r.sock" ] && [ "$i" -lt 50 ]; do sleep 0.1; i=$((i + 1)); done
  test -S "$CLU_DIR/$r.sock"
done
# A republish names its replica set with --connect; the retired --cluster
# flag fails loudly instead of being ignored by an old script.
if "$EPPI" republish --cluster "$CLU_PEERS" -i "$CLU_DIR/index2.csv" >/dev/null 2>&1; then
  echo "cluster smoke: eppi republish --cluster must be refused" >&2
  exit 1
fi
"$EPPI" republish --connect "$CLU_PEERS" -i "$CLU_DIR/index2.csv" >"$CLU_DIR/repub1.txt"
grep -q "republished 3/3 replicas at generation 2" "$CLU_DIR/repub1.txt"
seq 0 49 | sed 's/^/--owner /' | xargs "$EPPI" query --connect "$CLU_PEERS" >"$CLU_DIR/replies1.txt"
test "$(wc -l < "$CLU_DIR/replies1.txt")" -eq 50
"$EPPI" shutdown --connect "$CLU_DIR/a.sock" 2>/dev/null
# The replica set still lists the dead daemon: queries must fail over
# transparently and the fan-out must report honest partial success.
seq 0 49 | sed 's/^/--owner /' | xargs "$EPPI" query --connect "$CLU_PEERS" >"$CLU_DIR/replies2.txt"
test "$(wc -l < "$CLU_DIR/replies2.txt")" -eq 50
"$EPPI" republish --connect "$CLU_PEERS" --require 2 -i "$CLU_DIR/index1.csv" >"$CLU_DIR/repub2.txt"
grep -q "republished 2/3 replicas at generation 3" "$CLU_DIR/repub2.txt"
"$EPPI" top --connect "$CLU_PEERS" --json >"$CLU_DIR/top.json"
# The table view shows a measured p50 and p99 for a survivor that served
# the failed-over queries.
"$EPPI" top --connect "$CLU_PEERS" --once >"$CLU_DIR/top.txt"
grep -Eq ' [0-9.]+[nmu]?s +[0-9.]+[nmu]?s$' "$CLU_DIR/top.txt"
# Addresses reach --json through the one JSON escaper: a backslash in a
# socket path still yields a parseable document.
"$EPPI" top --connect "$CLU_DIR/x\\q.sock,$CLU_DIR/y.sock" --json >"$CLU_DIR/odd.json"
if command -v python3 >/dev/null 2>&1; then
  CLU_TOP="$CLU_DIR/top.json" CLU_ODD="$CLU_DIR/odd.json" python3 - <<'EOF'
import json, os
with open(os.environ["CLU_ODD"]) as f:
    odd = json.load(f)
if [r["up"] for r in odd] != [False, False] or not odd[0]["addr"].endswith("x\\q.sock"):
    raise SystemExit(f"cluster: top --json over absent replicas: {odd}")
with open(os.environ["CLU_TOP"]) as f:
    rows = json.load(f)
if len(rows) != 3:
    raise SystemExit(f"cluster: top --json should list 3 replicas, got {len(rows)}")
down = [r for r in rows if not r["up"]]
up = [r for r in rows if r["up"]]
if len(down) != 1 or not down[0]["addr"].endswith("a.sock"):
    raise SystemExit(f"cluster: expected exactly the killed replica down: {rows}")
gens = {r["generation"] for r in up}
if gens != {3}:
    raise SystemExit(f"cluster: survivors not generation-converged: {rows}")
if any(r["peers"] != 3 for r in up):
    raise SystemExit(f"cluster: replicas should echo a 3-member peer list: {rows}")
print(f"cluster top ok: 1 down, survivors converged at generation {gens.pop()}")
EOF
fi
"$EPPI" shutdown --connect "$CLU_DIR/b.sock" 2>/dev/null
"$EPPI" shutdown --connect "$CLU_DIR/c.sock" 2>/dev/null
wait
test ! -e "$CLU_DIR/b.sock"
test ! -e "$CLU_DIR/c.sock"
rm -rf "$CLU_DIR"
trap - EXIT

# A ~5 s smoke of the network bench: tiny index, short replay, two pipeline
# depths, republishes under load, and the replica-kill scenario; the bench
# exits non-zero unless every gate on its BENCH_net.json holds.
echo "== net bench smoke =="
NET_N=120 NET_M=64 NET_QUERIES=3000 NET_DEPTHS=1,8 NET_SWAPS=5 \
  dune exec bench/main.exe -- net
rm -f BENCH_net.json

# A ~5 s smoke of the fuzzy lookup path (docs/FUZZY.md): generate a roster
# alongside the dataset, start the daemon with a resolver under an explicit
# linkage seed, resolve a planted owner through a clean probe and a typo'd
# one, assert a wrong seed resolves nothing, that --fuzzy without
# --linkage-seed is refused, and that the fuzzy metrics conserve; then shut
# down cleanly.  The two replies are kept in PIN_DIR for the md5 pins at the
# end: every candidate, score and provider row is pinned, not just the top.
echo "== fuzzy smoke =="
FUZ_DIR=$(mktemp -d /tmp/eppi_fuzzy_smoke.XXXXXX)
FUZ_SOCK="$FUZ_DIR/eppi.sock"
PIN_DIR=$(mktemp -d /tmp/eppi_pins.XXXXXX)
trap 'rm -rf "$FUZ_DIR" "$PIN_DIR"' EXIT
"$EPPI" generate --owners 80 --providers 24 --seed 5 -o "$FUZ_DIR/net.csv" \
  --roster "$FUZ_DIR/roster.csv" >/dev/null
"$EPPI" construct -d "$FUZ_DIR/net.csv" -o "$FUZ_DIR/index.csv" 2>/dev/null
"$EPPI" serve -i "$FUZ_DIR/index.csv" --listen "$FUZ_SOCK" \
  --roster "$FUZ_DIR/roster.csv" --linkage-seed 4242 \
  >"$FUZ_DIR/server.json" 2>"$FUZ_DIR/server.log" &
FUZ_PID=$!
i=0
while [ ! -S "$FUZ_SOCK" ] && [ "$i" -lt 50 ]; do sleep 0.1; i=$((i + 1)); done
test -S "$FUZ_SOCK"
# Owner 0's roster row (line 1 is the header): query it back verbatim,
# then with a corrupted first name — both must resolve to owner 0.
ROW=$(sed -n '2p' "$FUZ_DIR/roster.csv")
FIRST=$(printf '%s' "$ROW" | cut -d, -f2)
LAST=$(printf '%s' "$ROW" | cut -d, -f3)
DOB=$(printf '%s' "$ROW" | cut -d, -f4)
ZIP=$(printf '%s' "$ROW" | cut -d, -f5)
"$EPPI" query --connect "$FUZ_SOCK" --fuzzy --linkage-seed 4242 \
  --first "$FIRST" --last "$LAST" --dob "$DOB" --zip "$ZIP" >"$PIN_DIR/exact.txt"
head -n1 "$PIN_DIR/exact.txt" | grep -q "^0 1.0000"
"$EPPI" query --connect "$FUZ_SOCK" --fuzzy --linkage-seed 4242 \
  --first "${FIRST%?}x" --last "$LAST" --dob "$DOB" >"$PIN_DIR/typo.txt"
head -n1 "$PIN_DIR/typo.txt" | grep -q "^0 "
if "$EPPI" query --connect "$FUZ_SOCK" --fuzzy --linkage-seed 9999 \
  --first "$FIRST" --last "$LAST" --dob "$DOB" >/dev/null 2>&1; then
  echo "fuzzy smoke: a probe under the wrong linkage seed must not resolve" >&2
  exit 1
fi
if "$EPPI" query --connect "$FUZ_SOCK" --fuzzy --first "$FIRST" >/dev/null 2>&1; then
  echo "fuzzy smoke: --fuzzy without --linkage-seed must be refused" >&2
  exit 1
fi
"$EPPI" stats --connect "$FUZ_SOCK" >"$FUZ_DIR/stats.json"
if command -v python3 >/dev/null 2>&1; then
  FUZ_STATS="$FUZ_DIR/stats.json" python3 - <<'EOF'
import json, os
with open(os.environ["FUZ_STATS"]) as f:
    m = json.load(f)
total = (m["fuzzy_resolved"] + m["fuzzy_empty"] + m["fuzzy_rejected"] + m["fuzzy_shed"])
if m["fuzzy_queries"] != total:
    raise SystemExit(f"fuzzy: request conservation violated: {m}")
if m["fuzzy_resolved"] < 2 or m["fuzzy_empty"] < 1:
    raise SystemExit(f"fuzzy: expected 2+ resolved and 1+ empty, got {m}")
print(f"fuzzy stats ok: {m['fuzzy_queries']} queries conserved, "
      f"{m['fuzzy_resolved']} resolved, {m['fuzzy_scanned']} signatures scanned")
EOF
fi
"$EPPI" shutdown --connect "$FUZ_SOCK" 2>/dev/null
wait "$FUZ_PID"
test ! -e "$FUZ_SOCK"
rm -rf "$FUZ_DIR"
trap 'rm -rf "$PIN_DIR"' EXIT

# A ~5 s smoke of the fuzzy bench: small roster, short query stream.  The
# bench exits non-zero unless recall@10 >= 0.9 at default noise, no
# generated frame contains a plaintext demographic byte, every probe scans
# at least min(min_scan, n) signatures (the padding floor), the
# disabled-tracing overhead stays under the bound and the fuzzy metrics
# conserve — the gates on its BENCH_fuzzy.json.
echo "== fuzzy bench smoke =="
FUZZY_N=300 FUZZY_M=64 FUZZY_QUERIES=600 dune exec bench/main.exe -- fuzzy
rm -f BENCH_fuzzy.json

# A ~5 s smoke of the fault-tolerant construction (docs/ROBUSTNESS.md):
# the chaos bench sweeps drop rates and crashes a provider mid-SecSumShare
# and a coordinator mid-MPC.  The bench exits non-zero unless every lossy
# run is bit-identical to the lossless baseline and every crash run comes
# back Degraded with the epsilon contract intact over the survivors.
echo "== chaos smoke =="
CHAOS_N=40 CHAOS_M=10 CHAOS_DROPS=0.05,0.1 dune exec bench/main.exe -- chaos
rm -f BENCH_chaos.json

# The CLI's secure path is one construction whatever the flags: the pool
# size and injected loss change how it executes, never what it publishes.
# With epsilon = 0.3 lambda stays below 1, so decoys are drawn at random
# and a run on a different rng stream would publish a different index.
echo "== secure index bit-identity =="
SEC_DIR=$(mktemp -d /tmp/eppi_secure_smoke.XXXXXX)
trap 'rm -rf "$SEC_DIR" "$PIN_DIR"' EXIT
"$EPPI" generate --owners 200 --providers 40 --epsilon 0.3 --seed 5 \
  -o "$SEC_DIR/net.csv" 2>/dev/null
"$EPPI" construct -d "$SEC_DIR/net.csv" --secure -o "$SEC_DIR/plain.csv" 2>"$SEC_DIR/plain.log"
grep -q 'lambda=0\.' "$SEC_DIR/plain.log" || { cat "$SEC_DIR/plain.log"; exit 1; }
"$EPPI" construct -d "$SEC_DIR/net.csv" --secure --domains 2 -o "$SEC_DIR/domains.csv" 2>/dev/null
"$EPPI" construct -d "$SEC_DIR/net.csv" --secure --drop 0.05 -o "$SEC_DIR/drop.csv" 2>/dev/null
cmp "$SEC_DIR/plain.csv" "$SEC_DIR/domains.csv"
cmp "$SEC_DIR/plain.csv" "$SEC_DIR/drop.csv"
echo "secure, --domains 2 and --drop 0.05 publish the same index"
# 65,600 providers put q (65,609) above 2^16, so SecSumShare packs its
# residues 4 bytes wide instead of 2: the same contract on that path.
"$EPPI" generate --owners 24 --providers 65600 --epsilon 0.3 --seed 5 \
  -o "$SEC_DIR/wide.csv" 2>/dev/null
"$EPPI" construct -d "$SEC_DIR/wide.csv" --secure -o "$SEC_DIR/wide_plain.csv" 2>/dev/null
"$EPPI" construct -d "$SEC_DIR/wide.csv" --secure --drop 0.05 \
  -o "$SEC_DIR/wide_drop.csv" 2>/dev/null
cmp "$SEC_DIR/wide_plain.csv" "$SEC_DIR/wide_drop.csv"
echo "wide residues: secure and --drop 0.05 publish the same index"
# Without --epsilon every owner draws its own epsilon, so these 200 owners
# carry 35 distinct CountBelow thresholds, all classified by one comparator
# over consecutive lanes: the same contract across many thresholds.
"$EPPI" generate --owners 200 --providers 40 --seed 5 -o "$SEC_DIR/many.csv" 2>/dev/null
"$EPPI" construct -d "$SEC_DIR/many.csv" --secure -o "$SEC_DIR/many_plain.csv" 2>/dev/null
"$EPPI" construct -d "$SEC_DIR/many.csv" --secure --drop 0.05 \
  -o "$SEC_DIR/many_drop.csv" 2>/dev/null
cmp "$SEC_DIR/many_plain.csv" "$SEC_DIR/many_drop.csv"
echo "many thresholds: secure and --drop 0.05 publish the same index"
# Generation, secure construction and fuzzy resolution are seeded end to
# end, so their outputs are pinned: a change to the RNG stream, to any draw
# order or to the fuzzy scorer fails here at CLI scale, not only in the
# unit-test digests.
for pin in "$SEC_DIR/net.csv 94626dc6949c149c8c4c74789ce876b3" \
  "$SEC_DIR/plain.csv 2c6834eb2b78c776effad638730b8155" \
  "$SEC_DIR/wide.csv 79122ad3c30f1671362fc04fdfda45a9" \
  "$SEC_DIR/wide_plain.csv 7bc42e450adf647ac9add36bf7b37dc3" \
  "$SEC_DIR/many.csv 8b1c4a8422ea748b459ce04a3ba8dd1d" \
  "$SEC_DIR/many_plain.csv 4bca114bb3713724ebb0993803da3018" \
  "$PIN_DIR/exact.txt 2c7966e3fa4fb04f8e730c5249ed4ee2" \
  "$PIN_DIR/typo.txt 1da749c6f0d12bab7b88f298598b5958"; do
  set -- $pin
  got=$(md5sum "$1" | cut -d' ' -f1)
  [ "$got" = "$2" ] || { echo "$(basename "$1"): md5 $got, pinned $2"; exit 1; }
done
echo "net.csv, plain.csv, wide.csv, wide_plain.csv, many.csv, many_plain.csv and the fuzzy" \
  "replies match their pinned md5s"
rm -rf "$SEC_DIR" "$PIN_DIR"
trap - EXIT

echo "== check.sh: all green =="
