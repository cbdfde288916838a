#!/usr/bin/env bash
# A/B benchmark of two git revisions through the lifecycle benchmark:
#
#   scripts/abtest.sh [-n PAIRS] [-s FIRST_SEED] [-w WORKLOAD] BASE [HEAD]
#
# Copies BASE and HEAD (default HEAD) out of this repository with
# `git archive` into a temporary directory, builds each, and runs PAIRS
# (default 10) alternating pairs per workload through each copy's own
# perfbench/run.sh, untraced, for BENCHMARK.json's run_seconds.  Pair i
# runs seed FIRST_SEED + i (default 101) on both sides; even pairs run BASE
# first, odd pairs HEAD first.  -w restricts the run to one workload
# (default: every workload in BENCHMARK.json).
#
# For every end-to-end metric it prints both medians, both sides'
# quartiles, the pairs HEAD won and a verdict: "worse" when HEAD's median
# is worse than BASE's by more than the metric's bound, "gain" when HEAD
# won at least 9 pairs in 10 and the medians differ by more than BASE's
# interquartile range, "unresolved" when that range is wider than the
# bound, "held" otherwise.  Every run's result object is
# appended to bench/ledger.jsonl with its rev, workload, seed, nproc and
# host, its role ("base" or "head"), both revs, its pair index and a
# session id shared by every row of this invocation
# (scripts/ledger_ratios.py prints each session's paired ratios), and
# the number of construction epochs the run fit, parsed from
# perfbench's "W: N epochs:" stderr line
# (epoch_peak_mb grows with it); the summary prints both sides' median
# epoch count.  Exits 1 if a metric is worse than
# its bound or a run is not correct, 2 on a usage or build error.
# perfbench/ is only read.
set -euo pipefail

usage() {
  echo "usage: scripts/abtest.sh [-n PAIRS] [-s FIRST_SEED] [-w WORKLOAD] BASE [HEAD]" >&2
  exit 2
}

pairs=10
first_seed=101
workload=""
while getopts "n:s:w:" opt; do
  case "$opt" in
    n) pairs=$OPTARG ;;
    s) first_seed=$OPTARG ;;
    w) workload=$OPTARG ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] && [ $# -le 2 ] || usage

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}") || usage
head=$(git -C "$root" rev-parse --verify "${2:-HEAD}^{commit}") || usage

work=$(mktemp -d "${TMPDIR:-/tmp}/abtest.XXXXXX")
trap 'rm -rf "$work"' EXIT
for rev in "$base" "$head"; do
  [ -d "$work/$rev" ] && continue
  mkdir "$work/$rev"
  git -C "$root" archive "$rev" | tar -x -C "$work/$rev"
  echo "abtest: building ${rev:0:12}" >&2
  (cd "$work/$rev" && DUNE_CACHE=disabled dune build --root . --display quiet \
    ./bin/eppi_cli.exe ./perfbench/main.exe) || exit 2
done

ROOT=$root WORK=$work BASE=$base HEAD=$head PAIRS=$pairs FIRST_SEED=$first_seed \
  WORKLOAD=$workload python3 - <<'EOF'
import json, os, re, socket, statistics, subprocess, sys, time, uuid

env = os.environ
root, work = env["ROOT"], env["WORK"]
base, head = env["BASE"], env["HEAD"]
pairs, first_seed = int(env["PAIRS"]), int(env["FIRST_SEED"])
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
workloads = [w["name"] for w in spec["workloads"]]
if env["WORKLOAD"]:
    if env["WORKLOAD"] not in workloads:
        sys.exit(f"abtest: unknown workload {env['WORKLOAD']}; BENCHMARK.json has {workloads}")
    workloads = [env["WORKLOAD"]]
metrics = spec["end_to_end"]
ledger = os.path.join(root, "bench", "ledger.jsonl")
nproc, host = os.cpu_count(), socket.gethostname()
session = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()) + "-" + uuid.uuid4().hex[:8]


def run(rev, workload, seed, pair, role):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=os.path.join(work, rev), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(f"abtest: {rev[:12]} {workload} seed {seed}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    found = re.search(rf"^perfbench: {re.escape(workload)}: (\d+) epochs:", proc.stderr, re.M)
    epochs = int(found.group(1)) if found else None
    row = {"rev": rev, "workload": workload, "seed": seed, "nproc": nproc, "host": host,
           "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "role": role, "base": base, "head": head,
           "pair": pair, "session": session, "epochs": epochs, **result}
    with open(ledger, "a") as f:
        f.write(json.dumps(row, separators=(",", ":")) + "\n")
    return result, epochs


def quartiles(vs):
    return statistics.quantiles(vs, n=4) if len(vs) >= 2 else [vs[0]] * 3


bad = False
for workload in workloads:
    results = {base: [], head: []}
    epochs = {base: [], head: []}
    for i in range(pairs):
        seed = first_seed + i
        order = (("base", base), ("head", head))
        for role, rev in (order if i % 2 == 0 else order[::-1]):
            r, n = run(rev, workload, seed, i, role)
            results[rev].append(r)
            if n is not None:
                epochs[rev].append(n)
            print(f"abtest: {workload} seed {seed} {rev[:12]}: correct={r['correct']} "
                  f"failed={r['failed']} epochs={n}", file=sys.stderr, flush=True)
    print(f"\n{workload}: {pairs} pairs, seeds {first_seed}-{first_seed + pairs - 1}, "
          f"base {base[:12]}, head {head[:12]}, nproc {nproc}, host {host}")
    print("  median epochs per run: " + ", ".join(
        f"{role} {statistics.median(epochs[rev]) if epochs[rev] else 'n/a'}"
        for role, rev in (("base", base), ("head", head))))
    for rev in (base, head):
        incorrect = [r for r in results[rev] if not r["correct"] or r["failed"]]
        if incorrect:
            bad = True
            print(f"  {rev[:12]}: {len(incorrect)} run(s) not correct or with failed operations")
    print(f"  {'metric':16s} {'base median':>12s} {'base q1-q3':>23s} {'head median':>12s} "
          f"{'head q1-q3':>23s} {'change':>8s} {'wins':>6s}  verdict")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in results[base]]
        h = [r["metrics"][name]["value"] for r in results[head]]
        bm, hm = statistics.median(b), statistics.median(h)
        bq, hq = quartiles(b), quartiles(h)
        wins = sum(1 for x, y in zip(b, h) if (y < x if lower else y > x))
        change = (hm - bm) / bm if bm else 0.0
        worse = change if lower else -change
        if worse > m["bound"]:
            verdict, bad = f"worse (bound {m['bound']:.0%})", True
        elif wins * 10 >= 9 * pairs and abs(hm - bm) > bq[2] - bq[0]:
            verdict = "gain"
        elif bq[2] - bq[0] > m["bound"] * abs(bm):
            verdict = "unresolved (BASE's IQR is wider than the bound)"
        else:
            verdict = "held"
        print(f"  {name:16s} {bm:12.6g} {bq[0]:11.6g}-{bq[2]:<11.6g} {hm:12.6g} "
              f"{hq[0]:11.6g}-{hq[2]:<11.6g} {change:+8.1%} {wins:3d}/{pairs:<2d}  {verdict}")
sys.exit(1 if bad else 0)
EOF
