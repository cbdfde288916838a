#!/usr/bin/env python3
"""Same-session A/B ratios from the perfbench ledger.

    scripts/ledger_ratios.py [LEDGER]

LEDGER defaults to bench/ledger.jsonl.  scripts/abtest.sh appends one row
per run, naming its session, workload, pair and role (base or head).
Absolute values drift between sessions by more than the bounds allow, so
a head row is compared only with the base row of the same session,
workload and pair.  For each session, workload and metric this prints the
median head/base ratio over the pairs, the pair count, and the pairs head
won (by the metric's direction in BENCHMARK.json; ties count for neither).
Rows without a session (written before abtest recorded one) are skipped.
"""

import collections
import json
import os
import statistics
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ledger = sys.argv[1] if len(sys.argv) > 1 else os.path.join(root, "bench", "ledger.jsonl")
with open(os.path.join(root, "BENCHMARK.json")) as f:
    lower_is_better = {m["name"]: m["better"] == "lower" for m in json.load(f)["end_to_end"]}

pairs = collections.defaultdict(dict)
with open(ledger) as f:
    for line in f:
        r = json.loads(line)
        if "session" in r:
            pairs[r["session"], r["workload"], r["pair"]][r["role"]] = r["metrics"]

ratios = collections.defaultdict(list)
wins = collections.Counter()
for (session, workload, _), p in pairs.items():
    if len(p) != 2:
        continue
    for metric, v in p["head"].items():
        head, base = v["value"], p["base"][metric]["value"]
        if not base:
            continue
        ratios[session, workload, metric].append(head / base)
        if head != base and (head < base) == lower_is_better.get(metric, True):
            wins[session, workload, metric] += 1

print("session workload metric median_ratio pairs head_won")
for key, rs in sorted(ratios.items()):
    print(*key, f"{statistics.median(rs):.3f}", len(rs), wins[key])
