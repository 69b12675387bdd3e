#!/usr/bin/env python3
"""Spread of one set of bench_suite runs, or a paired comparison of two.

    python3 bench_suite/compare.py A.jsonl            # spread of A
    python3 bench_suite/compare.py A.jsonl B.jsonl    # B (change) vs A

Inputs are JSON-lines files written by `run.py --out`. Untraced runs
(--trace 0) give the end-to-end metrics, traced runs (--trace 1) the
per-layer ones.

One file: per workload and end-to-end metric, the median, quartiles and
spread (quartile distance over median) against the metric's bound in
BENCHMARK.json.

Two files: runs of A and B with the same workload and seed form a pair.
Per workload and end-to-end metric it prints both medians and quartiles,
the pairs B wins, and a verdict:
  improved      B wins at least 9/10 of the pairs and the medians differ
                by more than A's quartile distance, in B's favour;
  unresolved    A's own spread is wider than the bound and not every run
                of B reads better than every run of A;
  regressed     B's median is worse than A's by more than the bound;
  within bound  otherwise.
Then per-layer median deltas from the traced runs. Exits 1 when a run is
incorrect or a verdict reads "regressed".
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def summary(xs):
    q1, q3 = quartiles(xs)
    return f"{statistics.median(xs):.6g} [{q1:.4g}, {q3:.4g}]"


def by_workload(runs, trace):
    """{workload: {metric: [values in run order]}} and seeds per workload."""
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    for r in runs:
        if r["trace"] != trace:
            continue
        seeds[r["workload"]].append(r["seed"])
        for name, m in r["result"]["metrics"].items():
            values[r["workload"]][name].append(m["value"])
    return values, seeds


def better(spec, a, b):
    """Whether value b is strictly better than value a."""
    return b > a if spec["better"] == "higher" else b < a


def worse_share(spec, base, new):
    """How much worse new is than base, as a share of base (< 0: better)."""
    if base == 0:
        return 0.0
    d = (new - base) / base
    return -d if spec["better"] == "higher" else d


def check_correct(label, runs):
    bad = [r for r in runs if not r["result"]["correct"]]
    for r in bad:
        print(f"{label}: {r['workload']} seed {r['seed']} was incorrect "
              f"({r['result']['failed']} failed)")
    return not bad


def spread_report(spec, runs):
    values, _ = by_workload(runs, 0)
    print(f"{'workload':<12} {'metric':<14} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for w in sorted(values):
        for m in spec["end_to_end"]:
            xs = values[w].get(m["name"], [])
            if not xs:
                continue
            med = statistics.median(xs)
            q1, q3 = quartiles(xs)
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if spread <= m["bound"] / 3 else "  > bound/3"
            print(f"{w:<12} {m['name']:<14} {len(xs):>3} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {spread:>7.3f} "
                  f"{m['bound']:>6.2f}{flag}")


def verdict(spec, a, b, wins, pairs):
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    if (pairs and wins >= 0.9 * pairs and abs(med_b - med_a) > q3 - q1
            and better(spec, med_a, med_b)):
        return "improved"
    all_better = all(better(spec, x, y) for x in a for y in b)
    if med_a and (q3 - q1) / med_a > spec["bound"] and not all_better:
        return "unresolved"
    if worse_share(spec, med_a, med_b) > spec["bound"]:
        return "regressed"
    return "within bound"


def pair_wins(spec, a_vals, a_seeds, b_vals, b_seeds):
    """Pairs runs of A and B that share a seed, in run order."""
    pending = defaultdict(list)
    for v, s in zip(a_vals, a_seeds):
        pending[s].append(v)
    wins = pairs = 0
    for v, s in zip(b_vals, b_seeds):
        if pending[s]:
            base = pending[s].pop(0)
            pairs += 1
            wins += better(spec, base, v)
    return wins, pairs


def compare_report(spec, runs_a, runs_b):
    va, sa = by_workload(runs_a, 0)
    vb, sb = by_workload(runs_b, 0)
    regressed = False
    print(f"{'workload':<12} {'metric':<14} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'delta':>7} {'wins':>6}  verdict")
    for w in sorted(set(va) & set(vb)):
        for m in spec["end_to_end"]:
            a, b = va[w].get(m["name"]), vb[w].get(m["name"])
            if not a or not b:
                continue
            wins, pairs = pair_wins(m, a, sa[w], b, sb[w])
            v = verdict(m, a, b, wins, pairs)
            regressed |= v == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            delta = (med_b - med_a) / med_a if med_a else 0.0
            print(f"{w:<12} {m['name']:<14} {summary(a):>34} "
                  f"{summary(b):>34} {delta:>+7.1%} {wins:>3}/{pairs:<2}  {v}")

    la, _ = by_workload(runs_a, 1)
    lb, _ = by_workload(runs_b, 1)
    if set(la) & set(lb):
        print("\nper-layer medians (traced runs)")
    for w in sorted(set(la) & set(lb)):
        for m in spec["per_layer"]:
            a, b = la[w].get(m["name"]), lb[w].get(m["name"])
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            if med_a == 0 and med_b == 0:
                continue
            delta = f"{(med_b - med_a) / med_a:+.1%}" if med_a else "new"
            print(f"  {w:<12} {m['name']:<28} {med_a:>14.6g} -> "
                  f"{med_b:<14.6g} {delta} {m['unit']}")
    return regressed


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    runs = [load_runs(p) for p in sys.argv[1:]]
    for path, rs in zip(sys.argv[1:], runs):
        fps = {json.dumps(r["fingerprint"], sort_keys=True) for r in rs}
        print(f"{path}: {len(rs)} runs on {', '.join(sorted(fps))}")
    ok = all([check_correct(p, rs) for p, rs in zip(sys.argv[1:], runs)])
    if len(runs) == 1:
        spread_report(spec, runs[0])
        sys.exit(0 if ok else 1)
    regressed = compare_report(spec, runs[0], runs[1])
    sys.exit(0 if ok and not regressed else 1)


if __name__ == "__main__":
    main()
