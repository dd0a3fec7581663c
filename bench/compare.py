"""Compare two sets of benchmark runs, for example a parent commit and a change.

    python3 bench/compare.py parent.jsonl change.jsonl [--claim stability:run_s ...]

Each file is the JSONL that ``bench/run.py --out`` appends to.  For every
workload and metric it prints each side's sample count, median and
quartiles.  End-to-end metrics are checked against the bounds in
BENCHMARK.json: worse by more than the bound is a regression, and a metric
whose parent spread is wider than its bound is unresolved unless the two
sets do not overlap (every change run beats every parent run, or every
parent run beats every change run).  A claimed end-to-end metric (or
``fail_ratio``) is tested by the pair rule: at least 10 pairs of runs (the
i-th untraced run of the workload in each file), run in alternating order
(parent first, then change first, and so on, or the other way round), the
change winning at least 9 of every 10 pairs (ties count for neither), the
medians differing by more than the parent's interquartile range, and no more
failed operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def value(record, metric):
    if metric == "fail_ratio":
        return record["fail_ratio"]
    m = record["metrics"].get(metric)
    return None if m is None else m["value"]


def series(records, workload, trace, metric):
    vals = (value(r, metric) for r in records
            if r["workload"] == workload and r["trace"] == trace)
    return [v for v in vals if v is not None]


def worse(change, parent, better):
    """Relative amount by which change is worse than parent (negative: better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    rel = (change - parent) / abs(parent)
    return rel if better == "lower" else -rel


def claim_verdict(parent_recs, change_recs, workload, metric, better):
    p_runs = [r for r in parent_recs if r["workload"] == workload and r["trace"] == 0]
    c_runs = [r for r in change_recs if r["workload"] == workload and r["trace"] == 0]
    pairs = list(zip(p_runs, c_runs))
    if len(pairs) < MIN_PAIRS:
        return f"not met: {len(pairs)} pairs < {MIN_PAIRS}"
    pv = [value(p, metric) for p, _ in pairs]
    cv = [value(c, metric) for _, c in pairs]
    wins = sum(1 for p, c in zip(pv, cv) if p != c and (c < p) == (better == "lower"))
    ps, cs = summary(pv), summary(cv)
    gap = abs(cs["median"] - ps["median"])
    iqr = ps["q3"] - ps["q1"]
    failed_p = sum(p["failed"] for p, _ in pairs)
    failed_c = sum(c["failed"] for _, c in pairs)
    parent_first = [p["finished"] < c["finished"] for p, c in pairs]
    alternating = all(a != b for a, b in zip(parent_first, parent_first[1:]))
    ok = (alternating and wins >= WIN_SHARE * len(pairs) and gap > iqr
          and worse(cs["median"], ps["median"], better) < 0 and failed_c <= failed_p)
    return (f"{'MET' if ok else 'not met'}: wins {wins}/{len(pairs)}, median gap "
            f"{gap:.6g} vs parent IQR {iqr:.6g}, failed ops {failed_c} vs {failed_p}, "
            f"alternating order {'yes' if alternating else 'no'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--claim", action="append", default=[],
                    help="WORKLOAD:METRIC to test by the pair rule (repeatable)")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    better["fail_ratio"] = "lower"
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    claimable = [m["name"] for m in declared["end_to_end"]] + ["fail_ratio"]
    for claim in args.claim:
        if claim.partition(":")[2] not in claimable:
            ap.error(f"--claim {claim}: the pair rule applies to untraced runs, so the metric "
                     f"must be one of {', '.join(claimable)}")
    parent, change = load(args.parent), load(args.change)

    regressions = 0
    for w in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            metrics = ([m["name"] for m in declared["end_to_end"]] + ["fail_ratio"] if trace == 0
                       else [m["name"] for m in declared["per_layer"]])
            rows = []
            for metric in metrics:
                pv, cv = (series(parent, w, trace, metric), series(change, w, trace, metric))
                if not pv and not cv:
                    continue
                cells = []
                for vals in (pv, cv):
                    s = summary(vals) if vals else None
                    cells.append(f"n={s['n']:<3} {s['median']:<12.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
                                 if s else "n=0")
                verdict = ""
                if pv and cv and metric in bounds:
                    ps, cs = summary(pv), summary(cv)
                    rel = worse(cs["median"], ps["median"], better[metric])
                    spread = (ps["q3"] - ps["q1"]) / abs(ps["median"])
                    lower = better[metric] == "lower"
                    all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
                    all_worse = (min(cv) > max(pv)) if lower else (max(cv) < min(pv))
                    if spread > bounds[metric] and not (all_better or all_worse):
                        verdict = f"unresolved (parent spread {spread:.1%} > bound)"
                    elif rel > bounds[metric]:
                        verdict = f"REGRESSION {rel:+.1%} > {bounds[metric]:.0%}"
                        regressions += 1
                    else:
                        verdict = f"{rel:+.1%} within {bounds[metric]:.0%}"
                rows.append(f"  {metric:<42} {cells[0]:<44} {cells[1]:<44} {verdict}")
            if rows:
                print(f"{w} ({'traced' if trace else 'untraced'})"
                      f"   metric / parent n median [q1, q3] / change n median [q1, q3]")
                print("\n".join(rows))
        for side, recs in (("parent", parent), ("change", change)):
            overhead = series(recs, w, 1, "trace.overhead")
            if overhead:
                unresolved = " (unresolved: below the noise)" if min(overhead) <= 1.0 else ""
                print(f"  tracing overhead ({side}): traced / untraced pass run_s = "
                      f"{statistics.median(overhead):.3f} [{min(overhead):.3f}, {max(overhead):.3f}] "
                      f"over {len(overhead)} traced runs{unresolved}")
    for claim in args.claim:
        workload, metric = claim.split(":", 1)
        print(f"claim {workload}:{metric}: "
              f"{claim_verdict(parent, change, workload, metric, better[metric])}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
