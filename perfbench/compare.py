"""Summarize or compare saved outputs of perfbench/run.py.

    python3 perfbench/compare.py RUNS.txt
    python3 perfbench/compare.py BASE.txt NEW.txt

A file holds the standard output of one or more runs, concatenated.
Given one file, prints per workload and metric the median of the runs,
the distance between the first and third quartile as a share of the
median, and the bound from BENCHMARK.json.  Given two, prints the change
of each median from BASE to NEW and marks a change worse than the bound
as a regression (exit 1).  Runs that measured different kernel backends
are not comparable: a comparison whose files disagree on the backend is
refused with exit 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_runs(path):
    """(meta, result) pairs; meta is the 'meta' line printed before the result."""
    runs, meta = [], None
    for line in Path(path).read_text().splitlines():
        if line.startswith("meta "):
            meta = json.loads(line[5:])
        elif line.startswith("{") and meta is not None:
            runs.append((meta, json.loads(line)))
            meta = None
    return runs


def medians(runs):
    """{workload: {metric: [values]}} and the backends seen."""
    values = defaultdict(lambda: defaultdict(list))
    backends = set()
    for meta, result in runs:
        backends.add((meta["backend"], tuple(meta["available_backends"])))
        for name, m in result["metrics"].items():
            values[meta["workload"]][name].append(m["value"])
    return values, backends


def spread(vals):
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [read_runs(p) for p in argv]
    failed = [r for runs in sets for _, r in runs if not r["correct"]]
    if failed:
        print(f"{len(failed)} run(s) reported wrong outputs")
    if len(sets) == 1:
        values, backends = medians(sets[0])
        print(f"backends {sorted(backends)}")
        print(f"{'workload':9} {'metric':44} {'runs':>4} {'median':>14} {'spread':>7} {'bound':>6}")
        for workload, per in values.items():
            for name, vals in per.items():
                bound = metrics[name].get("bound")
                print(
                    f"{workload:9} {name:44} {len(vals):4} {statistics.median(vals):14.6g} "
                    f"{spread(vals):7.3f} {'' if bound is None else bound:>6}"
                )
        return 1 if failed else 0

    (base, base_backends), (new, new_backends) = (medians(s) for s in sets)
    if base_backends != new_backends:
        print(f"refused: backends differ, {sorted(base_backends)} vs {sorted(new_backends)}")
        return 2
    regressions = 0
    print(f"{'workload':9} {'metric':44} {'base':>14} {'new':>14} {'change':>8} verdict")
    for workload, per in base.items():
        for name, vals in per.items():
            if name not in new.get(workload, {}):
                continue
            b, n = statistics.median(vals), statistics.median(new[workload][name])
            change = (n - b) / b if b else 0.0
            m = metrics[name]
            worse = change if m["better"] == "lower" else -change
            verdict = ""
            if "bound" in m:
                verdict = "regression" if worse > m["bound"] else "ok"
                regressions += verdict == "regression"
            print(f"{workload:9} {name:44} {b:14.6g} {n:14.6g} {change:+8.3f} {verdict}")
    return 1 if regressions or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
