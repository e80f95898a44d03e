"""Self-test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric of BENCHMARK.json is produced and that no output is wrong.
Then plants faults that the correctness checks must catch: a wrong label
on members, a shifted instance on random, a corrupted cache column on
tables.  Last, it runs the benchmark command once on members, and once
in a directory that holds only BENCHMARK.json and perfbench/, where it
must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY = {
    "members": {"count": 8, "lo": 60, "hi": 120},
    "random": {"count": 8, "lo": 60, "hi": 120},
    "tables": {"limit": 40, "reads": 5, "grown": 50},
    "oracle": {"words": 8, "seq": 10, "brute": 8, "max_exp": 3},
}


def require(condition, message):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def tiny_runs(workloads, spec, tmp):
    e2e = [m["name"] for m in spec["end_to_end"] if m["name"] != "setup_s"]
    layers = [m["name"] for m in spec["per_layer"]]
    for name, sizes in TINY.items():
        workload = workloads[name](1, tmp, **sizes)
        passes = run.run_for(workload, 0.05, run.Speed())
        values, _ = run.end_to_end(passes)
        require(passes.failed == 0, f"{name}: {passes.failed} wrong outputs")
        require(all(values[m] > 0 for m in e2e), f"{name}: end-to-end metrics {values}")

        values, _, runs = run.traced_layers(workload, 0.05, layers, run.Speed())
        require(sum(r.failed for r in runs) == 0, f"{name}: wrong outputs while traced")
        missing = [m for m in layers if m not in values and not m.startswith("setup.")]
        require(not missing, f"{name}: per-layer metrics missing: {missing}")
        wall, self_sum = values["trace.wall_s"], values["trace.self_sum_s"]
        require(0 < self_sum <= wall, f"{name}: self times {self_sum} against wall {wall}")
        print(f"ok   {name}: tiny run, untraced and traced; self times cover "
              f"{self_sum / wall:.1%} of the traced wall time")


def planted_faults(workloads, tmp):
    members = workloads["members"](2, tmp, **TINY["members"])
    w, label, prof = members.cases[0]
    members.cases[0] = (w, not label, prof)
    _, failed = members.run_pass()
    require(failed == 1, f"members: a planted wrong label gave {failed} failures, not 1")
    print("ok   members: planted wrong label counted as one failure")

    from xxrx.words import PatternInstance

    require(
        workloads["random"].correct("010001", False, PatternInstance(2, 1))
        and not workloads["random"].correct("010001", False, PatternInstance(3, 1)),
        "random: a shifted instance was accepted",
    )
    print("ok   random: shifted instance rejected")

    tables = workloads["tables"](3, tmp, **TINY["tables"])
    from xxrx import counting

    good = counting.CountTable.build(40)
    bad = counting.CountTable(40, good.u_tilde, good.v, good.c[:-1] + (good.c[-1] + 2,))
    require(tables.table_ok(good, 40) and not tables.table_ok(bad, 40),
            "tables: a corrupted c column was accepted")
    print("ok   tables: corrupted column rejected")


def command_runs(spec):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "members", "--seed", "3",
         "--seconds", "0.5", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    require(proc.returncode == 0, f"benchmark command failed: {proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {set(result)}")
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    require(got == expected, f"metrics {got}")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] > 0, "result")
    print("ok   command: last line holds every end-to-end metric")

    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "members", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0, "benchmark ran without the package")
    require(not any(line.startswith("{") for line in proc.stdout.splitlines()),
            "benchmark printed a result without the package")
    print("ok   command: refuses to run without the package")


def main():
    spec = run.load_spec()
    run.import_package()
    from workloads import WORKLOADS

    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    os.environ["XXRX_CACHE_DIR"] = str(Path(tmp) / "cache")
    try:
        tiny_runs(WORKLOADS, spec, tmp)
        planted_faults(WORKLOADS, tmp)
        command_runs(spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
