"""Layered benchmark for the xxrx package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload members --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

The library under src/ is driven from this one process, in a closed loop
with one caller and no threads.  Each workload (see workloads.py) runs
whole passes over its seeded inputs until --seconds have passed, and
every output is checked.  With --trace 0 the end-to-end metrics of
BENCHMARK.json are printed.  With --trace 1 untraced passes alternate
with passes in which every public function of the package is wrapped
(spans.py), and the per-layer metrics are printed, per traced pass.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it, starting with
"meta ", records the backend, the Python version, the commit and the
seed.  The exit code is 1 if any output was wrong and 2 if the package
cannot be found.

Timing.  The speed of a shared machine drifts: on the 2-vCPU Xeon these
bounds were set on, the same code ran up to 1.6 times slower for whole
20 s runs while nothing in the runs changed.  So each run
also times a fixed pure-Python reference before every pass and every
interpreter start, and every time it reports is scaled by REFERENCE_S
over the reference's mean time in the run: times read as seconds on a
machine that runs the reference in REFERENCE_S.  Means, not minima, are
used on both sides, because a disturbance that comes and goes slows a
long operation and a short reference alike on average, while their
fastest repeats see it differently.  The raw times are printed too.

Each run works in a fresh temporary directory inside the checkout, which
it also uses as XXRX_CACHE_DIR, and removes it at the end.
XXRX_BACKEND is removed from the environment, so the backend that
``xxrx._backend`` selects by default is the one measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("members", "random", "tables", "oracle")
SETUP_SPAWNS = 16
# a round figure near the reference's mean time on the machine the bounds
# were set on; it only fixes the scale the reported times are given in
REFERENCE_S = 0.012

clock = time.perf_counter


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")


def import_package():
    """Import xxrx from src/ of this checkout and nothing else."""
    src = ROOT / "src"
    if not (src / "xxrx" / "__init__.py").is_file():
        die(f"no xxrx package under {src}")
    sys.path.insert(0, str(src))
    import xxrx

    if Path(xxrx.__file__).resolve().parent != (src / "xxrx").resolve():
        die(f"imported xxrx from {xxrx.__file__}, not from {src}")
    return xxrx


_rng = random.Random(0)
_REFERENCE_NUMBERS = "\n".join(f"{i},{_rng.getrandbits(128)}" for i in range(3000))
_REFERENCE_WORD = "0110" * 600


def _reference():
    """Fixed work in the interpreter, in string and bytes methods, in
    formatting many small objects and in big-int parsing and addition,
    the kinds of work the package spends its time on."""
    total = 0
    for i in range(20000):
        total += i * i
    for line in _REFERENCE_NUMBERS.splitlines():
        total += int(line.split(",")[1])
    w = _REFERENCE_WORD
    for _ in range(60):
        total += len(w.strip("01")) + w.find("000") + len(w.encode()) + len(w[::-1])
    for v in range(6000):
        total += format(v, "016b").encode("ascii").find(b"000")
    for _ in range(2):
        coeffs = [1] + [0] * 600
        for j in range(1, 40):
            for m in range(600, j - 1, -1):
                coeffs[m] += coeffs[m - j]
        total += coeffs[-1]
    return total


class Speed:
    """Mean time of the reference over a run, with the garbage collector
    off so that objects the program keeps alive do not slow it."""

    def __init__(self):
        self.total_s = 0.0
        self.count = 0

    def sample(self):
        gc.disable()
        try:
            t0 = clock()
            _reference()
            self.total_s += clock() - t0
        finally:
            gc.enable()
        self.count += 1

    @property
    def mean_s(self):
        return self.total_s / self.count

    @property
    def scale(self):
        return REFERENCE_S / self.mean_s


class SetupClock:
    """Times fresh interpreters that import xxrx.cli, which every xxrx
    command pays, and bare interpreters when asked.  One untimed import
    first fills the bytecode cache."""

    def __init__(self, speed, with_interpreter):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.speed = speed
        self.with_interpreter = with_interpreter
        self.imports, self.bare = [], []
        self._spawn("import xxrx.cli")

    def _spawn(self, code):
        t0 = clock()
        subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True)
        return clock() - t0

    def sample(self, count):
        for _ in range(count):
            self.speed.sample()
            self.imports.append(self._spawn("import xxrx.cli"))
            if self.with_interpreter:
                self.bare.append(self._spawn("pass"))

    def metrics(self):
        out = {"setup_s": statistics.median(self.imports)}
        if self.bare:
            out["setup.interpreter_s"] = statistics.median(self.bare)
            out["setup.import_s"] = out["setup_s"] - out["setup.interpreter_s"]
        return out


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the files of the package, so runs on checkouts that are
    not git repositories can still be matched to their source."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "xxrx"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Passes:
    """Per-operation mean latencies and check results of a series of
    passes, which all run the same operations on the same inputs.  The
    reference is timed before every pass."""

    def __init__(self, speed):
        self.speed = speed
        self.sums = None  # per operation: sum of its latencies over the passes
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def run(self, workload):
        self.speed.sample()
        lat, failed = workload.run_pass()
        self.sums = array("d", lat if self.sums is None else map(sum, zip(self.sums, lat)))
        self.count += 1
        self.attempted += len(lat)
        self.failed += failed

    @property
    def means(self):
        return [x / self.count for x in self.sums]

    @property
    def total_s(self):
        return sum(self.sums)


def run_for(workload, seconds, speed):
    """Whole passes until seconds have passed, at least one."""
    passes = Passes(speed)
    start = clock()
    while not passes.count or clock() - start < seconds:
        passes.run(workload)
    return passes


def quantiles(samples):
    if len(samples) == 1:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=10, method="inclusive")
    return q[4], q[8]


def end_to_end(passes):
    means = passes.means
    p50, p90 = quantiles(means)
    values = {
        "wall_s": sum(means),
        "ops_per_s": len(means) / sum(means),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"passes {passes.count}",
        f"latency samples {len(means)}, each the mean of {passes.count}",
    ]
    return values, notes


def traced_layers(workload, seconds, names, speed):
    """Untraced and traced passes in turn until seconds have passed, at
    least one of each; returns the per-layer values per traced pass, and
    both series of passes.  Pairing each traced pass with the untraced
    pass before it keeps machine drift out of the tracing overhead."""
    from spans import Tracer, layer_metrics

    untraced, traced = Passes(speed), Passes(speed)
    tracer = Tracer()
    start = clock()
    while not traced.count or clock() - start < seconds:
        untraced.run(workload)
        with tracer:
            traced.run(workload)
    values = layer_metrics(
        tracer, names, traced.count, traced.total_s, traced.total_s / untraced.total_s
    )
    notes = [f"passes {untraced.count} untraced and {traced.count} traced, in turn",
             f"spans {len(tracer.span_name)}"]
    return values, notes, (untraced, traced)


def run_one(args, spec, tmp):
    xxrx = import_package()
    from xxrx import _backend
    from workloads import WORKLOADS

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": xxrx.BACKEND,
        "available_backends": _backend.available_backends(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
    }
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    # half the interpreter starts before the timed phase and half after,
    # so a slow spell of the machine does not cover all of them
    speed = Speed()
    setup = SetupClock(speed, with_interpreter=bool(args.trace))
    setup.sample(SETUP_SPAWNS // 2)
    workload = WORKLOADS[args.workload](args.seed, tmp)
    if args.trace:
        values, notes, runs = traced_layers(
            workload, args.seconds, [m["name"] for m in specs], speed
        )
    else:
        passes = run_for(workload, args.seconds, speed)
        values, notes = end_to_end(passes)
        runs = (passes,)
    setup.sample(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    values.update(setup.metrics())
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)

    metrics = {}
    for note in notes:
        print(note)
    print(f"reference mean {speed.mean_s} s over {speed.count}, times scaled by {speed.scale}")
    print(f"failed_ratio {failed / attempted} ({failed} of {attempted})")
    for m in specs:
        name, unit, raw = m["name"], m["unit"], values[m["name"]]
        factor = {"s": speed.scale, "ms": speed.scale, "1/s": 1 / speed.scale}.get(unit)
        value = raw if factor is None else raw * factor
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value} {unit}" + ("" if factor is None else f" (raw {raw})"))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in its own process, so peak memory stays per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        ).returncode
        worst = max(worst, code)
    print("all workloads correct" if worst == 0 else "a workload failed or did not run")
    return worst


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    os.environ["XXRX_CACHE_DIR"] = str(Path(tmp) / "cache")
    os.environ.pop("XXRX_BACKEND", None)
    try:
        return run_one(args, spec, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
