"""Span tracer that wraps the public functions of the xxrx package from outside.

Installing a Tracer replaces every public function of the layer modules,
the kernels the backend selector exports, and ``CountTable.build`` by a
wrapper that records one span per call: name, start, end and the span
that was open when the call began (its parent).  Each reference is
replaced in every xxrx module that binds it, so calls made through
``from .words import check_word`` are traced too.  The kernel modules
themselves are left alone: a kernel's inner loop is its own self time.

Generator functions get one span per resumption, so time the consumer
spends between two items is not charged to the generator.

A span's self time is its duration minus the durations of its direct
children; the self times of all spans add up to the time covered by the
top-level spans.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

LAYER_MODULES = (
    "words", "sequences", "factorization", "counting", "cache", "bruteforce", "intersect"
)
KERNEL_MODULES = ("xxrx._scan", "xxrx._scan_py")


def _snapshot(directory):
    """(inode, mtime, size) of each file in directory, to detect writes."""
    try:
        entries = list(os.scandir(directory))
    except OSError:
        return {}
    out = {}
    for e in entries:
        st = e.stat()
        out[e.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


class Tracer:
    """Records spans while installed; use as a context manager, as often
    as needed: spans accumulate over all installations."""

    def __init__(self):
        self.names = []                 # name id -> layer name
        self.span_name = array("l")     # per span: name id
        self.span_parent = array("l")   # per span: parent span index, -1 at top level
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.generator_calls = Counter()  # name id -> generators created
        self.generator_items = Counter()  # name id -> items yielded
        self.bytes_written = 0
        self.enumerated_words = 0         # words count_members enumerated
        self.enumerated_members = 0       # members count_members found
        self._patches = None              # (owner, attribute, original, wrapper)

    # -- recording -------------------------------------------------------

    def _open(self, ident):
        idx = len(self.span_name)
        self.span_name.append(ident)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _wrap_function(self, ident, fn):
        clock = time.perf_counter
        stack = self.stack
        starts, ends = self.span_start, self.span_end
        opener = self._open

        def traced(*args, **kwargs):
            idx = opener(ident)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def _wrap_generator(self, ident, fn):
        clock = time.perf_counter
        stack = self.stack
        starts, ends = self.span_start, self.span_end
        opener = self._open
        created, items = self.generator_calls, self.generator_items

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            created[ident] += 1
            while True:
                idx = opener(ident)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    starts[idx] = t0
                    ends[idx] = t1
                items[ident] += 1
                yield item

        return traced

    # -- installation ----------------------------------------------------

    def _targets(self):
        """(layer name, function) for every function traced."""
        out = []
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"xxrx.{short}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out.append((f"{short}.{attr}", obj))
        backend = importlib.import_module("xxrx._backend")
        for attr, obj in sorted(vars(backend).items()):
            if callable(obj) and getattr(obj, "__module__", None) in KERNEL_MODULES:
                out.append((f"backend.{attr}", obj))
        return out

    def _hooked(self, name, traced):
        """Add the counters that need a call's arguments or result."""
        if name == "backend.count_members":
            def counted(n):
                found = traced(n)
                self.enumerated_words += 1 << n
                self.enumerated_members += found
                return found
            return counted
        if name == "cache.store_column":
            cache = importlib.import_module("xxrx.cache")

            def measured(*args, **kwargs):
                before = _snapshot(cache.cache_dir())
                try:
                    return traced(*args, **kwargs)
                finally:
                    after = _snapshot(cache.cache_dir())
                    self.bytes_written += sum(
                        stamp[2] for key, stamp in after.items() if before.get(key) != stamp
                    )
            return measured
        return traced

    def _build(self):
        """Wrappers for every target: (owner, attribute, original, wrapper)."""
        replacements = {}
        for name, original in self._targets():
            ident = len(self.names)
            self.names.append(name)
            if inspect.isgeneratorfunction(original):
                wrap = self._wrap_generator
            else:
                wrap = self._wrap_function
            replacements[id(original)] = (original, self._hooked(name, wrap(ident, original)))
        out = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname in KERNEL_MODULES:
                continue
            if modname != "xxrx" and not modname.startswith("xxrx."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    out.append((mod, attr, value, hit[1]))
        owner = importlib.import_module("xxrx.counting").CountTable
        original = owner.__dict__["build"]
        ident = len(self.names)
        self.names.append("counting.CountTable.build")
        wrapper = classmethod(self._wrap_function(ident, original.__func__))
        out.append((owner, "build", original, wrapper))
        return out

    def install(self):
        if self._patches is None:
            self._patches = self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation -----------------------------------------------------

    def summary(self):
        """Per layer: calls, self time and inclusive time; plus the self
        time and call count of each (layer, parent layer) pair."""
        n = len(self.span_name)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        names = self.names
        calls, self_s, incl_s = Counter(), Counter(), Counter()
        pair_calls, pair_self = Counter(), Counter()
        for i in range(n):
            name = names[self.span_name[i]]
            own = dur[i] - child[i]
            calls[name] += 1
            self_s[name] += own
            incl_s[name] += dur[i]
            p = self.span_parent[i]
            parent = names[self.span_name[p]] if p >= 0 else None
            pair_calls[name, parent] += 1
            pair_self[name, parent] += own
        for ident, created in self.generator_calls.items():
            calls[names[ident]] = created
        return {
            "calls": calls,
            "self_s": self_s,
            "incl_s": incl_s,
            "pair_calls": pair_calls,
            "pair_self": pair_self,
            "items": Counter({names[i]: k for i, k in self.generator_items.items()}),
        }


def layer_metrics(tracer, names, passes, wall_s, overhead_ratio):
    """Values of the per-layer metrics listed in names, per traced pass,
    except those of the set-up layer, which the tracer does not see.

    ``<layer>.calls`` and ``<layer>.self_s`` come straight from the spans;
    the other names are the derived rows below.  Counts and times are
    divided by the number of traced passes, so they do not depend on how
    many passes fit in the run.  A ratio whose base is empty on a
    workload reads 0; its base is reported beside it.  wall_s is the time
    of the traced passes, which the self times add up to apart from the
    benchmark's own loop.
    """
    s = tracer.summary()
    calls, self_s = s["calls"], s["self_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    under_linear = s["pair_self"]["backend.is_member", "factorization.is_in_l_linear"]
    builds_in_cache = s["pair_calls"]["counting.CountTable.build", "cache.cached_table"]
    brute_scans = sum(
        k for (name, parent), k in s["pair_calls"].items()
        if name == "backend.scan_xxrx" and parent and parent.startswith("bruteforce.")
    )
    kernel_calls = tracer.enumerated_words + brute_scans
    ratios = {
        "factorization.is_in_l_linear.over_kernel": ratio(
            s["incl_s"]["factorization.is_in_l_linear"], under_linear
        ),
        "cache.hit_ratio": ratio(
            calls["cache.cached_table"] - builds_in_cache, calls["cache.cached_table"]
        ),
        "bruteforce.useful_ratio": ratio(
            tracer.enumerated_members + s["items"]["bruteforce.iter_words_in_l"], kernel_calls
        ),
        "trace.overhead_ratio": overhead_ratio,
    }
    totals = {
        "cache.bytes_written": tracer.bytes_written,
        "bruteforce.kernel_calls": kernel_calls,
        "trace.wall_s": wall_s,
        "trace.self_sum_s": sum(self_s.values()),
    }
    out = {}
    for name in names:
        if name.startswith("setup."):
            continue
        if name in ratios:
            out[name] = ratios[name]
        elif name in totals:
            out[name] = totals[name] / passes
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]] / passes
        elif name.endswith(".self_s"):
            out[name] = self_s[name[: -len(".self_s")]] / passes
        else:
            raise KeyError(f"no definition for per-layer metric {name!r}")
    return out
