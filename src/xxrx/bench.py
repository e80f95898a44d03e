"""Timing harness for the recognizers.

Compares the direct instance scan against the one-pass recognizer over
two sample pools per length: uniform random words imposed no structure,
and members built by running the reconstruction on random valley-free
sequences (uniform sampling would essentially never hit a member at
interesting lengths).  Verdicts of both engines are compared on every
sample; a disagreement is an error, not a statistic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ._backend import is_member, scan_xxrx
from .factorization import reconstruct

__all__ = [
    "BenchReport",
    "BenchRow",
    "random_member_word",
    "random_word",
    "run_benchmark",
]


def random_word(rng: random.Random, length: int) -> str:
    """Uniform random binary word of the given length."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return ""
    return format(rng.getrandbits(length), f"0{length}b")


def _random_distinct_partition(rng: random.Random, total: int) -> tuple[int, ...]:
    """Random partition of total into distinct parts, listed increasing.

    Grows parts left to right.  With prev the last part and r the
    remainder, a next part d is feasible iff d > prev and either d = r
    (finish now) or r - d >= d + 1 (room for a larger part after); d = r
    is always feasible, so the walk cannot dead-end.
    """
    parts = []
    prev, r = 0, total
    while r:
        # feasible d: prev < d <= (r-1)//2, plus d = r
        interior = max(0, (r - 1) // 2 - prev)
        pick = rng.randrange(interior + 1)
        d = r if pick == interior else prev + 1 + pick
        parts.append(d)
        prev, r = d, r - d
    return tuple(parts)


def random_member_word(rng: random.Random, length: int) -> str:
    """Random length-n word avoiding x x^R x.

    Splits n between two random distinct-part partitions, concatenates
    one ascending with the other descending (always valley-free), and
    reconstructs the word with that profile from a random start letter.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return ""
    lam = _random_distinct_partition(rng, rng.randint(0, length))
    mu = _random_distinct_partition(rng, length - sum(lam))
    seq = lam + mu[::-1]
    return reconstruct(rng.choice("01"), seq)


@dataclass(frozen=True)
class BenchRow:
    length: int
    source: str  # "uniform" or "member"
    engine: str
    samples: int
    seconds_per_call: float


@dataclass(frozen=True)
class BenchReport:
    max_len: int
    seed: int
    naive_cutoff: int
    rows: tuple[BenchRow, ...]
    agreements: int  # samples on which all engines returned one verdict

    def as_text(self) -> str:
        lines = [
            f"recognizer benchmark: seed {self.seed}, naive scan skipped above "
            f"length {self.naive_cutoff}",
            f"verdict agreement on all {self.agreements} samples",
            f"{'length':>8} {'source':>8} {'engine':>16} {'samples':>8} {'us/call':>12}",
        ]
        lines.extend(
            f"{r.length:>8} {r.source:>8} {r.engine:>16} {r.samples:>8} "
            f"{r.seconds_per_call * 1e6:>12.2f}"
            for r in self.rows
        )
        return "\n".join(lines) + "\n"


def _ladder(max_len: int) -> list[int]:
    lengths = []
    cur = max_len
    while cur >= 1 and len(lengths) < 4:
        lengths.append(cur)
        cur //= 8
    return sorted(set(lengths))


def run_benchmark(
    max_len: int = 1000,
    samples: int = 100,
    seed: int = 0,
    naive_cutoff: int = 4096,
) -> BenchReport:
    """Time every engine on every pool and check verdict agreement.

    Raises RuntimeError on any verdict disagreement (none is expected;
    the engines implement one language).
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    engines = [
        ("naive-scan", lambda b: scan_xxrx(b) is None),
        ("linear-python", is_member),
    ]
    rows = []
    agreements = 0
    for length in _ladder(max_len):
        pools = {
            "uniform": [random_word(rng, length).encode("ascii") for _ in range(samples)],
            "member": [random_member_word(rng, length).encode("ascii") for _ in range(samples)],
        }
        for source, pool in pools.items():
            verdicts: dict[str, list[bool]] = {}
            for name, fn in engines:
                if name == "naive-scan" and length > naive_cutoff:
                    continue
                t0 = time.perf_counter()
                verdicts[name] = [fn(w) for w in pool]
                elapsed = time.perf_counter() - t0
                rows.append(BenchRow(length, source, name, samples, elapsed / samples))
            per_sample = list(zip(*verdicts.values()))
            for idx, sample_verdicts in enumerate(per_sample):
                if len(set(sample_verdicts)) != 1:
                    raise RuntimeError(
                        f"engines disagree on word {pool[idx].decode('ascii')!r}: "
                        + ", ".join(
                            f"{name}={v}" for name, v in zip(verdicts, sample_verdicts)
                        )
                    )
                agreements += 1
    return BenchReport(max_len, seed, naive_cutoff, tuple(rows), agreements)
