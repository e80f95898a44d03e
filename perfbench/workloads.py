"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload is a closed loop with one caller.  Its inputs come from
its own seeded generator; the program sees only those inputs.  A pass
runs a fixed list of operations and returns each operation's latency
and the number of operations whose output was wrong.  Each output is
checked against something other than the code under test right after
its operation, outside the operation's timer, and then dropped, so
outputs kept alive do not slow later operations.

Costs must not depend much on the seed, since runs with different seeds
are compared: word lengths are stratified over their range, and table
sizes are fixed.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
import tempfile
import time

from xxrx import bruteforce, cache, counting, factorization, intersect, words

clock = time.perf_counter

# Rows through n = 12, as pinned by the acceptance suite.
C_ROW_12 = (1, 2, 4, 6, 10, 16, 24, 34, 50, 72, 100, 138, 188)
U_ROW_12 = (1, 2, 3, 6, 9, 14, 22, 32, 46, 66, 93, 128, 176)
ASYM_RELATIVE_TOLERANCE = 0.02

# sha256 of ",".join(column[: N + 1]), computed with the revision the
# benchmark was added at.
PINNED_DIGESTS = {
    1000: {
        "u_tilde": "5f8611f48468dd0224a855d217a0efa2462ec8ac986735d7ffb0445c806cde3e",
        "v": "c729fb56bb326ca2e70b1cd943d029b08a42299404c26d6d00d4b4810391338d",
        "c": "40880a8b8be1cfd9783aa370823437dff55094214ced157215c8a1c196ae691f",
    },
    1200: {
        "u_tilde": "5da19e4bf8a071b178bad1d939927da94b38e6162f0b972134511ff4d570a37a",
        "v": "af28c997d60d36bd07611a749745f5347128ef459a42947e7a667028e2c71e02",
        "c": "4a52314a9078a1521cb87116bcc3879e72ddcdd212f1b97549bfd71d4cc527be",
    },
}
# c(16), the number of members of length 16, pinned the same way
C_16 = 598
COLUMNS = ("u_tilde", "v", "c")


# -- input generation ---------------------------------------------------------


def stratified_lengths(rng, count, lo, hi):
    """count lengths spread evenly over [lo, hi], jittered and shuffled."""
    span = hi - lo
    out = [lo + int(span * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(out)
    return out


def distinct_parts(rng, total, min_part=1):
    """Random partition of total into distinct parts >= min_part, ascending.

    Draws each part j independently with the Boltzmann weight for
    distinct-part partitions of size about total, then makes the sum
    exact by dropping or growing the largest part.  A total below
    min_part (other than 0) cannot be met and raises ValueError.
    """
    if total == 0:
        return []
    if total < min_part:
        raise ValueError(f"cannot split {total} into parts >= {min_part}")
    x = math.exp(-math.pi / math.sqrt(12 * total))
    parts = []
    j = min_part
    while j <= total:
        xj = x**j
        if xj < 1e-7:
            break
        if rng.random() < xj / (1 + xj):
            parts.append(j)
        j += 1
    while parts and sum(parts) > total:
        parts.pop()
    rest = total - sum(parts)
    if parts:
        parts[-1] += rest
    else:
        parts.append(rest)
    return parts


def word_from_profile(start, profile):
    """The triple-free word with this start letter and block profile.

    Each block alternates and begins with the letter the previous block
    ended on; written here independently of the package's reconstruct.
    """
    out = []
    c = start
    for length in profile:
        other = "1" if c == "0" else "0"
        block = ((c + other) * (length // 2 + 1))[:length]
        out.append(block)
        c = block[-1]
    return "".join(out)


def member_profile(rng, length):
    """Valley-free profile: distinct parts rising, then distinct parts falling."""
    left = rng.randint(length // 4, 3 * length // 4)
    return distinct_parts(rng, left) + distinct_parts(rng, length - left)[::-1]


def near_member_profile(rng, length):
    """Profile with exactly one valley: two valley-free runs back to back.

    The runs meet at the last part m of the first falling run and the
    first part k of the second rising run.  With a larger part before m
    and after k, and m != k, the smaller of the two is the only valley.
    Both are interior entries, so they are at least 2.
    """
    while True:
        cuts = sorted(rng.randint(length // 8, 7 * length // 8) for _ in range(3))
        sizes = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], length - cuts[2]]
        if min(sizes) < 5:
            continue
        a = distinct_parts(rng, sizes[0])
        b = distinct_parts(rng, sizes[1], 2)[::-1]
        c = distinct_parts(rng, sizes[2], 2)
        d = distinct_parts(rng, sizes[3])[::-1]
        if len(b) >= 2 and len(c) >= 2 and b[-1] != c[0]:
            return a + b + c + d


def valleys(profile):
    return sum(
        1 for j in range(1, len(profile) - 1) if profile[j - 1] >= profile[j] <= profile[j + 1]
    )


def literal_instance(w, start, block_len):
    """True iff w has x, x reversed, x at start with |x| = block_len."""
    x = w[start : start + block_len]
    return (
        block_len >= 1
        and start >= 0
        and start + 3 * block_len <= len(w)
        and w[start + block_len : start + 2 * block_len] == x[::-1]
        and w[start + 2 * block_len : start + 3 * block_len] == x
    )


def first_triple(w):
    hits = [i for i in (w.find("000"), w.find("111")) if i >= 0]
    return min(hits) if hits else -1


def avoids_by_definition(w):
    """Literal scan of every block length and start; quadratic."""
    n = len(w)
    return not any(
        literal_instance(w, i, t) for t in range(1, n // 3 + 1) for i in range(n - 3 * t + 1)
    )


def digest(column):
    return hashlib.sha256(",".join(map(str, column)).encode()).hexdigest()


# -- workloads ----------------------------------------------------------------


class Members:
    """Members of L and one-valley near-members through is_in_l_linear and
    profile; the kernel does most of the work."""

    def __init__(self, seed, tmp, count=400, lo=1000, hi=4000):
        rng = random.Random(seed)
        self.cases = []  # (word, label, profile)
        for i, length in enumerate(stratified_lengths(rng, count, lo, hi)):
            label = i % 2 == 0
            prof = member_profile(rng, length) if label else near_member_profile(rng, length)
            if valleys(prof) != (0 if label else 1):
                raise RuntimeError(f"generator built a wrong profile {prof}")
            self.cases.append((word_from_profile(rng.choice("01"), prof), label, tuple(prof)))
        rng.shuffle(self.cases)

    def run_pass(self):
        lat, failed = [], 0
        linear, prof = factorization.is_in_l_linear, factorization.profile
        for w, label, expected in self.cases:
            t0 = clock()
            verdict = linear(w)
            got = prof(w)
            lat.append(clock() - t0)
            failed += verdict is not label or got != expected
        return lat, failed


class Random:
    """Uniform random words through is_in_l_linear, with find_xxrx_instance
    on each rejection as ``xxrx check`` does; validation does most of the work."""

    def __init__(self, seed, tmp, count=400, lo=1000, hi=4000):
        rng = random.Random(seed)
        self.words = [
            format(rng.getrandbits(n), f"0{n}b") for n in stratified_lengths(rng, count, lo, hi)
        ]

    def run_pass(self):
        lat, failed = [], 0
        linear, find = factorization.is_in_l_linear, words.find_xxrx_instance
        for w in self.words:
            t0 = clock()
            verdict = linear(w)
            inst = None if verdict else find(w)
            lat.append(clock() - t0)
            failed += not self.correct(w, verdict, inst)
        return lat, failed

    @staticmethod
    def correct(w, verdict, inst):
        if verdict:
            return inst is None and avoids_by_definition(w)
        # the earliest instance has the shortest block, so it is the first
        # triple letter whenever the word has one
        triple = first_triple(w)
        return (
            inst is not None
            and literal_instance(w, inst.start, inst.block_len)
            and (inst.block_len == 1) == (triple >= 0)
            and (inst.block_len > 1 or inst.start == triple)
        )


class Tables:
    """A cold cached_table(N) that builds and stores, seeded warm reads with
    the asymptotic estimate, then one larger miss that rebuilds and overwrites."""

    def __init__(self, seed, tmp, limit=1000, reads=100, grown=1200):
        rng = random.Random(seed)
        self.tmp = tmp
        self.limit, self.grown = limit, grown
        self.reads = [rng.randint(1, limit) for _ in range(reads)]

    def run_pass(self):
        directory = tempfile.mkdtemp(prefix="tables-", dir=self.tmp)
        os.environ[cache.ENV_CACHE_DIR] = directory
        try:
            lat = []
            t0 = clock()
            cold = cache.cached_table(self.limit)
            lat.append(clock() - t0)
            failed = not self.table_ok(cold, self.limit)
            for n in self.reads:
                t0 = clock()
                table = cache.cached_table(n)
                est = counting.asymptotic_u_tilde(n, table.u_tilde[n])
                lat.append(clock() - t0)
                failed += not self.read_ok(cold, n, table, est)
            t0 = clock()
            grown = cache.cached_table(self.grown)
            lat.append(clock() - t0)
            failed += not (
                self.table_ok(grown, self.grown)
                and all(getattr(grown, c)[: self.limit + 1] == getattr(cold, c) for c in COLUMNS)
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return lat, failed

    @staticmethod
    def table_ok(table, limit):
        cols = [getattr(table, name) for name in COLUMNS]
        if table.limit != limit or any(len(col) != limit + 1 for col in cols):
            return False
        pinned = PINNED_DIGESTS.get(limit)
        if pinned and any(digest(getattr(table, name)) != pinned[name] for name in COLUMNS):
            return False
        u, v, c = cols
        return (
            c[:13] == C_ROW_12
            and u[:13] == U_ROW_12
            and c[0] == 1
            and all(c[n] == 2 * v[n] for n in range(1, limit + 1))
            and all(2 * v[n] >= u[n] >= v[n] for n in range(1, limit + 1))
            and all(u[n] <= c[n] <= 2 * u[n] for n in range(1, limit + 1))
        )

    @staticmethod
    def read_ok(cold, n, table, est):
        """A warm read equals the cold build, and the estimate reports its
        error against the exact value."""
        exact = cold.u_tilde[n]
        err = abs(est.value / exact - 1.0)
        return (
            table.limit == n
            and all(getattr(table, c) == getattr(cold, c)[: n + 1] for c in COLUMNS)
            and est.n == n
            and est.relative_error_vs_exact == err
            and (n < 20 or err < ASYM_RELATIVE_TOLERANCE)
        )


class Oracle:
    """cross_check, brute_count_words and verify_intersection_claim: the
    brute-force oracles and the exhaustive scan kernel do the work.  Each
    call stays under 0.1 s, so that a run repeats it many times; the seed
    orders the calls."""

    def __init__(self, seed, tmp, words=12, seq=22, brute=16, max_exp=6):
        self.words, self.seq, self.brute, self.max_exp = words, seq, brute, max_exp
        self.calls = [self.cross_check, self.count_words, self.intersection]
        random.Random(seed).shuffle(self.calls)

    def run_pass(self):
        lat, failed = [], 0
        for call in self.calls:
            t0 = clock()
            out, ok = call()
            lat.append(clock() - t0)
            failed += not ok(out)
        return lat, failed

    def cross_check(self):
        report = bruteforce.cross_check(self.words, self.seq)
        return report, lambda r: r.ok and (r.max_word_len, r.max_seq_weight) == (
            self.words, self.seq
        )

    def count_words(self):
        count = bruteforce.brute_count_words(self.brute)
        return count, lambda c: self.brute != 16 or c == C_16

    def intersection(self):
        report = intersect.verify_intersection_claim(self.max_exp)
        return report, lambda r: (
            r.ok and r.max_exp == self.max_exp and r.total_cases == self.max_exp**4
        )


WORKLOADS = {"members": Members, "random": Random, "tables": Tables, "oracle": Oracle}
