"""Mutant kill table: which Tier-1 tests fail on each one-line change to
``src/xxrx/``.

Run from the root of a checkout, with pytest and hypothesis installed:

    python3 tests/mutants.py > kills.json

For each mutant the checkout is copied to a temporary directory, leaving
out ``.git``, the ``BENCH_*.json`` records and the caches, the mutant is
applied to the copy, and the Tier-1 command runs there.  The table
``{label: [failing test ids]}`` is printed as JSON; nothing is written
to the checkout.  Tier-1 runs with a fixed hypothesis seed, so the table
is the same from run to run.  One run of Tier-1 takes 12 to 15 s on a
2-vCPU Xeon, and the whole table about 12 minutes.

A test kills a mutant when it fails on it.  A test is covered when the
remaining tests kill every mutant it kills, and a change that deletes a
test must leave no mutant surviving that it killed.  An equivalent
mutant changes no answer, so no test can kill it; it carries the reason.

Exit codes: 0 when every mutant but the equivalent ones is killed; 1
when one of the others survives, or an equivalent one is killed; 2 when
the unmutated copy fails a test, or an old text does not occur exactly
once in its file, so a stale list cannot pass unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the Tier-1 command, with no pytest cache and one line per failing test
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
    "-p", "no:cacheprovider", "-rfE", "--tb=no",
]
# the caches stay out too: hypothesis's example database would replay
# examples saved in the checkout, and a table must not depend on them
SKIP = shutil.ignore_patterns(
    ".git", "BENCH_*.json", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"
)
# a mutant that makes a walk or a loop run away fails as one pseudo-id
TIMEOUT_S = 600


class Mutant(namedtuple("Mutant", "path old new label equivalent", defaults=(None,))):
    """Replace old by new in src/xxrx/<path>; equivalent, if given, says
    why no answer changes."""


MUTANTS = [
    # _scan_py: the split, the instance test, the scan and the member test
    Mutant("_scan_py.py", '"big")[1:].split', '"big").split',
           "_split keeps the byte before the first letter"),
    Mutant("_scan_py.py", "return w[s2:s2 + t] == x and w[s1:s2] == x[::-1]",
           "return w[s1:s2] == x[::-1]",
           "_is_instance without its x check"),
    Mutant("_scan_py.py", "and w[s1:s2] == x[::-1]", "and w[s1:s2] == x",
           "_is_instance: x^R not reversed"),
    Mutant("_scan_py.py", "if i0 >= 0:", "if i0 > 0:",
           "scan_xxrx: a 000 at index 0 is missed"),
    Mutant("_scan_py.py", "i1 if 0 <= i1 < i0", "i1 if 0 < i1 < i0",
           "scan_xxrx: a 111 at index 0 is passed over"),
    Mutant("_scan_py.py", "if t < best and", "if t <= best and",
           "scan_xxrx: t < best as t <= best"),
    Mutant("_scan_py.py", "and t <= s1 and", "and t < s1 and",
           "scan_xxrx: t <= s1 as t < s1"),
    Mutant("_scan_py.py", "s1 + 2 * t <= n", "s1 + 2 * t < n",
           "scan_xxrx: an instance at the end of the word is missed"),
    Mutant("_scan_py.py", "if t == 1:", "if t == 0:",
           "scan_xxrx without its t == 1 break",
           "only a shorter hit replaces the best, and none is shorter than"
           " t = 1, so the break saves time and changes no answer"),
    Mutant("_scan_py.py", "found, best = (s1 - t, t), t", "found, best = (s1, t), t",
           "scan_xxrx: reports the centre as the start"),
    Mutant("_scan_py.py", "if 1 in prof[1:-1]:", "if 1 in prof[1:]:",
           "profile_of: a last block of length 1 raises"),
    Mutant("_scan_py.py", "_PREFIX = 256", "_PREFIX = 0",
           "_PREFIX = 0"),
    Mutant("_scan_py.py", "_PREFIX) >= 0", "_PREFIX) > 0",
           "is_member: a 000 at index 0 is left to the split"),
    # sequences
    Mutant("sequences.py", "if s[j - 1] >= s[j] <= s[j + 1]:", "if s[j - 1] > s[j] <= s[j + 1]:",
           "_has_valley: left >= as >"),
    Mutant("sequences.py", "if s[j - 1] >= s[j] <= s[j + 1]:", "if s[j - 1] >= s[j] < s[j + 1]:",
           "_has_valley: right <= as <"),
    Mutant("sequences.py", "range(1, len(s) - 1)", "range(1, len(s) - 2)",
           "_has_valley: the last interior entry is not tested"),
    Mutant("sequences.py", "or d < 1:", "or d < 0:",
           "_entries: 0 accepted"),
    Mutant("sequences.py", "a < b for a, b", "a <= b for a, b",
           "_strictly_increasing: equal parts accepted"),
    Mutant("sequences.py", "_strictly_increasing(lam) and _strictly_increasing(mu)",
           "_strictly_increasing(lam) or _strictly_increasing(mu)",
           "sequence_to_pairs: one increasing side suffices"),
    Mutant("sequences.py", 'if digits[:1] in ("+", "-"):', 'if digits[:1] in ("+",):',
           "_int_fault: a minus sign is not stripped"),
    Mutant("sequences.py", "len(text) > 60", "len(text) >= 60",
           "_echo: a 60-character text is cut"),
    # factorization
    Mutant("factorization.py", "if d < 2:", "if d < 1:",
           "_validate_profile: d < 2 as d < 1"),
    Mutant("factorization.py", "for d in p[1:-1]:", "for d in p[1:]:",
           "_validate_profile: a last entry of 1 refused"),
    Mutant("factorization.py", "if weight > MAX_RECONSTRUCT_LEN:",
           "if weight >= MAX_RECONSTRUCT_LEN:",
           "reconstruct: a word of exactly the cap refused"),
    Mutant("factorization.py", "if start_letter is None and not tuple(entries):",
           "if start_letter is None and entries == ():",
           "reconstruct: the empty-word branch tests entries == ()"),
    # counting
    Mutant("counting.py", "while k * (3 * k - 1) // 2 <= limit:",
           "while k * (3 * k - 1) // 2 < limit:",
           "_over_euler: a pentagonal number equal to the limit is dropped"),
    Mutant("counting.py", "k % 2 == 1", "k % 2 == 0",
           "_over_euler: signs of the pentagonal terms swapped"),
    Mutant("counting.py", "math.isqrt(3 * limit) + 1", "math.isqrt(3 * limit)",
           "_series: the last n of R dropped"),
    Mutant("counting.py", "if degree > limit:", "if degree >= limit:",
           "_series: R's term at the limit dropped"),
    Mutant("counting.py", "-1 if j % 2 else 1", "1 if j % 2 else -1",
           "_series: signs of R swapped"),
    Mutant("counting.py", "range((n - 1) // 2, -1, -1)", "range((n - 1) // 2, 0, -1)",
           "_series: R's j = 0 terms dropped"),
    Mutant("counting.py", "err = abs(value / exact - 1.0)", "err = value / exact - 1.0",
           "asymptotic_u_tilde: error without abs"),
    Mutant("counting.py", "2 * v >= u and", "2 * v > u and",
           "verify_bounds: >= as >"),
    # the two walks and the bijection check
    Mutant("bruteforce.py", "if 3 * s2 < 2 * m:", "if 3 * s2 <= 2 * m:",
           "_ends_in_instance: < as <="),
    Mutant("bruteforce.py", "if letter == w[-1:] else starts", "if letter != w[-1:] else starts",
           "_walk_words: block starts at the undoubled letters"),
    Mutant("bruteforce.py", '"01" if k else first_letters', 'first_letters if k else "01"',
           "_walk_words: first_letters applied past the first letter"),
    Mutant("bruteforce.py", "room = min(room, d - 1)", "room = min(room, d)",
           "_walk_sequences: min(room, d - 1) as min(room, d)"),
    Mutant("bruteforce.py", "if last >= d:", "if last > d:",
           "_walk_sequences: an equal step counts as a rise"),
    Mutant("bruteforce.py", 'not w.startswith("1")', 'not w.startswith("0")',
           "cross_check: profiles of the 1-words",
           "complementing a word swaps its first letter and keeps its"
           " profile, so both halves give the same profiles"),
    # intersect
    Mutant("intersect.py", "return (i < j or k < j) and (j < k or l < k)",
           "return (i < j or k < j) and (j < k or l <= k)",
           "quad_predicate: l < k as l <= k"),
    # exit codes
    Mutant("cli.py", "(FactorDomainError, ProfileError, _Refused)", "(FactorDomainError, ProfileError)",
           "main: _Refused exits 2"),
    Mutant("cli.py", "(FactorDomainError, ProfileError, _Refused)", "(ProfileError, _Refused)",
           "main: FactorDomainError exits 2"),
    Mutant("cli.py", "        return EXIT_FAIL\n    except ValueError",
           "        return EXIT_OK\n    except ValueError",
           "main: a closed pipe exits 0"),
    Mutant("cli.py", "EXIT_OK if report.ok else EXIT_FAIL", "EXIT_OK",
           "cmd_report: a disagreement exits 0"),
    Mutant("cli.py", "if args.n <= _ASYM_EXACT_LIMIT:", "if args.n < _ASYM_EXACT_LIMIT:",
           "cmd_asym: no exact value at the limit"),
]


def _copy(mutant: Mutant | None, dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=SKIP)
    if mutant is not None:
        path = dest / "src" / "xxrx" / mutant.path
        path.write_text(path.read_text().replace(mutant.old, mutant.new))


def failing_ids(mutant: Mutant | None) -> list[str]:
    """The Tier-1 ids that fail on a copy with the mutant applied."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        _copy(mutant, copy)
        try:
            run = subprocess.run(
                TIER1, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return [f"<timeout after {TIMEOUT_S} s>"]
    # short summary lines: "FAILED <id> - <message>" or "ERROR <id>"; no
    # Tier-1 id holds " - "
    ids = sorted(
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in run.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    )
    # a run that fails without naming a test, such as one with no pytest
    return ids or ([f"<pytest exit {run.returncode}>"] if run.returncode else [])


def stale() -> list[str]:
    """The mutants whose old text does not occur exactly once."""
    return [
        f"{m.label}: {m.old!r} occurs {n} times in {m.path}"
        for m in MUTANTS
        if (n := (ROOT / "src" / "xxrx" / m.path).read_text().count(m.old)) != 1
    ]


def main() -> int:
    faults = stale()
    if faults:
        print("\n".join(faults), file=sys.stderr)
        return 2
    base = failing_ids(None)
    if base:
        print(f"the unmutated copy fails: {base}", file=sys.stderr)
        return 2
    table, wrong = {}, []
    for i, m in enumerate(MUTANTS, 1):
        table[m.label] = failing_ids(m)
        killed = bool(table[m.label])
        print(f"[{i}/{len(MUTANTS)}] {len(table[m.label])} {m.label}", file=sys.stderr)
        if killed == (m.equivalent is not None):
            wrong.append(f"{'killed' if killed else 'survived'}: {m.label}")
    print(json.dumps(table, indent=1))
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
