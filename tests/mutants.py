"""Mutant kill table: which Tier-1 tests fail on each one-line change to
``src/xxrx/``, and which mutants each Tier-1 test kills.

Run from the root of a checkout, with pytest and hypothesis installed:

    python3 tests/mutants.py > kills.json

For each mutant the checkout is copied to a temporary directory, leaving
out ``.git``, the ``BENCH_*.json`` records and the caches, the mutant is
applied to the copy, and the Tier-1 command runs there.  The mutants run
side by side, one Tier-1 process per CPU, each in its own copy; the
progress lines on stderr and the table keep the order of the list.  The
table ``{label: [failing test ids]}`` is printed as JSON; nothing is
written to the checkout.  Tier-1 runs with a fixed hypothesis seed, so
the table is the same from run to run.  One run of Tier-1 takes 9 to
15 s on a 2-vCPU Xeon, and the whole table, two runs at a time, about
13 minutes there.

A test kills a mutant when it fails on it.  A test is covered when the
remaining tests kill every mutant it kills, and a change that deletes a
test must leave no mutant surviving that it killed.  An equivalent
mutant changes no answer, so no test can kill it; it carries the reason.
Each Tier-1 test must kill at least one mutant, so that the table
measures it, unless it is listed in ``UNMEASURED`` with the reason that
no one-line change to ``src/xxrx/`` reaches it.

Exit codes: 0 when every mutant but the equivalent ones is killed and
every test but the unmeasured ones kills one; 1 when one of the other
mutants survives or an equivalent one is killed, or a test that is not
listed kills nothing or a listed one kills something; 2 when the
unmutated copy fails a test, an old text does not occur exactly once in
its file, or a listed test is not collected, so a stale list cannot pass
unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter, namedtuple
from concurrent.futures import ThreadPoolExecutor
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
    # range guards
    Mutant("bruteforce.py", "if not 0 <= n <= cap:", "if not -1 <= n <= cap:",
           "_check_range: -1 accepted"),
    Mutant("bruteforce.py", "max_word_len, MAX_BRUTE_WORD_LEN,", "max_word_len, MAX_BRUTE_SEQ_WEIGHT,",
           "cross_check: the word side capped at the sequence cap"),
    Mutant("intersect.py", "if not 1 <= max_exp <=", "if not 0 <= max_exp <=",
           "verify_intersection_claim: max_exp 0 accepted"),
    Mutant("counting.py", "if limit < 0:", "if limit < -1:",
           "gf_u_tilde: -1 accepted"),
    Mutant("counting.py", "if n < 1:", "if n < 0:",
           "asymptotic_u_tilde: n = 0 left to math.sqrt"),
    Mutant("counting.py", "if limit < 1:", "if limit < 0:",
           "verify_bounds: limit 0 accepted"),
    Mutant("cache.py", "if limit < 0:", "if limit < -1:",
           "cached_table: -1 accepted"),
    Mutant("cli.py", "if args.limit < 0:", "if args.limit < -3:",
           "cmd_count: N = -3 left to CountTable.build"),
    Mutant("cli.py", "if args.n < 1:", "if args.n < 0:",
           "cmd_asym: n = 0 left to asymptotic_u_tilde"),
    # input checks and the validated records
    Mutant("words.py", 'w.encode("ascii", "replace")', 'w.encode("ascii", "ignore")',
           "check_word: non-ASCII symbols dropped"),
    Mutant("factorization.py", "b = check_word(w)", 'b = w.encode("ascii")',
           "profile: the word is not checked"),
    Mutant("factorization.py", 'raise FactorDomainError("word contains', 'raise ValueError("word contains',
           "profile: a triple letter raises a plain ValueError"),
    Mutant("sequences.py", "if not isinstance(d, int) or d < 1:", "if d < 1:",
           "_entries: entries of any type accepted"),
    Mutant("sequences.py", "or d < 1:", "or d == 0:",
           "_entries: negative entries accepted"),
    Mutant("factorization.py", 'if letter not in ("0", "1"):', 'if letter not in "01":',
           "_check_start_letter: any substring of 01 accepted"),
    Mutant("sequences.py", "lam, mu = _entries(lam), _entries(mu)", "lam, mu = tuple(lam), tuple(mu)",
           "PartitionPair.__new__: entries not checked"),
    Mutant("sequences.py", "return cls(*iterable)", "return tuple.__new__(cls, iterable)",
           "PartitionPair._make skips __new__"),
    Mutant("intersect.py", "or e < 1:", "or e < 0:",
           "QuadExponents.__new__: exponent 0 accepted"),
    Mutant("intersect.py", "return cls(*iterable)", "return tuple.__new__(cls, iterable)",
           "QuadExponents._make skips __new__"),
    Mutant("sequences.py", 'raise NotInXError(f"sequence {s} has a valley; no pair encoding exists")',
           "return set()",
           "sequence_to_pairs: a sequence with a valley has no pairs"),
    Mutant("counting.py", "except KeyError:", "except IndexError:",
           "CountTable.column: an unknown name raises KeyError"),
    # parse_sequence and its messages
    Mutant("sequences.py", 's.startswith("(") and s.endswith(")")', 's.startswith("(") or s.endswith(")")',
           "parse_sequence: one parenthesis suffices"),
    Mutant("sequences.py", "if not inner:", 'if not inner.rstrip(","):',
           "parse_sequence: a lone comma is a trailing comma"),
    Mutant("sequences.py", "if not inner:", "if not s:",
           "parse_sequence: the empty test reads the whole text"),
    Mutant("sequences.py", "inner = inner[:-1]", "inner = inner",
           "parse_sequence: a trailing comma kept"),
    Mutant("sequences.py", "in sequence {_echo(text)}", "in sequence {_echo(part)}",
           "parse_sequence: the message quotes the entry"),
    # the renderers
    Mutant("sequences.py", '",".join(str(d)', '", ".join(str(d)',
           "format_sequence: a space after each comma"),
    Mutant("counting.py", 'zip(*fields))]) + "\\n"', "zip(*fields))])",
           "CountTable.to_csv: no newline after the last row"),
    Mutant("counting.py", "enumerate(self.column(column))", "enumerate(self.column(column), 1)",
           "CountTable.to_bfile: indices from 1"),
    Mutant("cli.py", 'args.column or "c"', 'args.column or "v"',
           "cmd_count: the b-file defaults to column v"),
    Mutant("cli.py", "if mantissa >= 10.0:", "if mantissa > 10.0:",
           "_format_estimate: a mantissa rounded to 10 is not carried"),
    Mutant("bruteforce.py", "expected={d.expected} got={d.got}", "expected={d.got} got={d.expected}",
           "CrossCheckReport.as_text: expected and got swapped"),
    Mutant("bruteforce.py", "{d.side},{d.expected},{d.got}", "{d.side},{d.got},{d.expected}",
           "CrossCheckReport.as_csv: expected and got swapped"),
    Mutant("intersect.py", "{len(self.mismatches)} mismatches", "{self.total_cases} mismatches",
           "IntersectionReport.as_text: counts the cases as mismatches"),
    Mutant("intersect.py", "{str(c.in_l).lower()},{str(c.predicate).lower()}",
           "{str(c.predicate).lower()},{str(c.in_l).lower()}",
           "IntersectionReport.as_csv: in_L and predicate swapped"),
    # the estimate past the float range
    Mutant("counting.py", "value = math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf",
           "value = math.inf",
           "asymptotic_u_tilde: inf as soon as exp() overflows"),
    Mutant("counting.py", "root = math.sqrt(m) if m <= _FLOAT_MAX_INT else float(math.isqrt(m))",
           "root = math.sqrt(m)",
           "_log_estimate: inf as soon as 24n-1 leaves the float range"),
    Mutant("counting.py", "except OverflowError:\n        return math.inf",
           "except ZeroDivisionError:\n        return math.inf",
           "_log_estimate: a root past the float range raises"),
    Mutant("cli.py", "_ASYM_LOG10_LIMIT = 1e15", "_ASYM_LOG10_LIMIT = math.inf",
           "cmd_asym: no refusal from n ~ 1e30"),
    Mutant("counting.py", "int(math.isqrt(8 * n + 1) ** 2 == 8 * n + 1)",
           "float(math.isqrt(8 * n + 1) ** 2 == 8 * n + 1)",
           "gf_u_tilde: the series in floats"),
    # the package's lazy namespace and the CLI's lazy imports
    Mutant("__init__.py", "public += module.__all__", "public += module.__all__[1:]",
           "__getattr__: __all__ drops each module's first name"),
    Mutant("__init__.py", 'sorted({*globals(), *__getattr__("__all__")})', "sorted(globals())",
           "__dir__: only the names bound so far"),
    Mutant("cli.py", "from .words import find_xxrx_instance", "from . import find_xxrx_instance",
           "cmd_check: imports through the package, which loads every module"),
    Mutant("cli.py", "from . import __version__", "from . import __version__, cache",
           "cli: the table memo loaded at import"),
    Mutant("cli.py", 'version=f"%(prog)s {__version__}"', "version=__version__",
           "--version: no program name"),
    Mutant("_backend.py", "BACKEND, is_member, profile_of, scan_xxrx", "BACKEND, is_member, scan_xxrx",
           "_backend without profile_of"),
    # the table memo
    Mutant("cache.py", "if table is None or table.limit < limit:", "if table is None:",
           "cached_table: the memo never grows"),
    Mutant("cache.py", "col[: limit + 1]", "col[:limit]",
           "cached_table: a slice one entry short"),
    # the exit codes of the other rejections
    Mutant("cli.py", "return EXIT_FAIL if domain else EXIT_USAGE", "return EXIT_FAIL",
           "main: every ValueError exits 1"),
    Mutant("cli.py", "(FactorDomainError, ProfileError, _Refused)", "(FactorDomainError, _Refused)",
           "main: ProfileError exits 2"),
    # _scan_py: scan_xxrx's choice between the first 000 and a 111, a word
    # with no instance, the blocks it tests, and the kernels' other bounds
    Mutant("_scan_py.py", "return (i1 if 0 <= i1 < i0 else i0, 1)", "return (i0, 1)",
           "scan_xxrx: an earlier 111 passed over for the 000"),
    Mutant("_scan_py.py", "0 <= i1 < i0", "0 <= i1",
           "scan_xxrx: a later 111 taken over the 000"),
    Mutant("_scan_py.py", "found = None", "found = (0, 0)",
           "scan_xxrx: a word with no instance reports (0, 0)"),
    Mutant("_scan_py.py", "for t in blocks[1:-1]:", "for t in blocks[:-1]:",
           "scan_xxrx: the first block tested as an x^R"),
    Mutant("_scan_py.py", 'w.find(b"000", 0, _PREFIX)', 'w.find(b"000", 0, _PREFIX - 1)',
           "is_member: the searched prefix one letter short"),
    Mutant("_scan_py.py", "if not w:", 'if w == "":',
           "profile_of: the empty word tested as a str"),
    # the quadruple family
    Mutant("intersect.py", "i, j, k, l = e\n    return (i < j", "i, j, l, k = e\n    return (i < j",
           "quad_predicate: k and l swapped"),
    Mutant("intersect.py", '"01" * i + "10" * j', '"01" * j + "10" * i',
           "build_quad_word: i and j swapped"),
    # each record's __slots__ = (), named by the field annotated after it
    *(
        Mutant(path, f"__slots__ = ()\n    {field}:", f"{field}:", f"{record}: instances get a __dict__")
        for path, record, field in [
            ("words.py", "PatternInstance", "start"),
            ("factorization.py", "Factorization", "start_letter"),
            ("sequences.py", "PartitionPair", "lam"),
            ("counting.py", "CountTable", "limit"),
            ("counting.py", "AsymptoticEstimate", "n"),
            ("intersect.py", "QuadExponents", "i"),
            ("intersect.py", "QuadCase", "exponents"),
            ("intersect.py", "IntersectionReport", "max_exp"),
            ("bruteforce.py", "Discrepancy", "n"),
            ("bruteforce.py", "CrossCheckReport", "max_word_len"),
        ]
    ),
]


# the Tier-1 ids that no one-line change to src/xxrx/ can make fail, each
# with the reason
UNMEASURED = {
    "tests/test_cache.py::test_cache_is_isolated_per_test":
        "tests the file's autouse fixture, which clears the memo; it calls nothing in src/",
    "tests/test_sequences.py::test_distinct_partitions_helper_is_sane":
        "tests helpers.distinct_partitions, which calls nothing in src/",
    "tests/test_words.py::test_complement_reverse_examples":
        "tests helpers.complement and helpers.reverse, which call nothing in src/",
    **dict.fromkeys(
        (
            f"tests/test_cli.py::test_removed_commands_are_usage_errors[{cmdline}]"
            for cmdline in ("bench", "gf 8", "check --naive 00", "oeis-compare b261204.txt")
        ),
        "argparse refuses a command or option that cli.py does not define; a one-line"
        " change can drop a definition, not bring a removed command back",
    ),
}


def _copy(mutant: Mutant | None, dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=SKIP)
    if mutant is not None:
        path = dest / "src" / "xxrx" / mutant.path
        path.write_text(path.read_text().replace(mutant.old, mutant.new))


def _tier1(mutant: Mutant | None, *options: str) -> subprocess.CompletedProcess:
    """The Tier-1 command, with options added, run in a copy with the
    mutant applied."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        _copy(mutant, copy)
        return subprocess.run(
            [*TIER1, *options], cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )


def collected_ids() -> list[str]:
    """The Tier-1 ids, as the failing ones are named."""
    return [line for line in _tier1(None, "--collect-only").stdout.splitlines() if "::" in line]


def failing_ids(mutant: Mutant | None) -> list[str]:
    """The Tier-1 ids that fail on a copy with the mutant applied."""
    try:
        run = _tier1(mutant)
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


def stale(collected: list[str]) -> list[str]:
    """The mutants whose old text does not occur exactly once, and the
    unmeasured tests that are not collected."""
    return [
        f"{m.label}: {m.old!r} occurs {n} times in {m.path}"
        for m in MUTANTS
        if (n := (ROOT / "src" / "xxrx" / m.path).read_text().count(m.old)) != 1
    ] + [f"{test}: listed as unmeasured, not collected" for test in UNMEASURED if test not in collected]


def main() -> int:
    collected = collected_ids()
    faults = stale(collected)
    if faults:
        print("\n".join(faults), file=sys.stderr)
        return 2
    base = failing_ids(None)
    if base:
        print(f"the unmutated copy fails: {base}", file=sys.stderr)
        return 2
    table, wrong = {}, []
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for i, (m, ids) in enumerate(zip(MUTANTS, pool.map(failing_ids, MUTANTS)), 1):
            table[m.label] = ids
            print(f"[{i}/{len(MUTANTS)}] {len(ids)} {m.label}", file=sys.stderr)
            if bool(ids) == (m.equivalent is not None):
                wrong.append(f"{'killed' if ids else 'survived'}: {m.label}")
    print(json.dumps(table, indent=1))
    kills = Counter(test for ids in table.values() for test in ids)
    wrong += [
        f"listed as unmeasured, kills {kills[test]}: {test}" if kills[test] else f"kills nothing: {test}"
        for test in collected
        if bool(kills[test]) == (test in UNMEASURED)
    ]
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
