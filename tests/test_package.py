import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import xxrx
from xxrx import bruteforce, counting, factorization, intersect, sequences, words

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"
BENCHMARK = SRC.parent / "BENCHMARK.json"

PUBLIC_NAMES = [
    "AsymptoticEstimate",
    "BACKEND",
    "CountTable",
    "CrossCheckReport",
    "Discrepancy",
    "FactorDomainError",
    "Factorization",
    "IntersectionReport",
    "MAX_BRUTE_SEQ_WEIGHT",
    "MAX_BRUTE_WORD_LEN",
    "MAX_RECONSTRUCT_LEN",
    "MAX_TABLE_LIMIT",
    "NotInXError",
    "PartitionPair",
    "PatternInstance",
    "ProfileError",
    "QuadCase",
    "QuadExponents",
    "__version__",
    "asymptotic_u_tilde",
    "avoids_xxrx_naive",
    "brute_count_words",
    "brute_count_x",
    "build_quad_word",
    "check_word",
    "count_c",
    "count_v",
    "cross_check",
    "factorize",
    "find_xxrx_instance",
    "format_sequence",
    "gf_u_tilde",
    "in_x",
    "is_in_l_linear",
    "iter_words_in_l",
    "iter_x_sequences",
    "parse_sequence",
    "profile",
    "quad_predicate",
    "reconstruct",
    "sequence_to_pairs",
    "verify_bounds",
    "verify_intersection_claim",
]

# per-layer rows of BENCHMARK.json whose subject the package no longer has
GONE_BENCHMARK_SUBJECTS = {
    "backend.count_members",
    "cache.load_column",
    "cache.store_column",
    "counting.type2_counts",
}


def run_bare(code):
    """stdout of code in a fresh interpreter under -S, which keeps site's
    own imports out, with the package from src/."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return proc.stdout


def test_public_surface_is_pinned():
    # a name added to or dropped from the API shows here, in review
    assert sorted(xxrx.__all__) == PUBLIC_NAMES


def _traced_rows():
    """(subject, module, dotted name) for each per-layer row of
    BENCHMARK.json that counts the calls or the self time of a function
    of a package module; the rows call ``_backend`` ``backend``."""
    rows = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    out = []
    for row in rows:
        subject, _, metric = row["name"].rpartition(".")
        short, _, qualname = subject.partition(".")
        module = "_backend" if short == "backend" else short
        if metric in ("calls", "self_s") and (SRC / "xxrx" / f"{module}.py").exists():
            out.append((subject, module, qualname))
    return out


def test_benchmark_rows_trace_public_functions():
    # a row whose function was pruned would read 0 without failing
    rows = _traced_rows()
    subjects = {subject for subject, _, _ in rows}
    assert GONE_BENCHMARK_SUBJECTS < subjects
    for subject, module, qualname in rows:
        mod = importlib.import_module(f"xxrx.{module}")
        head, *rest = qualname.split(".")
        if subject in GONE_BENCHMARK_SUBJECTS:
            assert not hasattr(mod, head), subject
            continue
        assert head in mod.__all__, subject
        obj = getattr(mod, head)
        for attr in rest:
            obj = getattr(obj, attr)
        assert callable(obj), subject


def test_cli_loads_only_the_modules_a_command_calls():
    # the package binds only __version__ at import, so the CLI loads no
    # table memo and no _backend, the benchmark's shim; and each
    # subcommand imports what it calls when it runs: check needs words,
    # whose kernel module _scan_py takes the valley test from sequences.
    # -S keeps site's own imports out; the records are named tuples, so
    # the package needs none of dataclasses, inspect, ast and typing
    show = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'xxrx'))"
    stdlib = "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'typing') if m in sys.modules])"
    out = run_bare(
        f"import sys, xxrx.cli; print(xxrx.cli.__file__); {show}; {stdlib}; "
        f"xxrx.cli.main(['check', '000']); {show}"
    )
    path, at_import, loaded, _, after_check = out.split("\n")[:5]
    assert Path(path).resolve().is_relative_to(SRC)
    assert at_import == "xxrx xxrx.cli" and loaded == ""
    assert after_check == "xxrx xxrx._scan_py xxrx.cli xxrx.sequences xxrx.words"


def test_all_lists_the_modules_names_in_order():
    assert xxrx.__all__ == [
        "BACKEND",
        *bruteforce.__all__,
        *counting.__all__,
        *factorization.__all__,
        *intersect.__all__,
        *sequences.__all__,
        *words.__all__,
        "__version__",
    ]
    # the first name asked of a fresh package loads the submodules too,
    # and dir() lists the public names
    assert run_bare("import xxrx; print(xxrx.words.__name__)") == "xxrx.words\n"
    assert run_bare("import xxrx; print('profile' in dir(xxrx))") == "True\n"


def test_readme_examples_run_on_a_fresh_package():
    # in a fresh interpreter, so the examples reach every name through
    # the package's first load
    code = (
        "import doctest; "
        f"r = doctest.testfile({str(README)!r}, module_relative=False); "
        "print(r.attempted, r.failed)"
    )
    examples = README.read_text(encoding="utf-8").count("\n>>> ")
    assert examples >= 8
    assert run_bare(code) == f"{examples} 0\n"
