import os
import subprocess
import sys
from pathlib import Path

import xxrx

SRC = Path(__file__).resolve().parents[1] / "src"


def test_public_names_are_unique_and_resolve():
    assert len(set(xxrx.__all__)) == len(xxrx.__all__)
    namespace = {}
    exec("from xxrx import *", namespace)
    assert set(xxrx.__all__) <= namespace.keys()
    # the table cap and the reconstruct bound are public through the package too
    assert {"BACKEND", "MAX_RECONSTRUCT_LEN", "MAX_TABLE_LIMIT", "__version__"} <= namespace.keys()


def test_cli_import_loads_no_dataclasses_inspect_ast_or_typing():
    # -S keeps site's own imports out; the records are named tuples, so
    # the package needs none of these; each command builds its own
    # table, so the CLI needs no table memo; and the package calls its
    # kernels from _scan_py, so it needs no _backend, the benchmark's shim
    code = (
        "import sys, xxrx.cli; print(xxrx.cli.__file__); "
        "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'typing', 'xxrx.cache', "
        "'xxrx._backend') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    path, loaded = proc.stdout.split("\n")[:2]
    assert Path(path).resolve().is_relative_to(SRC)
    assert loaded == ""
