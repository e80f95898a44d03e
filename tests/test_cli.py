import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xxrx
from xxrx import CountTable, factorization, find_xxrx_instance, intersect, words
from xxrx.cli import main
from xxrx.counting import MAX_TABLE_LIMIT
from xxrx.intersect import MAX_QUAD_EXPONENT

U_ROW = [1, 2, 3, 6, 9, 14, 22, 32, 46, 66, 93, 128, 176]
C_ROW = [1, 2, 4, 6, 10, 16, 24, 34, 50, 72, 100, 138, 188]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_is_one_scan(capsys, monkeypatch):
    # the verdict and the instance come from one find_xxrx_instance
    # call; the linear recognizer's kernel, as factorization binds it, is
    # not reached
    def no_kernel(word):
        raise AssertionError("is_member called")

    scans = []

    def scan(word):
        scans.append(word)
        return find_xxrx_instance(word)

    monkeypatch.setattr(factorization, "is_member", no_kernel)
    # cmd_check imports find_xxrx_instance from words when it runs
    monkeypatch.setattr(words, "find_xxrx_instance", scan)
    member = xxrx.reconstruct("0", range(1, 60))
    for word, want in [
        ("00", (0, "IN_L\n")),
        (member, (0, "IN_L\n")),
        ("000", (1, "instance (0,1)\n")),
        ("010110100101", (1, "instance (0,4)\n")),
        (member + "000", (1, f"instance ({len(member)},1)\n")),
    ]:
        scans.clear()
        code, out, err = run(capsys, "check", word)
        assert (code, out, err) == (*want, "")
        assert scans == [word]


def test_check_empty_word(capsys):
    code, out, _ = run(capsys, "check", "")
    assert code == 0 and out == "IN_L\n"


def test_factor_and_invert_round_trip(capsys):
    code, out, _ = run(capsys, "factor", "010110100101")
    assert code == 0 and out == "start=0 profile=(4,4,4)\n"
    code, out, _ = run(capsys, "invert", "0", "(4,4,4)")
    assert code == 0 and out == "010110100101\n"


def test_factor_empty_word(capsys):
    code, out, _ = run(capsys, "factor", "")
    assert code == 0 and out == "start=- profile=()\n"


def test_invert_into_closed_pipe_exits_cleanly():
    env = dict(os.environ, PYTHONPATH=str(Path(xxrx.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "xxrx.cli", "invert", "0", "(10000000)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    # a reader like `head -c 10`: far more than a pipe buffer is left unread
    assert proc.stdout.read(10) == b"0101010101"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_invert_empty_profile(capsys):
    code, out, _ = run(capsys, "invert", "0", "()")
    assert code == 0 and out == "\n"


def test_count_zero(capsys):
    code, out, _ = run(capsys, "count", "0")
    assert code == 0
    assert out == "n,u_tilde,v,c\n0,1,1,1\n"


def test_count_full_csv(capsys):
    code, out, _ = run(capsys, "count", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,u_tilde,v,c"
    assert lines[1] == "0,1,1,1"
    assert lines[13] == "12,176,94,188"


def test_count_single_column_csv(capsys):
    code, out, _ = run(capsys, "count", "12", "--column", "c")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,c"
    assert [int(line.split(",")[1]) for line in lines[1:]] == C_ROW


def test_count_bfile(capsys):
    code, out, _ = run(capsys, "count", "12", "--column", "u", "--format", "bfile")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 1"
    assert lines[-1] == "12 176"
    assert [int(line.split()[1]) for line in lines] == U_ROW


def test_count_bfile_defaults_to_c(capsys):
    code, out, _ = run(capsys, "count", "5", "--format", "bfile")
    assert code == 0
    assert [int(line.split()[1]) for line in out.splitlines()] == C_ROW[:6]


def test_table_cap(capsys, monkeypatch):
    built = []

    def fake_build(limit):
        built.append(limit)
        return CountTable(2, (1, 2, 3), (1, 1, 2), (1, 2, 4))

    monkeypatch.setattr(CountTable, "build", fake_build)
    code, _, err = run(capsys, "count", str(MAX_TABLE_LIMIT))
    assert code == 0 and err == "" and built == [MAX_TABLE_LIMIT]
    code, out, err = run(capsys, "count", str(MAX_TABLE_LIMIT + 1))
    assert code == 1 and out == "" and err.startswith("error:")
    # no table was built above the cap
    assert built == [MAX_TABLE_LIMIT]


def test_cli_writes_no_file(monkeypatch, tmp_path, capsys):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    monkeypatch.chdir(home)
    assert main(["count", "30"]) == 0
    assert main(["asym", "5"]) == 0
    assert capsys.readouterr().err == ""
    assert list(home.iterdir()) == []


def test_asym_with_exact(capsys):
    # the exact value comes with the estimate up to n = 1000, and no further
    for n, exact in ((12, 176), (1000, 151659161202845080075257381356544), (1001, None)):
        code, out, _ = run(capsys, "asym", str(n))
        assert code == 0 and out.startswith(f"n={n} estimate=")
        assert (f" exact={exact} rel_err=" in out) if exact else ("exact=" not in out)


def test_asym_beyond_float_range(capsys):
    for n, estimate in [
        # mantissa pinned from a 50-digit evaluation of the same formula
        (100000, "5.4176144942e+347"),
        # log10 of the estimate is 99999999.99999988: its mantissa rounds
        # up to 10, which carries into the power of ten
        (8057920932515528, "1.00000e+100000000"),
    ]:
        code, out, err = run(capsys, "asym", str(n))
        assert code == 0 and err == ""
        assert out == f"n={n} estimate={estimate}\n"


@pytest.mark.parametrize("exponent", [100, 400, 700])
def test_asym_past_known_exponent_digits(capsys, exponent):
    # from n ~ 1e30 a double logarithm no longer fixes the power of ten;
    # 24n-1 leaves the float range at n ~ 7e306, its root at n ~ 1e615
    code, out, err = run(capsys, "asym", str(10**exponent))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_oracle_clean(capsys):
    code, out, _ = run(capsys, "oracle", "--words", "6", "--seq", "8")
    assert code == 0
    assert "all counts agree" in out


def test_oracle_csv_format(capsys):
    code, out, _ = run(capsys, "oracle", "--words", "4", "--seq", "4", "--format", "csv")
    assert code == 0
    assert out == "n,side,expected,got\n"


def test_cfl_verify(capsys, monkeypatch):
    code, out, _ = run(capsys, "cfl-verify", "--max-exp", "3")
    assert code == 0
    assert "agree everywhere" in out
    # the scan at its exponent cap, on 10^4 words, inside a 20 s budget
    outs = {}
    for fmt in ("text", "csv"):
        start = time.perf_counter()
        code, outs[fmt], err = run(
            capsys, "cfl-verify", "--max-exp", str(MAX_QUAD_EXPONENT), "--format", fmt
        )
        assert time.perf_counter() - start < 20
        assert code == 0 and err == ""
    assert "agree everywhere" in outs["text"]
    assert outs["csv"] == "i,j,k,l,in_L,predicate\n"
    # a disagreement exits 1
    monkeypatch.setattr(intersect, "quad_predicate", lambda e: True)
    assert run(capsys, "cfl-verify", "--max-exp", "2")[0] == 1


# every rejection branch with its exit code and its one stderr line
@pytest.mark.parametrize(
    "argv, want_code, want_err",
    [
        (["check", "0a1"], 2, "word symbols must be '0' or '1', found 'a'"),
        (["factor", "000"], 1, "word contains 000 or 111; factorization undefined"),
        (["invert", "x", "(2,2)"], 2, "start letter must be '0' or '1', not 'x'"),
        (["invert", "0", "(0)"], 1, "sequence entries must be positive integers, found 0"),
        (["invert", "0", "(a)"], 2, "non-integer entry in sequence '(a)'"),
        (["count", "--", "-3"], 2, "N must be nonnegative"),
        (["count", "10001"], 1, "table index 10001 is above the cap of 10000"),
        (["asym", "0"], 2, "n must be at least 1"),
        (
            ["asym", str(10**100)],
            1,
            "n too large: the estimate's power of ten reaches 10^15, where a "
            "double-precision logarithm no longer fixes its last digit (n ~ 1e30)",
        ),
        (["oracle", "--words", "99", "--seq", "4"], 2, "word side limited to 0 <= n <= 24"),
        (["cfl-verify", "--max-exp", "0"], 2, "max_exp must be between 1 and 10"),
        pytest.param(
            ["invert", "0", "(" + "9" * 5000 + ")"],
            2,
            f"entry too long (5000 digits, limit {sys.get_int_max_str_digits()}) "
            f"in sequence '({'9' * 59}'…",
            id="invert-5000-digit-entry",
        ),
        pytest.param(
            ["invert", "x" * 300, "(2,2)"],
            2,
            f"start letter must be '0' or '1', not '{'x' * 60}'…",
            id="invert-long-start-letter",
        ),
        pytest.param(
            ["invert", "0", "(,)"],
            2,
            "non-integer entry in sequence '(,)'",
            id="invert-comma-only-profile",
        ),
        pytest.param(
            ["factor", "0x0"],
            2,
            "word symbols must be '0' or '1', found 'x'",
            id="factor-bad-symbol",
        ),
        pytest.param(
            ["invert", "0", "(1,1,1)"],
            1,
            "interior profile entries must be at least 2, found 1",
            id="invert-interior-entry-one",
        ),
        pytest.param(
            ["invert", "0", "1,1"],
            2,
            "expected a parenthesized sequence, got '1,1'",
            id="invert-unparenthesized-profile",
        ),
        pytest.param(
            ["invert", "0", "(10000000000)"],
            1,
            "profile weight 10000000000 exceeds 10000000 letters",
            id="invert-over-the-length-cap",
        ),
    ],
)
def test_rejection_exit_code_and_message(capsys, argv, want_code, want_err):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (want_code, "", f"error: {want_err}\n")


@pytest.mark.parametrize(
    "cmdline", ["bench", "gf 8", "check --naive 00", "oeis-compare b261204.txt"]
)
def test_removed_commands_are_usage_errors(capsys, cmdline):
    with pytest.raises(SystemExit) as info:
        main(cmdline.split())
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def _cat(*parts):
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


def _arg(values):
    return values.map(lambda v: [v])


def _opt(flag, values):
    return st.just([]) | values.map(lambda v: [flag, v])


def _num(lo, hi):
    return st.integers(lo, hi).map(str)


_words = st.text() | st.text(alphabet="01")
_profiles = st.text() | st.lists(st.integers(-1, 9), max_size=6).map(
    lambda p: "(" + ",".join(map(str, p)) + ")"
)
_formats = st.sampled_from(["text", "csv", "bfile", "x"])

# count and oracle stay cheap inside these bounds (count above the table
# cap is refused before any build); oracle and cfl-verify
# always get their size options, since their defaults take ~0.2 s a call
_argv = st.one_of(
    _cat(st.just(["check"]), _arg(_words)),
    _cat(st.just(["factor"]), _arg(_words)),
    _cat(st.just(["invert"]), _arg(st.text(max_size=2)), _arg(_profiles)),
    _cat(
        st.just(["count"]),
        _arg(_num(-3, 60) | _num(MAX_TABLE_LIMIT + 1, MAX_TABLE_LIMIT + 99)),
        _opt("--column", st.sampled_from("cvux")),
        _opt("--format", _formats),
    ),
    _cat(st.just(["asym"]), _arg(st.integers(min_value=-3).map(str) | st.text())),
    _cat(
        st.just(["oracle", "--words"]),
        _arg(_num(-3, 10) | _num(25, 10**6)),
        st.just(["--seq"]),
        _arg(_num(-3, 12) | _num(41, 10**6)),
        _opt("--format", _formats),
    ),
    _cat(
        st.just(["cfl-verify", "--max-exp"]),
        _arg(_num(-3, 4) | _num(11, 10**6)),
        _opt("--format", _formats),
    ),
)


@settings(deadline=None)
@given(_argv)
@example(["asym", str(10**100)])
@example(["asym", str(10**400)])
@example(["asym", str(10**700)])
def test_argv_fuzz_exits_cleanly(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "xxrx" in capsys.readouterr().out
