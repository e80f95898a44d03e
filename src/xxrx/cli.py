"""Command-line front end.

Exit codes follow one convention across subcommands: 0 for success or a
positive verdict, 1 for a negative verdict or a domain rejection (word
not in the language, count mismatch, impossible profile, table above
the cap), 2 for input that cannot be parsed at all.  A reader that
closes the output early ends the process with 1 and no traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .bruteforce import cross_check
from .cache import cached_table
from .counting import (
    COLUMN_ALIASES,
    MAX_TABLE_LIMIT,
    AsymptoticEstimate,
    asymptotic_u_tilde,
)
from .factorization import (
    FactorDomainError,
    ProfileError,
    factorize,
    is_in_l_linear,
    parse_profile,
    reconstruct,
)
from .intersect import verify_intersection_claim
from .oeis import KNOWN_SEQUENCE_IDS, BFileParseError, compare_values, format_bfile, read_bfile
from .sequences import format_sequence
from .words import find_xxrx_instance

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# exact values accompany the asymptotic estimate up to this index
_ASYM_EXACT_LIMIT = 1000
# from here on (n ~ 1e30) a double-precision logarithm no longer fixes
# the last digit of the estimate's power of ten
_ASYM_LOG10_LIMIT = 1e15


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _over_table_cap(limit: int) -> bool:
    if limit <= MAX_TABLE_LIMIT:
        return False
    print(f"error: table index {limit} is above the cap of {MAX_TABLE_LIMIT}", file=sys.stderr)
    return True


def cmd_check(args: argparse.Namespace) -> int:
    try:
        in_l = is_in_l_linear(args.word)
    except ValueError as exc:
        return _fail(str(exc))
    if in_l:
        print("IN_L")
        return EXIT_OK
    instance = find_xxrx_instance(args.word)
    print(f"instance ({instance.start},{instance.block_len})")
    return EXIT_FAIL


def cmd_factor(args: argparse.Namespace) -> int:
    try:
        f = factorize(args.word)
    except FactorDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        return _fail(str(exc))
    print(f"start={f.start_letter or '-'} profile={format_sequence(f.profile)}")
    return EXIT_OK


def cmd_invert(args: argparse.Namespace) -> int:
    if args.start not in ("0", "1"):
        return _fail(f"start letter must be 0 or 1, not {args.start!r}")
    try:
        word = reconstruct(args.start, parse_profile(args.profile))
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        return _fail(str(exc))
    print(word)
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    if args.limit < 0:
        return _fail("N must be nonnegative")
    if _over_table_cap(args.limit):
        return EXIT_FAIL
    table = cached_table(args.limit)
    if args.format == "bfile":
        name = COLUMN_ALIASES[args.column or "c"]
        sys.stdout.write(format_bfile(table.column(name)))
    elif args.column is None:
        sys.stdout.write(table.to_csv())
    else:
        name = COLUMN_ALIASES[args.column]
        values = table.column(name)
        lines = [f"n,{name}"]
        lines.extend(f"{n},{values[n]}" for n in range(args.limit + 1))
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _format_estimate(est: AsymptoticEstimate) -> str:
    """The float's repr while it is finite, else mantissa and power of
    ten taken from the logarithm.

    A double-precision logarithm L fixes the mantissa to about
    15 - log10(L) significant digits, so the printed decimals shrink as
    the exponent grows.
    """
    if math.isfinite(est.value):
        return repr(est.value)
    exponent = math.floor(est.log10_value)
    decimals = max(0, 13 - len(str(exponent)))
    mantissa = round(10.0 ** (est.log10_value - exponent), decimals)
    if mantissa >= 10.0:
        mantissa, exponent = mantissa / 10.0, exponent + 1
    return f"{mantissa:.{decimals}f}e+{exponent}"


def cmd_asym(args: argparse.Namespace) -> int:
    if args.n < 1:
        return _fail("n must be at least 1")
    exact = None
    if args.n <= _ASYM_EXACT_LIMIT:
        exact = cached_table(args.n).u_tilde[args.n]
    est = asymptotic_u_tilde(args.n, exact)
    if est.log10_value >= _ASYM_LOG10_LIMIT:
        print(
            "error: n too large: the estimate's power of ten reaches 10^15, where a "
            "double-precision logarithm no longer fixes its last digit (n ~ 1e30)",
            file=sys.stderr,
        )
        return EXIT_FAIL
    line = f"n={est.n} estimate={_format_estimate(est)}"
    if exact is not None:
        line += f" exact={exact} rel_err={est.relative_error_vs_exact:.6e}"
    print(line)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        report = cross_check(args.words, args.seq)
    except ValueError as exc:
        return _fail(str(exc))
    sys.stdout.write(report.as_csv() if args.format == "csv" else report.as_text())
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_cfl_verify(args: argparse.Namespace) -> int:
    try:
        report = verify_intersection_claim(args.max_exp)
    except ValueError as exc:
        return _fail(str(exc))
    sys.stdout.write(report.as_csv() if args.format == "csv" else report.as_text())
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_oeis_compare(args: argparse.Namespace) -> int:
    if _over_table_cap(args.limit):
        return EXIT_FAIL
    try:
        bfile = read_bfile(args.path)
    except BFileParseError as exc:
        return _fail(f"{args.path}: {exc}")
    except OSError as exc:
        return _fail(f"cannot read {args.path}: {exc}")
    name = COLUMN_ALIASES[args.column]
    expected_id = KNOWN_SEQUENCE_IDS.get(name)
    if bfile.sequence_id and expected_id and bfile.sequence_id != expected_id:
        print(
            f"warning: file names {bfile.sequence_id} but column {args.column} "
            f"is catalogued as {expected_id}",
            file=sys.stderr,
        )
    usable = [n for n, _ in bfile.entries if args.offset <= n <= args.limit]
    if not usable:
        print("warning: no overlapping indices; comparison is vacuous")
        return EXIT_OK
    # a negative offset asks for local indices beyond the b-file's
    top = max(usable) - args.offset
    if _over_table_cap(top):
        return EXIT_FAIL
    table = cached_table(top)
    mismatches, overlap = compare_values(bfile, table.column(name), args.offset)
    for m in mismatches:
        print(f"n={m.index} local={m.local} reference={m.reference}")
    if mismatches:
        print(f"{len(mismatches)} mismatches over {overlap} shared indices")
        return EXIT_FAIL
    print(f"ok: {overlap} shared indices agree")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxrx",
        description="Recognition and enumeration of binary words avoiding x x^R x.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test one word for membership")
    p.add_argument("word", help="binary word, e.g. 010110; empty string is the empty word")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("factor", help="print start letter and block profile of a word")
    p.add_argument("word")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("invert", help="rebuild the word from start letter and profile")
    p.add_argument("start", help="0 or 1")
    p.add_argument("profile", help='profile such as "(4,4,4)"; "()" for the empty word')
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("count", help="emit exact count tables up to N")
    p.add_argument("limit", type=int, metavar="N")
    p.add_argument("--column", choices=["c", "v", "u"], help="single column (default: all)")
    p.add_argument(
        "--format",
        choices=["csv", "bfile"],
        default="csv",
        help="bfile requires a single column and defaults it to c",
    )
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("asym", help="asymptotic estimate of u(n), with exact error when cheap")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("oracle", help="brute-force cross-check of the tables and bijection")
    p.add_argument("--words", type=int, default=12, help="max word length (default 12)")
    p.add_argument("--seq", type=int, default=25, help="max sequence weight (default 25)")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("cfl-verify", help="scan the quadruple family against its predicate")
    p.add_argument("--max-exp", type=int, default=8, dest="max_exp")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_cfl_verify)

    p = sub.add_parser("oeis-compare", help="diff a column against a downloaded b-file")
    p.add_argument("path")
    p.add_argument("--column", choices=["c", "v", "u"], default="c")
    p.add_argument("--limit", type=int, default=1000, help="largest index to compare")
    p.add_argument("--offset", type=int, default=0, help="index of the first local value")
    p.set_defaults(func=cmd_oeis_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; stdout still holds unwritten output, which
        # the interpreter would try to flush again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
