"""Command-line front end.

Each subcommand makes one library call and imports only the modules it
needs, when it runs, and prints its result through one renderer.  So
``import xxrx.cli`` loads no library module (``xxrx/__init__`` binds
only ``__version__`` at import): ``check`` loads ``words`` and the
kernels, ``asym`` loads ``counting``, and no command compiles the
oracles unless it calls them.  A process keeps nothing between calls:
``count`` builds the one CountTable it prints, and ``asym`` the one
u_tilde series it needs.

Exit codes follow one convention across subcommands: 0 for success or a
positive verdict, 1 for a negative verdict or a domain rejection, 2 for
input that cannot be parsed at all.  Each subcommand returns only its
verdict (0, or 1 for a word not in the language, a count mismatch or a
failed scan) and raises every rejection; ``main`` alone turns a raised
``ValueError`` into an ``error:`` line and an exit code:

- ``FactorDomainError`` (a word with 000 or 111), ``ProfileError`` (a
  profile no word has) and the CLI's own refusals (a table above the
  cap, ``asym`` from n ~ 1e30) exit 1;
- any other ``ValueError`` exits 2: a negative N, n < 1, a symbol
  other than 0 or 1, an unparsable profile or start letter, an oracle or
  scan range out of bounds.

A reader that closes the output early ends the process with 1 and no
traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# exact values accompany the asymptotic estimate up to this index
_ASYM_EXACT_LIMIT = 1000
# from here on (n ~ 1e30) a double-precision logarithm no longer fixes
# the last digit of the estimate's power of ten
_ASYM_LOG10_LIMIT = 1e15


class _Refused(ValueError):
    """A domain rejection made by the CLI itself; exits 1."""


def cmd_check(args: argparse.Namespace) -> int:
    from .words import find_xxrx_instance

    instance = find_xxrx_instance(args.word)
    if instance is None:
        print("IN_L")
        return EXIT_OK
    print(f"instance ({instance.start},{instance.block_len})")
    return EXIT_FAIL


def cmd_factor(args: argparse.Namespace) -> int:
    from .factorization import factorize
    from .sequences import format_sequence

    f = factorize(args.word)
    print(f"start={f.start_letter or '-'} profile={format_sequence(f.profile)}")
    return EXIT_OK


def cmd_invert(args: argparse.Namespace) -> int:
    from .factorization import reconstruct
    from .sequences import parse_sequence

    print(reconstruct(args.start, parse_sequence(args.profile)))
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    from .counting import MAX_TABLE_LIMIT, CountTable

    if args.limit > MAX_TABLE_LIMIT:
        raise _Refused(f"table index {args.limit} is above the cap of {MAX_TABLE_LIMIT}")
    table = CountTable.build(args.limit)
    if args.format == "bfile":
        sys.stdout.write(table.to_bfile(args.column or "c"))
    else:
        sys.stdout.write(table.to_csv(args.column))
    return EXIT_OK


def _format_estimate(est) -> str:
    """An AsymptoticEstimate's float repr while it is finite, else
    mantissa and power of ten taken from the logarithm.

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
    from .counting import asymptotic_u_tilde, gf_u_tilde

    exact = None
    if 1 <= args.n <= _ASYM_EXACT_LIMIT:
        exact = gf_u_tilde(args.n)[args.n]
    est = asymptotic_u_tilde(args.n, exact)
    if est.log10_value >= _ASYM_LOG10_LIMIT:
        raise _Refused(
            "n too large: the estimate's power of ten reaches 10^15, where a "
            "double-precision logarithm no longer fixes its last digit (n ~ 1e30)"
        )
    line = f"n={est.n} estimate={_format_estimate(est)}"
    if exact is not None:
        line += f" exact={exact} rel_err={est.relative_error_vs_exact:.6e}"
    print(line)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    """``oracle`` and ``cfl-verify``: the report that ``args.report``
    makes, in the chosen format; exit 1 when it finds a disagreement."""
    report = args.report(args)
    sys.stdout.write(report.as_csv() if args.format == "csv" else report.as_text())
    return EXIT_OK if report.ok else EXIT_FAIL


def _oracle_report(args: argparse.Namespace):
    from .bruteforce import cross_check

    return cross_check(args.words, args.seq)


def _quad_report(args: argparse.Namespace):
    from .intersect import verify_intersection_claim

    return verify_intersection_claim(args.max_exp)


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
    p.set_defaults(func=cmd_report, report=_oracle_report)

    p = sub.add_parser("cfl-verify", help="scan the quadruple family against its predicate")
    p.add_argument("--max-exp", type=int, default=8, dest="max_exp")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_report, report=_quad_report)

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
    except ValueError as exc:
        from .factorization import FactorDomainError, ProfileError

        print(f"error: {exc}", file=sys.stderr)
        # rejections of well-formed input exit 1; every other ValueError exits 2
        domain = isinstance(exc, (FactorDomainError, ProfileError, _Refused))
        return EXIT_FAIL if domain else EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
