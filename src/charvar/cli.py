"""Command-line front end: compute invariants, run checks, count over groups.

Subcommands and exit codes:

  charvar compute --kind E|hqt|hxy|pp --n N --g G [--format text|json]
  charvar check   --suite SUITE|all --n N --g G [--format text|json]
  charvar count   --family gl|sl --q Q --g G --zeta-order N [--oracle brute|character|both]
  charvar cache   --list | --clear

  0 success, 1 check/agreement failure, 2 usage error (also a SUITE of
  invariants.SUITES that does not apply at (n, g), or a central element of
  --zeta-order the group lacks), 3 internal assertion (a polynomiality/
  integrality failure, whose diagnostic compute writes to stdout, or any other
  internal error).  Commands raise; main maps each error to its code and one
  stderr line.  A closed stdout ends the process by SIGPIPE, as it does cat.

Output is byte-deterministic: JSON documents are canonical (sorted keys,
compact separators, one trailing newline) and text output uses the canonical
ascending term order.  The cache directory is --cache-dir, else the
CHARVAR_CACHE_DIR environment variable, else ./.charvar-cache.  A cached
document is served only when it is byte for byte the canonical document that
its stored terms give for the requested key, with dimension and attached checks
recomputed; anything else is a miss that is recomputed and overwritten.
"""

from __future__ import annotations

import argparse
import functools
import os
import signal
import sys

from .characters import character_table, frobenius_sums
from .errors import (
    CentralElementUnavailable,
    CharvarError,
    GroupTooLarge,
    KindMismatch,
    NonIntegerCoefficient,
    NotPolynomial,
    UnsupportedGenus,
)
from .groups import build_group, tuple_count
from .invariants import (
    DOCUMENT_VERSION,
    SUITES,
    InvariantCache,
    compute_invariant,
    document_bytes,
    parse_kind,
    run_check,
)
from .polynomials import poly_text

DEFAULT_CACHE_DIR = ".charvar-cache"
CACHE_ENV_VAR = "CHARVAR_CACHE_DIR"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ASSERTION = 3


def _cache_from(args) -> InvariantCache:
    root = args.cache_dir or os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR
    return InvariantCache(root)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charvar",
        description="Exact character-variety invariants and finite-group counting oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one invariant polynomial")
    p_compute.add_argument("--kind", required=True, help="E, hqt, hxy, or pp")
    p_compute.add_argument("--n", required=True, type=int)
    p_compute.add_argument("--g", required=True, type=int)
    p_compute.add_argument("--format", choices=("text", "json"), default="text")
    p_compute.add_argument("--cache-dir", default=None)
    p_compute.set_defaults(func=cmd_compute)

    p_check = sub.add_parser("check", help="run a conjecture-check suite")
    p_check.add_argument(
        "--suite",
        required=True,
        choices=(*SUITES, "all"),
    )
    p_check.add_argument("--n", required=True, type=int)
    p_check.add_argument("--g", required=True, type=int)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--cache-dir", default=None)
    p_check.set_defaults(func=cmd_check)

    p_count = sub.add_parser("count", help="count commutator-product tuples in a finite group")
    p_count.add_argument("--family", required=True, choices=("gl", "sl"))
    p_count.add_argument("--q", required=True, type=int)
    p_count.add_argument("--g", required=True, type=int)
    p_count.add_argument("--zeta-order", required=True, type=int)
    p_count.add_argument("--oracle", choices=("brute", "character", "both"), default="both")
    p_count.add_argument("--format", choices=("text", "json"), default="text")
    p_count.set_defaults(func=cmd_count)

    p_cache = sub.add_parser("cache", help="list or clear the result cache")
    mode = p_cache.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true", dest="do_list")
    mode.add_argument("--clear", action="store_true", dest="do_clear")
    p_cache.add_argument("--cache-dir", default=None)
    p_cache.set_defaults(func=cmd_cache)

    return parser


class _UsageError(Exception):
    """A value on the command line that the command cannot use."""


def _require_rank_and_genus(args) -> None:
    if args.n < 1 or args.g < 0:
        raise _UsageError("need --n >= 1 and --g >= 0")


def cmd_compute(args) -> int:
    kind = parse_kind(args.kind)
    _require_rank_and_genus(args)
    try:
        result = compute_invariant(kind, args.n, args.g, cache=_cache_from(args))
    except OSError as exc:
        raise _UsageError(f"cache directory unusable: {exc}") from exc
    except (NotPolynomial, NonIntegerCoefficient) as exc:
        diagnostic = {
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "kind": kind.value,
            "n": args.n,
            "g": args.g,
            "version": DOCUMENT_VERSION,
        }
        if args.format == "json":
            sys.stdout.buffer.write(document_bytes(diagnostic))
        else:
            print(f"error[{type(exc).__name__}]: {exc}")
        return EXIT_ASSERTION
    if args.format == "json":
        sys.stdout.buffer.write(result.canonical_bytes)
    else:
        print(poly_text(result.polynomial))
    return EXIT_OK


def cmd_check(args) -> int:
    _require_rank_and_genus(args)
    try:
        report = run_check(args.suite, args.n, args.g, cache=_cache_from(args))
    except OSError as exc:
        raise _UsageError(f"cache directory unusable: {exc}") from exc
    if args.format == "json":
        summary = {
            "suite": args.suite,
            "n": args.n,
            "g": args.g,
            "checks": report.to_json(),
            "passed": report.all_passed,
        }
        sys.stdout.buffer.write(document_bytes(summary))
    else:
        for name, entry in sorted(report.entries.items()):
            if entry.passed:
                print(f"PASS {name}" + (f": {entry.detail}" if entry.detail else ""))
            else:
                print(f"FAIL {name}: {entry.witness}")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_count(args) -> int:
    if args.g < 1:
        raise _UsageError("need --g >= 1")
    try:
        group = build_group(args.family.upper(), 2, args.q)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    xi = group.central_of_order(args.zeta_order)
    payload: dict = {
        "family": args.family,
        "q": args.q,
        "g": args.g,
        "zeta_order": args.zeta_order,
        "group_order": group.order,
    }
    counts = []
    if args.oracle in ("brute", "both"):
        payload["brute_tuples"] = tuple_count(group, args.g, xi)
        counts.append(payload["brute_tuples"])
    if args.oracle in ("character", "both"):
        sums = frobenius_sums(character_table(group), args.g, xi)
        payload["character_tuples"] = sums.tuple_prediction
        payload["point_formula"] = str(sums.point_count)
        counts.append(payload["character_tuples"])
    agreement = len(set(counts)) <= 1
    payload["agreement"] = agreement
    if args.format == "json":
        sys.stdout.buffer.write(document_bytes(payload))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")
    return EXIT_OK if agreement else EXIT_CHECK_FAILED


def cmd_cache(args) -> int:
    cache = _cache_from(args)
    try:
        if cache.root.exists():  # a missing directory is an empty cache
            cache.root.mkdir(exist_ok=True)  # FileExistsError if not a directory
        if args.do_clear:
            cache.clear()
            return EXIT_OK
        entries = cache.entries()
    except OSError as exc:
        raise _UsageError(str(exc)) from exc
    for kind, n, g in entries:
        print(f"{kind.value}/{n}/{g}")
    return EXIT_OK


# One parser per process, built on first use; parsing leaves no state in it.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # a count at large genus has thousands of digits
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (_UsageError, KindMismatch, UnsupportedGenus, GroupTooLarge,
            CentralElementUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CharvarError, AssertionError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


def console_main() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the process, as for cat
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
