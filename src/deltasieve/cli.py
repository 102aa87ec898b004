"""Command-line harness.

One binary, four subcommands:

    deltasieve verify   --suite {arith,expsum,characters,oscint,density,sieve,poisson,all}
    deltasieve constant --theorem {1,2} --prime-bound P
    deltasieve count    --X 1 | --X 3,4,5,6 --mode {exact,smoothed}
    deltasieve balance  --preset paper | --terms FILE

Headers (version, resolved flags, wall clock) and the elapsed seconds of
``count`` go to stderr; the payload (JSON or CSV) goes to stdout or --out
and is byte-identical across reruns with the same flags and seed.

Exit codes: 0 success, 1 assertion/guard failure, 2 usage error (bad
arguments, a --seed below 0, a count X below 1, a malformed --terms file
or one with an unknown key, a DELTASIEVE_MAX_SECONDS that is not a finite
number >= 0, an --out path that cannot be written).  The environment
variable DELTASIEVE_MAX_SECONDS aborts long runs with exit 1 and no
payload: one budget per suite, checked after each of its checks; per
``count`` list, which counts each X once and compares each count with its
main term (``compare_main_term``); and per ``constant`` product, checked
once per window of its prime walk.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread unless the user sets one, before numpy loads: on a
# few cores the suites' many small matrix products run slower and vary
# more with a thread pool.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in PINNED_THREADS:
    os.environ.setdefault(_name, "1")

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import __version__
from .density import (
    ExponentTerm,
    balance_exponents,
    euler_product,
    paper_balance,
)
from .deadline import Deadline, TimeBudgetExceeded
from .sieve import CountConfig, compare_main_term, exact_count, smoothed_count
from .suites import run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# `constant --prime-bound 10**8` peaks at ~140 MiB RSS (measured): one P + 1
# byte prime bitmap, walked in 2^20-wide segments
MAX_PRIME_BOUND = 10**8


class UsageError(Exception):
    """A usage error found after parsing, such as an --out path that cannot
    be opened; `main` prints it and exits 2."""


def _emit(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _check_out(out: str | None):
    """Reject, before any work, an --out that is a directory or whose
    directory is missing or not writable; the file itself is not touched."""
    folder = os.path.dirname(os.path.abspath(out or "."))
    if out and (os.path.isdir(out) or not os.access(folder, os.W_OK)):
        raise UsageError(f"cannot write {out}: a directory, or in a missing or read-only one")


def _header(args: argparse.Namespace):
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(
        f"deltasieve {__version__} | {args.command} | flags={flags} | "
        f"wall-clock={time.strftime('%Y-%m-%dT%H:%M:%S')}",
        file=sys.stderr,
    )


def _rows_to_csv(rows) -> str:
    """CSV of nonempty dataclass or dict rows; the header is the first
    row's fields or keys, in order."""
    dicts = [asdict(r) if is_dataclass(r) else r for r in rows]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(list(dicts[0]))
    for d in dicts:
        w.writerow(list(d.values()))
    return buf.getvalue()


def render_verify(suite: str, seed: int, reports, fmt: str) -> tuple[str, dict[str, str]]:
    """The `verify` payload of `reports` in format `fmt` (json, text or
    csv), and for csv the side CSVs of the scan artifacts (omega, station,
    sj and main-term rows), keyed by their file suffix `<suite>.<scan>.csv`."""
    if fmt == "text":
        lines = []
        for r in reports:
            for c in r.checks:
                lines.append(
                    f"[{'PASS' if c.ok else 'FAIL'}] {r.suite}.{c.name} "
                    f"deviation={c.deviation:.3g} {c.detail}"
                )
            lines.append(
                f"suite {r.suite}: {sum(c.ok for c in r.checks)}/{len(r.checks)} passed, "
                f"max deviation {r.max_deviation:.3g}"
            )
        return "\n".join(lines) + "\n", {}
    if fmt == "csv":
        rows = [
            {"suite": r.suite, "name": c.name, "ok": int(c.ok),
             "deviation": c.deviation, "detail": c.detail}
            for r in reports
            for c in r.checks
        ]
        side = {
            f"{r.suite}.{name}.csv": _rows_to_csv(scan)
            for r in reports
            for name, scan in r.artifacts.items()
            if name.endswith("_rows") and scan
        }
        return _rows_to_csv(rows), side
    payload = {
        "suite": suite,
        "seed": seed,
        "ok": all(r.ok for r in reports),
        "suites": [
            {
                "name": r.suite,
                "ok": r.ok,
                "n_checks": len(r.checks),
                "n_pass": sum(c.ok for c in r.checks),
                "max_deviation": r.max_deviation,
                "checks": [
                    {
                        "name": c.name,
                        "ok": c.ok,
                        "deviation": c.deviation,
                        "detail": c.detail,
                    }
                    for c in r.checks
                ],
            }
            for r in reports
        ],
    }
    return json.dumps(payload, indent=2, default=str) + "\n", {}


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.seed)
    text, side = render_verify(args.suite, args.seed, reports, args.format)
    _emit(text, args.out)
    if args.out:
        for suffix, csv_text in side.items():
            _emit(csv_text, f"{args.out}.{suffix}")
    for r in reports:
        fail = r.first_failure()
        if fail is not None:
            print(f"FAILED {r.suite}.{fail.name}: {fail.detail}", file=sys.stderr)
            return EXIT_FAIL
    return EXIT_OK


def _cmd_constant(args) -> int:
    if not 5 <= args.prime_bound <= MAX_PRIME_BOUND:
        print(
            f"bad --prime-bound {args.prime_bound}: need 5 <= P <= {MAX_PRIME_BOUND}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    res = euler_product(args.theorem, args.prime_bound)
    payload = {
        "theorem": args.theorem,
        "P": args.prime_bound,
        "value_lo": res.lo,
        "value_hi": res.hi,
        "tail_bound": res.tail_bound,
        "value": res.value,
        "partial_product": res.partial,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_count(args) -> int:
    try:
        cfgs = [
            CountConfig(X=float(x), mode=args.mode, threads=args.threads)
            for x in args.X.split(",")
        ]
    except ValueError as exc:
        print(f"bad count arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    deadline = Deadline()  # one budget for the whole list
    count = exact_count if args.mode == "exact" else smoothed_count
    rows = compare_main_term([count(cfg, deadline) for cfg in cfgs])
    print(f"count: {time.perf_counter() - t0:.3f} s", file=sys.stderr)
    if args.format == "json":
        _emit(json.dumps([asdict(r) for r in rows], indent=2) + "\n", args.out)
    else:
        _emit(_rows_to_csv(rows), args.out)
    return EXIT_OK


def _parse_terms_file(path: str) -> list[ExponentTerm]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data or not all(isinstance(d, dict) for d in data):
        raise ValueError("terms file must be a nonempty JSON list of objects")
    keys = ("const", "t", "kappa", "t_kappa")
    for d in data:
        for k in d:
            if k not in keys:
                raise ValueError(f"unknown key {k!r}")
    return [ExponentTerm(*(Fraction(str(d.get(k, 0))) for k in keys)) for d in data]


def _cmd_balance(args) -> int:
    if args.terms:
        try:
            terms = _parse_terms_file(args.terms)
        except (OSError, ValueError, ZeroDivisionError) as exc:
            print(f"bad terms file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        res = balance_exponents(terms)
    else:
        res = paper_balance()
    payload = {
        "t": str(res.t),
        "kappa": str(res.kappa),
        "exponent": str(res.exponent),
        "exponent_decimal": float(res.exponent),
        "grid_best": res.grid_best,
        "grid_t": res.grid_t,
        "grid_kappa": res.grid_kappa,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, as numpy's generators need."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="deltasieve",
        description="verification and computation toolkit for square-free "
        "discriminant counts and complete cubic exponential sums",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a module verification suite")
    v.add_argument(
        "--suite",
        required=True,
        choices=["arith", "expsum", "characters", "oscint", "density", "sieve", "poisson", "all"],
    )
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--format", choices=["json", "csv", "text"], default="text")
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("constant", help="Euler-product constant as an interval")
    c.add_argument("--theorem", type=int, required=True, choices=[1, 2])
    c.add_argument(
        "--prime-bound", type=int, default=10**5, help=f"P, 5 <= P <= {MAX_PRIME_BOUND}"
    )
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_constant)

    k = sub.add_parser("count", help="square-free discriminant counts vs main term")
    k.add_argument("--X", required=True, help="X value or comma list, e.g. 3,4,5,6")
    k.add_argument("--mode", choices=["exact", "smoothed"], default="exact")
    k.add_argument(
        "--threads", type=int, default=1,
        help="worker processes, capped at the CPU count; counts do not depend on it",
    )
    k.add_argument("--format", choices=["json", "csv"], default="csv")
    k.add_argument("--out", default=None)
    k.set_defaults(func=_cmd_count)

    b = sub.add_parser("balance", help="minimax of the error-term exponents")
    b.add_argument("--preset", choices=["paper"], default="paper")
    b.add_argument("--terms", default=None, help="JSON file of exponent terms")
    b.add_argument("--out", default=None)
    b.set_defaults(func=_cmd_balance)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    _header(args)
    try:
        Deadline()  # reject a malformed DELTASIEVE_MAX_SECONDS before any work
    except ValueError as exc:
        print(f"bad DELTASIEVE_MAX_SECONDS: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _check_out(args.out)
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except TimeBudgetExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
