"""Command-line interface.

Subcommands: gen, solve, cert, sweep, bounds, moments.

Exit codes: 0 success, 1 usage error, 2 I/O or parse error, 3 resource
limit.  A completed verification that reports INVALID still exits 0: the
verdict is the output, not a failure of the tool.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import analytics
from .certificates import (
    DEFAULT_FIND_BUDGET,
    Bicycle,
    find_bicycle,
    find_snake,
    verify_bicycle,
    verify_snake,
)
from .errors import DomainError, ParseError, ResourceLimit, RsatError
from .fileformat import (
    parse_certificate,
    parse_formula,
    render_certificate,
    render_formula,
    vspec_from_token,
)
from .formula import TruthValueSpec
from .rng import Stream
from .sampler import GenConfig, sample_formula
from .solver import DEFAULT_NODE_BUDGET, check_budget
from .sweep import DECIDERS, SweepConfig, decide, render_limited_report, render_sweep_csv, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _vspec_arg(token: str) -> TruthValueSpec:
    try:
        return vspec_from_token(token)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="rsat", description="regular signed k-SAT toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="sample a random formula")
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--v", type=_vspec_arg, default="continuous",
                       help="finite:<v> | dyadic:<lam> | continuous")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--distinct", action="store_true", help="distinct variables per clause")
    p_gen.add_argument(
        "--distinct-thresholds", action="store_true",
        help="resample colliding right-hand sides; V \\ {1} must hold k*m distinct sides",
    )
    p_gen.add_argument("--out", default=None)

    p_solve = sub.add_parser("solve", help="decide a formula file")
    p_solve.add_argument("file", nargs="?", default=None)
    p_solve.add_argument("--decider", choices=DECIDERS, default="auto")
    p_solve.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)

    p_cert = sub.add_parser("cert", help="find or verify certificates")
    cert_sub = p_cert.add_subparsers(dest="cert_command", required=True)
    p_find = cert_sub.add_parser("find", help="search for a certificate")
    find_sub = p_find.add_subparsers(dest="kind", required=True)
    kinds = {kind: find_sub.add_parser(kind, help=f"search for a {kind}")
             for kind in ("bicycle", "snake")}
    for p_kind in kinds.values():
        p_kind.add_argument("file", nargs="?", default=None)
        p_kind.add_argument("--out", default=None)
    kinds["snake"].add_argument("--budget", type=int, default=DEFAULT_FIND_BUDGET,
                                help="search steps")
    p_verify = cert_sub.add_parser("verify", help="check a certificate against a formula")
    p_verify.add_argument("file", nargs="?", default=None)
    p_verify.add_argument("--cert", required=True)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo satisfiability sweep, CSV output")
    p_sweep.add_argument("--k", type=int, required=True)
    p_sweep.add_argument("--v", action="append", type=_vspec_arg, required=True,
                         help="repeatable vspec token")
    p_sweep.add_argument("--n", action="append", type=int, required=True)
    p_sweep.add_argument("--c", action="append", required=True, help="repeatable ratio, e.g. 3/2")
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--decider", choices=DECIDERS, default="auto")
    p_sweep.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_sweep.add_argument("--distinct", action="store_true")
    p_sweep.add_argument("--out", default=None)

    p_bounds = sub.add_parser("bounds", help="closed-form threshold bounds")
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--v", action="append", type=int, default=None)

    p_moments = sub.add_parser("moments", help="factorial moments of the occurrence profile")
    p_moments.add_argument("--n", type=int, required=True)
    p_moments.add_argument("--m", type=int, required=True)
    p_moments.add_argument("--k", type=int, required=True)
    p_moments.add_argument("--d", required=True, help="comma-separated exponents, one per variable")
    p_moments.add_argument("--mc", type=int, default=0, help="Monte Carlo sample count")
    p_moments.add_argument("--seed", type=int, default=0)

    return parser


def _read_text(path) -> str:
    """The text of the file at ``path``, or of stdin when ``path`` is None;
    bytes that are not UTF-8 are a parse error at the line of the first one."""
    try:
        if path is None:  # a C or POSIX locale reads stdin with surrogateescape
            return sys.stdin.read().encode("utf-8", "surrogateescape").decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8", line) from None


def _write_out(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_gen(args) -> int:
    cfg = GenConfig(
        k=args.k,
        n=args.n,
        m=args.m,
        vspec=args.v,
        distinct_vars_per_clause=args.distinct,
        seed=args.seed,
        distinct_thresholds=args.distinct_thresholds,
    )
    _write_out(render_formula(sample_formula(cfg)), args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    check_budget(args.budget)
    result = decide(parse_formula(_read_text(args.file)), args.decider, args.budget)
    if result.sat:
        print("SAT")
        for var in sorted(result.witness):
            value = result.witness[var]
            print(f"v {var} {value.numerator}/{value.denominator}")
    else:
        print("UNSAT")
    return EXIT_OK


def _cmd_cert(args) -> int:
    f = parse_formula(_read_text(args.file))
    if args.cert_command == "find":
        outcome = find_bicycle(f) if args.kind == "bicycle" else find_snake(f, args.budget)
        if outcome is None:
            print("NONE")
            return EXIT_OK
        _write_out(render_certificate(outcome), args.out)
        return EXIT_OK

    cert = parse_certificate(_read_text(args.cert))
    if isinstance(cert, Bicycle):
        ok = verify_bicycle(f, cert)
    else:
        ok = verify_snake(f, cert)
    print("VALID" if ok else "INVALID")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        c_grid = tuple(Fraction(c) for c in args.c)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad ratio in --c: {exc}") from None
    cfg = SweepConfig(
        k=args.k,
        vspecs=tuple(args.v),
        n_values=tuple(args.n),
        c_grid=c_grid,
        trials=args.trials,
        seed=args.seed,
        decider=args.decider,
        budget=args.budget,
        distinct_vars_per_clause=args.distinct,
    )
    results = run_sweep(cfg)
    _write_out(render_sweep_csv(results), args.out)
    report = render_limited_report(results)
    if args.out is not None:  # always, so no report of an earlier run survives
        _write_out(report, args.out + ".limited.csv")
    if any(r.limited for r in results):
        sys.stderr.write(report)
    return EXIT_OK


# Previously reported almost-never thresholds, printed for comparison.
REFERENCE_UNSAT_BOUND = {2: 12.664, 3: 36.1}


def _cmd_bounds(args) -> int:
    k = args.k
    root = analytics.thm1_root(k)
    lines = [f"unsat_bound_root k={k} c={root:.6f}"]
    reference = REFERENCE_UNSAT_BOUND.get(k)
    if reference is not None:
        value = analytics.thm1_value(k, reference)
        lines.append(f"unsat_bound_reference k={k} c={reference}")
        lines.append(f"unsat_bound_value_at_reference k={k} value={value:.6f}")
    for v in args.v or [2, 3, 4, 8, 16]:
        lines.append(f"width3_unsat_bound v={v} c={analytics.bejar_bound(v):.6f}")
    # smallest v where the width-3 bound exceeds this k's root: v = floor((8/7)^root) + 1;
    # a double fixes the integer only below 2^53, so above it print v's order
    log_v = root * math.log(8.0 / 7.0)
    if log_v < 53 * math.log(2.0):
        lines.append(f"crossover_v k={k} v={math.floor(math.exp(log_v)) + 1}")
    else:
        lines.append(f"crossover_v k={k} v=>10^{math.floor(log_v / math.log(10.0))}")
    print("\n".join(lines))  # only once every line is computed: an error prints none
    return EXIT_OK


def _sample_profile(n: int, km: int, stream: Stream) -> list[int]:
    counts, draw = [0] * n, stream.below_fn(n)
    for _ in range(km):
        counts[draw()] += 1
    return counts


def _cmd_moments(args) -> int:
    if args.mc < 0:
        raise _UsageError(f"--mc must be >= 0, got {args.mc}")
    try:
        d = [int(part) for part in args.d.split(",")]
        exact = analytics.exact_factorial_moment(args.n, args.m, args.k, d)
    except ValueError as exc:
        raise _UsageError(f"bad --d list {args.d!r}: {exc}") from None
    try:  # every value is computed before the first line is printed
        value, cap = float(exact), (args.k * args.m / args.n) ** sum(d)
        lines = [f"exact {exact.numerator}/{exact.denominator} ({value:.6f})",
                 f"cap_power {cap:.6f}", f"within_cap {value <= cap + 1e-12}"]
        if args.mc > 0:
            stream = Stream(args.seed)
            total = total_sq = 0  # exact integers; only the results become floats
            for _ in range(args.mc):
                profile = _sample_profile(args.n, args.k * args.m, stream)
                prod = 1
                for j, dj in enumerate(d):
                    prod *= analytics.falling_factorial(profile[j], dj)
                total += prod
                total_sq += prod * prod
            mean = total / args.mc
            sigma = ((total_sq * args.mc - total * total) / args.mc**3) ** 0.5
            lines.append(f"mc_mean {mean:.6f} mc_sigma {sigma:.6f} samples {args.mc}")
    except OverflowError:
        raise DomainError(f"a moment for --d {args.d} is outside the double range") from None
    print("\n".join(lines))
    return EXIT_OK


_HANDLERS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "cert": _cmd_cert,
    "sweep": _cmd_sweep,
    "bounds": _cmd_bounds,
    "moments": _cmd_moments,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_IO
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except ResourceLimit as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except MemoryError:  # a feasible n whose per-variable lists do not fit
        sys.stderr.write("resource limit: out of memory\n")
        return EXIT_RESOURCE
    except RsatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())
