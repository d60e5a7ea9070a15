"""Command-line front end.

Subcommands: census, audit, cycles, enumerate, oracle, factor-demo.
All reports go to stdout and are deterministic for identical inputs.

Exit codes: 0 success; 2 invalid parameters; 3 factoring failed;
4 cap or scan limit exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import arith, census, dynamics, oracle, reports
from .errors import CapExceededError, FactoringError, LimitExceededError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FACTORING_FAILED = 3
EXIT_CAP_EXCEEDED = 4

WARN_FRACTION_ENV = "RSA_FIXPOINT_WARN_FRACTION"


def _int_arg(s: str) -> int:
    """Nonnegative integer, decimal or 0x-prefixed hex."""
    try:
        text = s.strip().lower()
        value = int(text, 16) if text.startswith("0x") else int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {s!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {s!r}")
    return value


def _bound_arg(s: str) -> int:
    """Period bound: an integer >= 1, decimal or 0x-prefixed hex."""
    value = _int_arg(s)
    if value < 1:
        raise argparse.ArgumentTypeError(f"bound must be an integer >= 1: {s!r}")
    return value


def _bounds_arg(s: str) -> tuple[int, ...]:
    return tuple(_bound_arg(part) for part in s.split(","))


def _fraction_arg(s: str) -> Fraction:
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}")
    if f < 0:
        raise argparse.ArgumentTypeError("threshold must be nonnegative")
    return f


def _resolve_instance(args) -> census.RsaInstance:
    """Build the instance from --p/--q or, where offered, by factoring --n."""
    n = getattr(args, "n", None)
    if n is None:
        if args.p is None or args.q is None:
            raise ValueError("either --p and --q, or --n, must be given")
        return census.make_instance(args.p, args.q, args.e)
    if args.p is not None or args.q is not None:
        raise ValueError("--n cannot be combined with --p/--q")
    f = arith.factorize(n, budget=args.factor_budget)
    if len(f.factors) != 2 or any(a != 1 for _, a in f.factors) or f.factors[0][0] == 2:
        raise ValueError(f"n = {n} is not a product of two distinct odd primes: {f.factors}")
    (p, _), (q, _) = f.factors
    return census.make_instance(p, q, args.e)


def _add_instance_flags(sub, with_n: bool = False) -> None:
    sub.add_argument("--p", type=_int_arg, required=not with_n, help="first odd prime")
    sub.add_argument("--q", type=_int_arg, required=not with_n, help="second odd prime")
    sub.add_argument("--e", type=_int_arg, required=True, help="exponent of the power map")
    if with_n:
        sub.add_argument("--n", type=_int_arg, help="modulus to factor instead of --p/--q")
        sub.add_argument(
            "--factor-budget",
            type=_int_arg,
            default=arith.DEFAULT_FACTOR_BUDGET,
            help="rho step budget when factoring --n",
        )


def cmd_census(inst: census.RsaInstance, args) -> str:
    return reports.render_census(census.full_census(inst), args.format)


def cmd_audit(inst: census.RsaInstance, args) -> str:
    warn_fraction = args.warn_fraction
    if warn_fraction is None:
        raw = os.environ.get(WARN_FRACTION_ENV, str(reports.DEFAULT_WARN_FRACTION))
        try:
            warn_fraction = _fraction_arg(raw)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{WARN_FRACTION_ENV} (default of --warn-fraction): {exc}") from None
    report = reports.build_audit_report(
        inst,
        weak_bounds=args.weak_bounds,
        warn_bound=args.warn_bound,
        warn_fraction=warn_fraction,
        min_k_max=args.min_kmax,
    )
    return reports.render_report(report, args.format)


def cmd_cycles(inst: census.RsaInstance, args) -> str:
    return reports.render_cycles(dynamics.analytic_cycle_structure(inst), args.format)


def cmd_enumerate(inst: census.RsaInstance, args) -> str:
    points = dynamics.enumerate_fixed_points(inst, args.k, cap=args.cap)
    if args.format == "lines":
        return "".join(f"{m}\n" for m in points)
    if inst.n > reports.JSON_SAFE_INT:  # below that, so is every point
        points = [reports.encode_int(m) for m in points]
    payload = {
        "instance": reports.instance_to_json_dict(inst),
        "k": reports.encode_int(args.k),
        "count": len(points),
        "fixed_points": points,
    }
    return reports.render_json(payload)


def cmd_oracle(inst: census.RsaInstance, args) -> str:
    return reports.render_census(oracle.brute_power_map_census(inst, limit=args.limit), args.format)


def cmd_factor_demo(inst: census.RsaInstance, args) -> str:
    m = dynamics.find_nontrivial_fixed_point(inst, budget=args.cap)
    factor = dynamics.extract_factor_from_fixed_point(m, inst.n)
    payload = {
        "instance": reports.instance_to_json_dict(inst),
        "fixed_point": reports.encode_int(m),
        "factor": reports.encode_int(factor),
        "cofactor": reports.encode_int(inst.n // factor),
        "fixed_point_mod_p": reports.encode_int(m % inst.p),
        "fixed_point_mod_q": reports.encode_int(m % inst.q),
    }
    return reports.render_json(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsa-fixpoints",
        description="Count, enumerate and audit the fixed points of x -> x^e (mod pq).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_census = sub.add_parser("census", help="closed-form per-period counts")
    _add_instance_flags(p_census)
    p_census.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p_census.set_defaults(handler=cmd_census)

    p_audit = sub.add_parser("audit", help="exponent-safety audit report")
    _add_instance_flags(p_audit, with_n=True)
    p_audit.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p_audit.add_argument(
        "--weak-bounds",
        type=_bounds_arg,
        default=reports.DEFAULT_WEAK_BOUNDS,
        help="comma-separated period bounds reported as weak fractions (default 1,2)",
    )
    p_audit.add_argument(
        "--warn-bound",
        type=_bound_arg,
        default=reports.DEFAULT_WARN_BOUND,
        help="period bound whose weak fraction triggers WARN (default 2)",
    )
    p_audit.add_argument(
        "--warn-fraction",
        type=_fraction_arg,
        help=f"WARN threshold as an exact rational (default 1/1000, or ${WARN_FRACTION_ENV})",
    )
    p_audit.add_argument(
        "--min-kmax",
        type=_int_arg,
        default=1,
        help="WARN when k_max is below this floor (default 1 = disabled)",
    )
    p_audit.set_defaults(handler=cmd_audit)

    p_cycles = sub.add_parser("cycles", help="analytic cycle structure")
    _add_instance_flags(p_cycles)
    p_cycles.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p_cycles.set_defaults(handler=cmd_cycles)

    p_enum = sub.add_parser("enumerate", help="list all points of exact period k")
    _add_instance_flags(p_enum)
    p_enum.add_argument("--k", type=_int_arg, required=True, help="exact period")
    p_enum.add_argument(
        "--cap",
        type=_int_arg,
        default=dynamics.DEFAULT_ENUMERATION_CAP,
        help="refuse to enumerate more than this many points",
    )
    p_enum.add_argument("--format", choices=("json", "lines"), default="json")
    p_enum.set_defaults(handler=cmd_enumerate)

    p_oracle = sub.add_parser("oracle", help="brute-force census for cross-checking")
    _add_instance_flags(p_oracle, with_n=True)
    p_oracle.add_argument(
        "--limit",
        type=_int_arg,
        default=oracle.DEFAULT_SCAN_LIMIT,
        help="largest modulus the scan will accept",
    )
    p_oracle.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p_oracle.set_defaults(handler=cmd_oracle)

    p_demo = sub.add_parser(
        "factor-demo", help="recover a factor of n from a nontrivial fixed point"
    )
    _add_instance_flags(p_demo)
    p_demo.add_argument("--cap", type=_int_arg, default=dynamics.DEFAULT_ENUMERATION_CAP)
    p_demo.set_defaults(handler=cmd_factor_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sys.stdout.write(args.handler(_resolve_instance(args), args))
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except FactoringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FACTORING_FAILED
    except (CapExceededError, LimitExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED

