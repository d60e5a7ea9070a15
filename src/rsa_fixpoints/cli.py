"""Command-line front end.

Subcommands: census, audit, cycles, enumerate, oracle, factor-demo.
All reports go to stdout and are deterministic for identical inputs.

Exit codes: 0 success; 2 invalid parameters; 3 factoring failed;
4 enumeration cap, census divisor budget or scan limit exceeded.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import arith, census, dynamics, oracle, reports
from .errors import CapExceededError, FactoringError

EXIT_CODES = {ValueError: 2, FactoringError: 3, CapExceededError: 4}

WARN_FRACTION_ENV = "RSA_FIXPOINT_WARN_FRACTION"


def _echo(s: str) -> str:
    """A refused argument as its error quotes it: whole, or a prefix and its length."""
    return repr(s) if len(s) <= 40 else f"{s[:32]!r}... ({len(s)} characters)"


def _int_arg(s: str) -> int:
    """Integer in [0, 10**_MAX_EXPONENT), decimal or 0x-prefixed hex; more digits go unparsed."""
    text = s.strip().lower()
    base = 16 if text.startswith("0x") else 10
    # int()'s digit limit counts leading zeros; a bad underscore among them stays for int().
    text = re.sub(r"\A([-+]?)(?:0_?)*(?=\d)", r"\1", text)
    try:
        long = len(text.replace("_", "").lstrip("+-0x")) > _MAX_EXPONENT
        value = _INT_BOUND if long else int(text, base)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {_echo(s)}")
    if not 0 <= value < _INT_BOUND:
        raise argparse.ArgumentTypeError(f"must lie in [0, 10**{_MAX_EXPONENT})")
    return value


def _bound_arg(s: str) -> int:
    """Period bound: an integer >= 1, decimal or 0x-prefixed hex."""
    value = _int_arg(s)
    if value < 1:
        raise argparse.ArgumentTypeError(f"bound must be an integer >= 1: {_echo(s)}")
    return value


def _bounds_arg(s: str) -> tuple[int, ...]:
    return tuple(_bound_arg(part) for part in s.split(","))


_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
# Fraction writes a decimal exponent out in full (1e999999999 would never
# finish), so its magnitude is held to int()'s default digit limit; an integer
# argument is held below 10**_MAX_EXPONENT in either base (is_prime slows fast).
_MAX_EXPONENT = 4300
_INT_BOUND = 10**_MAX_EXPONENT


def _fraction_arg(s: str) -> Fraction:
    exp = _EXPONENT.search(s)
    if exp and (len(exp[1]) > _MAX_EXPONENT or abs(int(exp[1])) > _MAX_EXPONENT):
        raise argparse.ArgumentTypeError(f"decimal exponent beyond +-{_MAX_EXPONENT}")
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {_echo(s)}")
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
    if n > getattr(args, "limit", n):  # refuse a scan before spending a rho budget on n
        raise CapExceededError(n, args.limit, "modulus", "scan limit")
    f = arith.factorize(n, budget=args.factor_budget)
    if len(f.factors) != 2 or any(a != 1 for _, a in f.factors) or f.factors[0][0] == 2:
        raise ValueError(f"n = {n} is not a product of two distinct odd primes: {f.factors}")
    (p, _), (q, _) = f.factors
    return census.make_instance(p, q, args.e)


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
    return reports.render_cycles(census.full_census(inst), inst.n, args.format)


def cmd_enumerate(inst: census.RsaInstance, args) -> str:
    points = dynamics.enumerate_fixed_points(inst, args.k, cap=args.cap)
    return reports.render_points(inst, args.k, points, args.format)


def cmd_oracle(inst: census.RsaInstance, args) -> str:
    return reports.render_census(oracle.brute_power_map_census(inst, limit=args.limit), args.format)


def cmd_factor_demo(inst: census.RsaInstance, args) -> str:
    m = dynamics.find_nontrivial_fixed_point(inst, budget=args.cap)
    return reports.render_factor_demo(inst, m, dynamics.extract_factor_from_fixed_point(m, inst.n))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsa-fixpoints",
        description="Count, enumerate and audit the fixed points of x -> x^e (mod pq).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, formats=("json", "csv", "table"), with_n=False):
        cmd = sub.add_parser(name, help=help)
        cmd.add_argument("--p", type=_int_arg, required=not with_n, help="first odd prime")
        cmd.add_argument("--q", type=_int_arg, required=not with_n, help="second odd prime")
        cmd.add_argument("--e", type=_int_arg, required=True, help="exponent of the power map")
        if with_n:
            cmd.add_argument("--n", type=_int_arg, help="modulus to factor instead of --p/--q")
            cmd.add_argument(
                "--factor-budget",
                type=_int_arg,
                default=arith.DEFAULT_FACTOR_BUDGET,
                help="rho step budget when factoring --n",
            )
        if formats:
            cmd.add_argument("--format", choices=formats, default="json")
        cmd.set_defaults(handler=handler)
        return cmd

    command("census", cmd_census, "closed-form per-period counts")

    p_audit = command("audit", cmd_audit, "exponent-safety audit report", with_n=True)
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

    command("cycles", cmd_cycles, "analytic cycle structure")

    p_enum = command(
        "enumerate", cmd_enumerate, "list all points of exact period k", formats=("json", "lines")
    )
    p_enum.add_argument("--k", type=_int_arg, required=True, help="exact period")
    p_enum.add_argument(
        "--cap",
        type=_int_arg,
        default=dynamics.DEFAULT_ENUMERATION_CAP,
        help="refuse to enumerate more than this many points",
    )

    p_oracle = command("oracle", cmd_oracle, "brute-force census for cross-checking", with_n=True)
    p_oracle.add_argument(
        "--limit",
        type=_int_arg,
        default=oracle.DEFAULT_SCAN_LIMIT,
        help="largest modulus the scan will accept",
    )

    p_demo = command(
        "factor-demo", cmd_factor_demo, "recover a factor of n from a nontrivial fixed point", ()
    )
    p_demo.add_argument("--cap", type=_int_arg, default=dynamics.DEFAULT_ENUMERATION_CAP)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sys.stdout.write(args.handler(_resolve_instance(args), args))
        return 0
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))

