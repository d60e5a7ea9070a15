"""Deterministic report objects and rendering (JSON / CSV / table).

JSON output is byte-stable: fixed key order, two-space indent, one
trailing newline.  Integers whose magnitude exceeds 2**53 are emitted
as decimal strings so consumers with double-precision JSON numbers
cannot silently corrupt them; rationals are exact {"num", "den"} pairs
in lowest terms, never floats.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import census as census_mod
from .census import ExactOrderCensus, RsaInstance
from .dynamics import CycleStructure

__all__ = [
    "AuditReport",
    "build_audit_report",
    "render_report",
    "render_census",
    "render_cycles",
    "census_to_json_dict",
    "census_from_json_dict",
    "render_json",
    "encode_int",
    "DEFAULT_WARN_FRACTION",
    "DEFAULT_WARN_BOUND",
    "DEFAULT_WEAK_BOUNDS",
]

JSON_SAFE_INT = 1 << 53

DEFAULT_WEAK_BOUNDS = (1, 2)
DEFAULT_WARN_BOUND = 2
DEFAULT_WARN_FRACTION = Fraction(1, 1000)


@dataclass(frozen=True)
class AuditReport:
    """Exponent-safety audit: census plus weak-fraction metrics.

    ``weak_fraction[B]`` is the exact fraction of residues whose period
    is at most B, keyed by B ascending; ``min_fixed_points`` is E_1.
    Verdict is one of OK, WARN, DEGENERATE.
    """

    instance: RsaInstance
    k_max: int
    census: ExactOrderCensus
    weak_fraction: dict[int, Fraction]
    min_fixed_points: int
    verdict: str
    notes: list[str]


def build_audit_report(
    inst: RsaInstance,
    weak_bounds: tuple[int, ...] = DEFAULT_WEAK_BOUNDS,
    warn_bound: int = DEFAULT_WARN_BOUND,
    warn_fraction: Fraction = DEFAULT_WARN_FRACTION,
    min_k_max: int = 1,
) -> AuditReport:
    """Run the census and derive the audit verdict.

    WARN fires when the weak fraction at ``warn_bound`` exceeds
    ``warn_fraction`` or k_max falls below ``min_k_max``; DEGENERATE
    when e = 1 mod lambda(n) (identity permutation) and overrides WARN.
    Raises ValueError when ``warn_bound`` or any of ``weak_bounds`` is
    below 1, or when ``warn_fraction`` is negative.
    """
    for b in (*weak_bounds, warn_bound):
        if b < 1:
            raise ValueError(f"period bound must be >= 1, got {b}")
    if warn_fraction < 0:
        raise ValueError(f"warn_fraction must be nonnegative, got {warn_fraction}")
    cen = census_mod.full_census(inst)
    k_max = cen.k_max
    bounds = sorted({*weak_bounds, warn_bound, k_max})
    ks, es = list(cen.all_counts), list(cen.all_counts.values())  # ks ascending
    weak = {b: Fraction(sum(es[: bisect_right(ks, b)]), inst.n) for b in bounds}
    notes: list[str] = []
    if not inst.gcd_e_phi_ok:
        notes.append("gcd(e, phi(n)) != 1; only the weaker gcd(e, lambda(n)) = 1 holds")
    if inst.e % inst.lam == 1:
        verdict = "DEGENERATE"
        notes.append("e = 1 mod lambda(n): the power map is the identity, every residue is fixed")
    else:
        verdict = "OK"
        if weak[warn_bound] > warn_fraction:
            verdict = "WARN"
            notes.append(
                f"weak_fraction({warn_bound}) = {weak[warn_bound]} exceeds threshold {warn_fraction}"
            )
        if k_max < min_k_max:
            verdict = "WARN"
            notes.append(f"k_max = {k_max} is below the configured floor {min_k_max}")
    return AuditReport(
        instance=inst,
        k_max=k_max,
        census=cen,
        weak_fraction=weak,
        min_fixed_points=cen.all_counts.get(1, 0),
        verdict=verdict,
        notes=notes,
    )


def encode_int(v: int):
    """JSON-safe integer: plain when |v| <= 2**53, decimal string otherwise."""
    return v if -JSON_SAFE_INT <= v <= JSON_SAFE_INT else str(v)


def _json(v, pad: str) -> str:
    # v as json.dumps(v, indent=2) writes it at the depth of pad: a nonempty
    # container joined once, with no call for its int items; json.dumps the rest.
    if not v or not isinstance(v, (dict, list, tuple)):
        return json.dumps(v)
    inner = pad + "  "
    is_dict = isinstance(v, dict)
    items = [str(x) if type(x) is int else _json(x, inner) for x in (v.values() if is_dict else v)]
    if is_dict:
        items = map("{}: {}".format, map(encode_basestring_ascii, v), items)
    body = inner + (",\n" + inner).join(items) + "\n" + pad
    return "{\n" + body + "}" if is_dict else "[\n" + body + "]"


def render_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, joined per container."""
    return _json(payload, "") + "\n"


def census_to_json_dict(cen: ExactOrderCensus) -> dict:
    # Counts are >= 0 and T_k <= E_k <= n, so the largest E_k decides
    # whether any count needs encode_int; most censuses need no call.
    wide = max(cen.all_counts.values(), default=0) > JSON_SAFE_INT

    def counts(m: dict[int, int]) -> dict:
        if wide:
            return {str(k): encode_int(v) for k, v in m.items()}
        return {str(k): v for k, v in m.items()}

    return {
        "k_max": encode_int(cen.k_max),
        "unit_counts": counts(cen.unit_counts),
        "all_counts": counts(cen.all_counts),
    }


def census_from_json_dict(d: dict) -> ExactOrderCensus:
    return ExactOrderCensus(
        k_max=int(d["k_max"]),
        unit_counts={int(k): int(v) for k, v in d["unit_counts"].items()},
        all_counts={int(k): int(v) for k, v in d["all_counts"].items()},
    )


def instance_to_json_dict(inst: RsaInstance) -> dict:
    fields = {"p": inst.p, "q": inst.q, "n": inst.n, "e": inst.e, "phi": inst.phi, "lambda": inst.lam}
    return {**{k: encode_int(v) for k, v in fields.items()}, "gcd_e_phi_ok": inst.gcd_e_phi_ok}


def audit_to_json_dict(report: AuditReport) -> dict:
    return {
        "instance": instance_to_json_dict(report.instance),
        "k_max": encode_int(report.k_max),
        "census": census_to_json_dict(report.census),
        "weak_fraction": {
            str(b): {"num": encode_int(fr.numerator), "den": encode_int(fr.denominator)}
            for b, fr in report.weak_fraction.items()
        },
        "min_fixed_points": encode_int(report.min_fixed_points),
        "verdict": report.verdict,
        "notes": list(report.notes),
    }


def _render_rows(fmt: str, title: str, header: tuple[str, ...], rows: list[tuple[int, ...]]) -> str:
    # CSV, or a table with columns padded to their widest cell under a title line.
    cells = [header, *(tuple(map(str, r)) for r in rows)]
    if fmt == "csv":
        return "".join(",".join(r) + "\n" for r in cells)
    if fmt == "table":
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
        return "".join(line + "\n" for line in [title, *lines])
    raise ValueError(f"unknown format {fmt!r}")


def render_census(cen: ExactOrderCensus, fmt: str) -> str:
    if fmt == "json":
        return render_json(census_to_json_dict(cen))
    rows = [(k, cen.unit_counts.get(k, 0), e_k) for k, e_k in cen.all_counts.items()]
    return _render_rows(fmt, f"k_max = {cen.k_max}", ("k", "T_k", "E_k"), rows)


def cycles_to_json_dict(cs: CycleStructure) -> dict:
    return {
        "n": encode_int(cs.n),
        "entries": {
            str(k): {"points": encode_int(pts), "cycles": encode_int(cyc)}
            for k, (pts, cyc) in cs.entries.items()
        },
    }


def render_cycles(cs: CycleStructure, fmt: str) -> str:
    if fmt == "json":
        return render_json(cycles_to_json_dict(cs))
    rows = [(k, pts, cyc) for k, (pts, cyc) in cs.entries.items()]
    return _render_rows(fmt, f"n = {cs.n}", ("k", "points", "cycles"), rows)


def audit_to_table(report: AuditReport) -> str:
    inst = report.instance
    fields = zip(
        ("p", "q", "n", "e", "phi", "lambda", "k_max", "min_fixed_points (E_1)"),
        (inst.p, inst.q, inst.n, inst.e, inst.phi, inst.lam, report.k_max, report.min_fixed_points),
    )
    lines = [
        "RSA power-map fixed-point audit",
        *(f"  {name} = {v}" for name, v in fields),
        "",
        render_census(report.census, "table").rstrip("\n"),
        "",
        "weak fractions (period <= B):",
        *(f"  B = {b}: {fr}" for b, fr in report.weak_fraction.items()),
        f"verdict: {report.verdict}",
        *(f"  note: {note}" for note in report.notes),
    ]
    return "\n".join(lines) + "\n"


def render_report(report: AuditReport, fmt: str) -> str:
    """Render an audit report; JSON output is byte-stable.

    CSV renders the census rows only (header ``k,T_k,E_k``, ascending k).
    """
    if fmt == "json":
        return render_json(audit_to_json_dict(report))
    if fmt == "table":
        return audit_to_table(report)
    return render_census(report.census, fmt)
