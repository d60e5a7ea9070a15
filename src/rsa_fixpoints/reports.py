"""Deterministic report objects and every output layout (JSON / CSV / table / lines).

JSON output is byte-stable: fixed key order, two-space indent, one
trailing newline.  A list of plain ints (points) is written by one
%-template, and the lines layout likewise; T_k and E_k fill one template
of their shared keys.  Integers whose magnitude exceeds 2**53 are emitted
as decimal strings so consumers with double-precision JSON numbers
cannot silently corrupt them; rationals are exact {"num", "den"} pairs
in lowest terms, never floats.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from json.encoder import encode_basestring_ascii

from . import census as census_mod
from .census import ExactOrderCensus, RsaInstance

__all__ = [
    "AuditReport",
    "build_audit_report",
    "render_report",
    "render_census",
    "render_cycles",
    "render_points",
    "render_factor_demo",
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
    ks, cum = list(cen.all_counts), list(accumulate(cen.all_counts.values()))  # ks ascending from 1
    weak = {b: Fraction(cum[bisect_right(ks, b) - 1], inst.n) for b in bounds}
    notes: list[str] = []
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


def _json(v, pad: str, out: list) -> None:
    # Appends v as json.dumps(v, indent=2) writes it at the depth of pad, so a
    # document is one "".join of out.  A nonempty list of plain ints (no bools),
    # a point list, is one %-format; other containers write an int item by str
    # and a key as json.dumps does.  _census_json writes a census.
    if type(v) is ExactOrderCensus:
        return _census_json(v, pad, out)
    if not v or not isinstance(v, (dict, list, tuple)):
        return out.append(json.dumps(v))
    inner, is_dict = pad + "  ", isinstance(v, dict)
    sep = ",\n" + inner
    if not is_dict and set(map(type, v)) == {int}:
        return out.extend(("[\n", inner, sep.join(["%d"] * len(v)) % tuple(v), "\n", pad, "]"))
    out.append(("{\n" if is_dict else "[\n") + inner)
    for x in v:
        if is_dict:
            out += encode_basestring_ascii(str(x)), ": "
            x = v[x]
        out.append(str(x)) if type(x) is int else _json(x, inner, out)
        out.append(sep)
    out[-1] = "\n" + pad + ("}" if is_dict else "]")


def _census_json(cen: ExactOrderCensus, pad: str, out: list) -> None:
    # cen as _json writes census_to_json_dict(cen).  T_k and E_k share their
    # keys, formatted once into a template ('"k": %s' a row) that each map
    # fills with one % over its counts, a count beyond 2**53 quoted as
    # encode_int has it.  A map with other keys (hand-built) formats its own.
    inner, rows, keys = pad + "  ", ",\n    " + pad, None
    out += "{\n", inner, '"k_max": ', json.dumps(encode_int(cen.k_max))
    for label, m in (('"unit_counts": ', cen.unit_counts), ('"all_counts": ', cen.all_counts)):
        if keys != (ks := tuple(m)):
            keys, template = ks, ("{" + rows[1:] + rows.join(['"%d": %%s'] * len(ks)) + "\n" + inner + "}") % ks
        counts = tuple(m.values())
        if counts and not -JSON_SAFE_INT <= min(counts) <= max(counts) <= JSON_SAFE_INT:
            counts = tuple([c if -JSON_SAFE_INT <= c <= JSON_SAFE_INT else '"%d"' % c for c in counts])
        out += ",\n", inner, label, template % counts if counts else "{}"
    out += "\n", pad, "}"


def render_json(payload) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` byte for byte, a census as its ``census_to_json_dict``."""
    _json(payload, "", out := [])
    return "".join(out + ["\n"])


def census_to_json_dict(cen: ExactOrderCensus) -> dict:
    """The census as ``json.loads`` reads its JSON back, keyed by str(k)."""
    maps = {"unit_counts": cen.unit_counts, "all_counts": cen.all_counts}
    str_keyed = {name: {str(k): encode_int(v) for k, v in m.items()} for name, m in maps.items()}
    return {"k_max": encode_int(cen.k_max), **str_keyed}


def census_from_json_dict(d: dict) -> ExactOrderCensus:
    return ExactOrderCensus(
        k_max=int(d["k_max"]),
        unit_counts={int(k): int(v) for k, v in d["unit_counts"].items()},
        all_counts={int(k): int(v) for k, v in d["all_counts"].items()},
    )


def instance_to_json_dict(inst: RsaInstance) -> dict:
    fields = {"p": inst.p, "q": inst.q, "n": inst.n, "e": inst.e, "phi": inst.phi, "lambda": inst.lam}
    # gcd(e, phi) = 1 holds for every RsaInstance; the field keeps the schema.
    return {**{k: encode_int(v) for k, v in fields.items()}, "gcd_e_phi_ok": True}


def audit_to_json_dict(report: AuditReport) -> dict:
    return {
        "instance": instance_to_json_dict(report.instance),
        "k_max": encode_int(report.k_max),
        "census": report.census,
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
        return render_json(cen)
    rows = [(k, cen.unit_counts.get(k, 0), e_k) for k, e_k in cen.all_counts.items()]
    return _render_rows(fmt, f"k_max = {cen.k_max}", ("k", "T_k", "E_k"), rows)


def _cycle_rows(cen: ExactOrderCensus) -> list[tuple[int, int, int]]:
    # The cycle type: (k, E_k points, E_k / k cycles) for each period k of some point.
    return [(k, e_k, e_k // k) for k, e_k in cen.all_counts.items() if e_k > 0]


def cycles_to_json_dict(cen: ExactOrderCensus, n: int) -> dict:
    return {
        "n": encode_int(n),
        "entries": {
            str(k): {"points": encode_int(pts), "cycles": encode_int(cyc)}
            for k, pts, cyc in _cycle_rows(cen)
        },
    }


def render_cycles(cen: ExactOrderCensus, n: int, fmt: str) -> str:
    if fmt == "json":
        return render_json(cycles_to_json_dict(cen, n))
    return _render_rows(fmt, f"n = {n}", ("k", "points", "cycles"), _cycle_rows(cen))


def render_points(inst: RsaInstance, k: int, points: list[int], fmt: str) -> str:
    """Render the points of period k: one per line, or JSON with the instance."""
    if fmt == "lines":
        return ("%d\n" * len(points)) % tuple(points)
    if inst.n > JSON_SAFE_INT:  # below that, so is every point
        points = [encode_int(m) for m in points]
    payload = {
        "instance": instance_to_json_dict(inst),
        "k": encode_int(k),
        "count": len(points),
        "fixed_points": points,
    }
    return render_json(payload)


def render_factor_demo(inst: RsaInstance, m: int, factor: int) -> str:
    """Render the fixed point m, the factor of n it reveals, and its CRT components."""
    payload = {
        "instance": instance_to_json_dict(inst),
        "fixed_point": encode_int(m),
        "factor": encode_int(factor),
        "cofactor": encode_int(inst.n // factor),
        "fixed_point_mod_p": encode_int(m % inst.p),
        "fixed_point_mod_q": encode_int(m % inst.q),
    }
    return render_json(payload)


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
