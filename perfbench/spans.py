"""Span tracer that wraps the package's public functions from outside.

Wrappers are set on module attributes (``rsa_fixpoints.arith.factorize``
and so on), never on the re-exports in ``rsa_fixpoints/__init__``.
Because a module's own calls look names up in the module namespace, a
wrapper also sees calls made inside the module (``mobius`` ->
``factorize``).  A name that no longer exists is reported as absent.

Each call becomes a span with an id, its parent's id and the id of the
op it belongs to.  Aggregates (calls, total and self time) are kept for
every span; raw spans are kept for the first ``keep`` calls only, so a
long run does not hold millions of records.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

PACKAGE = "rsa_fixpoints"
# A traced CLI subprocess ends its stderr with this marker and a JSON summary.
TRACE_LINE = "PERFBENCH-TRACE "

# Public functions of each layer, as "<module>.<function>".
TRACED = (
    "arith.factorize",
    "arith.mobius",
    "arith.multiplicative_order",
    "arith.divisors",
    "arith.is_prime",
    "census.make_instance",
    "census.max_period",
    "census.full_census",
    "census.exact_order_unit_count",
    "census.exact_order_all_count",
    "dynamics.period_of_point",
    "dynamics.enumerate_fixed_points",
    "dynamics.analytic_cycle_structure",
    "reports.build_audit_report",
    "reports.render_report",
    "reports.render_census",
    "reports.render_cycles",
    "reports.render_json",
    "oracle.brute_power_map_census",
)


class Tracer:
    def __init__(self, keep: int = 2000):
        self.keep = keep
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[tuple] = []  # (op_id, span_id, parent_id, name, start_ns, end_ns)
        self.absent: list[str] = []
        self._stack: list[list[int]] = []  # [span_id, child_ns]
        self._next_id = 1
        self._op_id = 0
        self._installed: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self) -> tuple[list[int], int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, 0]
        self._stack.append(frame)
        return frame, parent, perf_counter_ns()

    def _exit(self, name: str, frame: list[int], parent: int, t0: int) -> int:
        t1 = perf_counter_ns()
        self._stack.pop()
        dur = t1 - t0
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if len(self.spans) < self.keep:
            self.spans.append((self._op_id, frame[0], parent, name, t0, t1))
        return dur

    def run_op(self, op_id: int, fn, *args):
        """Run fn(*args) as the root span of op ``op_id``; returns (result, ns)."""
        self._op_id = op_id
        frame, parent, t0 = self._enter()
        try:
            out = fn(*args)
        finally:
            dur = self._exit("op", frame, parent, t0)
        return out, dur

    # -- wrapping ----------------------------------------------------------

    def install(self, names=TRACED) -> None:
        for label in names:
            mod_name, attr = label.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(label)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(label)
                continue
            setattr(module, attr, self._wrap(label, original))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, label: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent, t0 = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(label, frame, parent, t0)

        return wrapper

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "absent": list(self.absent),
        }


def merge_summaries(parts) -> dict:
    """Sum the aggregates of several tracers (one per CLI subprocess)."""
    stats: dict[str, list[int]] = {}
    absent: set[str] = set()
    for part in parts:
        for name, vals in part["stats"].items():
            acc = stats.setdefault(name, [0, 0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        absent.update(part["absent"])
    return {"stats": stats, "absent": sorted(absent)}


def factorize_cache():
    """The cache behind arith.factorize, found by its cache_info(); or None."""
    try:
        arith = importlib.import_module(f"{PACKAGE}.arith")
    except ImportError:
        return None
    for name in sorted(vars(arith)):
        obj = getattr(arith, name)
        if "factor" in name and callable(getattr(obj, "cache_info", None)):
            return obj
    return None


def cache_counts() -> tuple[int, int] | None:
    cache = factorize_cache()
    if cache is None:
        return None
    info = cache.cache_info()
    return info.hits, info.misses
