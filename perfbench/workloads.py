"""The four benchmark workloads: inputs, the timed call, and its checks.

A workload yields passes, lists of ops.  ``run`` is the only code inside
the timed span; ``check`` runs after it and returns a list of problems
(empty when the output is right).  Every call into the package goes
through a module attribute (``reports.build_audit_report``, not a name
imported from ``rsa_fixpoints``) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from operator import lt
from pathlib import Path

from rsa_fixpoints import census, dynamics, oracle, reports

from . import numth
from .instances import (
    E_FIXED,
    MID_PRIMES,
    Instance,
    instance_for,
    instance_near_terms,
    pick_instance,
    random_prime,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
JSON_SAFE_INT = 1 << 53


def library_instance(inst: Instance):
    return census.make_instance(inst.p, inst.q, inst.e)


def child_env() -> dict:
    """Environment for CLI subprocesses: the package from src, no overrides."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("RSA_FIXPOINT_WARN_FRACTION", None)
    return env


def json_int_problems(obj, path="$") -> list[str]:
    """Integers above 2**53 in magnitude must be written as strings."""
    if isinstance(obj, bool):
        return []
    if isinstance(obj, int):
        return [f"{path}: raw integer {obj} exceeds 2**53"] if abs(obj) > JSON_SAFE_INT else []
    if isinstance(obj, dict):
        return [m for k, v in obj.items() for m in json_int_problems(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [m for i, v in enumerate(obj) for m in json_int_problems(v, f"{path}[{i}]")]
    return []


def nonzero(counts: dict) -> dict:
    return {k: v for k, v in counts.items() if v}


def census_problems(inst: Instance, k_max: int, units: dict, alls: dict, exact=None) -> list[str]:
    """Invariants every census obeys, plus equality with ``exact`` when given."""
    out = []
    if k_max != inst.k_max:
        out.append(f"k_max {k_max} != {inst.k_max}")
    if sum(alls.values()) != inst.n:
        out.append(f"sum E_k = {sum(alls.values())} != n = {inst.n}")
    if sum(units.values()) != inst.phi:
        out.append(f"sum T_k = {sum(units.values())} != phi = {inst.phi}")
    bad = [k for k, v in alls.items() if v % k or v < 0]
    if bad:
        out.append(f"E_k not a nonnegative multiple of k at k = {bad[:3]}")
    if exact is not None:
        exp_units, exp_all = exact
        if nonzero(units) != nonzero(exp_units) or nonzero(alls) != nonzero(exp_all):
            out.append("per-k counts differ from the independent closed form")
    return out


def sample_positions(size: int, count: int, salt: int) -> list[int]:
    """The first and last index and ``count`` seeded ones, for spot checks."""
    rng = random.Random(salt)
    return sorted({0, size - 1} | {rng.randrange(size) for _ in range(count)}) if size else []


@dataclass
class Op:
    """One unit of timed work.  ``args`` is what ``run`` needs."""

    kind: str
    inst: Instance | None
    args: tuple
    expect: dict = field(default_factory=dict)


class Workload:
    name = ""
    warmup_passes = 0  # untimed, checked passes before timing starts
    child_processes = False  # whether an op runs in a process of its own

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def passes(self):
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError

    def points(self, op: Op, out) -> int:
        return 1

    def bytes_out(self, op: Op, out) -> int:
        return 0

    def enumerated(self, op: Op, out) -> int:
        """Residues listed by an enumeration in this op."""
        return 0

    def inversion_terms(self, op: Op) -> int:
        return 0

    def divisors_kmax(self, op: Op) -> int:
        return 0

    def once_per_run_checks(self) -> list[str]:
        return []

    def instances(self) -> list[Instance]:
        raise NotImplementedError

    def provenance(self) -> dict:
        return {"instances": [i.describe() for i in self.instances()]}


# --------------------------------------------------------------------------
# audit-census


class AuditCensus(Workload):
    name = "audit-census"

    # Census work per instance, (bits of p and q, Mobius-term target), in
    # rising cost; e cycles through its classes.  Five cheap rungs, six
    # alike in the middle and four alike dear ones: with 15 ops a pass the
    # median op falls inside the middle six.  The dear four are the dearest
    # ops, so the tail (the 11th-dearest op) lies among them whenever a run
    # has three passes or more, whether the census gets faster or slower;
    # a single dearer op would take over the tail once a run had eleven
    # passes.  They have 65,610 terms and d(K) of 960-1,024.  Targets are
    # values the terms commonly take at that size, so generation is quick.
    RUNGS = (
        (24, 1458), (24, 2430), (32, 4374), (24, 4374), (32, 5832),
        (24, 10206), (24, 10206), (24, 10206), (24, 10206), (24, 10206),
        (32, 10206), (24, 65_610), (24, 65_610), (24, 65_610), (24, 65_610),
    )
    E_CLASSES = ("e3", "e65537", "rand")
    TOL = 0.05

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.insts = [
            instance_near_terms(rng, bits, self.E_CLASSES[i % 3], target, self.TOL, 3)
            for i, (bits, target) in enumerate(self.RUNGS)
        ]
        self.ops = [Op("audit", inst, (library_instance(inst),)) for inst in self.insts]

    def instances(self):
        return self.insts

    def passes(self):
        while True:
            yield self.ops

    def run(self, op):
        report = reports.build_audit_report(op.args[0])
        return report, reports.render_report(report, "json")

    def check(self, op, out):
        report, text = out
        inst = op.inst
        cen = report.census
        exact = numth.exact_period_counts(inst.p, inst.q, inst.e, inst.k_f)
        probs = census_problems(inst, cen.k_max, cen.unit_counts, cen.all_counts, exact)
        if report.weak_fraction.get(report.k_max) != 1:
            probs.append(f"weak_fraction at k_max = {report.weak_fraction.get(report.k_max)} != 1")
        payload = json.loads(text)
        probs += json_int_problems(payload)
        if payload["census"] != reports.census_to_json_dict(cen):
            probs.append("JSON census differs from the report object")
        return probs

    def points(self, op, out):
        return len(out[0].census.all_counts)

    def bytes_out(self, op, out):
        return len(out[1])

    def inversion_terms(self, op):
        return 2 * numth.inversion_terms(op.inst.k_f)

    def divisors_kmax(self, op):
        return numth.divisor_count(op.inst.k_f)

    def once_per_run_checks(self):
        """full_census against the brute-force scan on small extra instances."""
        rng = random.Random(f"oracle-cross-check:{self.seed}")
        probs = []
        for ec in self.E_CLASSES:
            inst = pick_instance(rng, 8, ec, [3, 5, 7, 11, 13], 2)
            li = library_instance(inst)
            got = census.full_census(li)
            ref = oracle.brute_power_map_census(li)
            if (got.k_max, nonzero(got.unit_counts), nonzero(got.all_counts)) != (
                ref.k_max,
                nonzero(ref.unit_counts),
                nonzero(ref.all_counts),
            ):
                probs.append(f"full_census != oracle at p={inst.p} q={inst.q} e={inst.e}")
        return probs


# --------------------------------------------------------------------------
# enumerate-dense


class EnumerateDense(Workload):
    name = "enumerate-dense"

    # One op enumerates every period class of one modulus, so the classes of
    # an op partition Z_n.  The moduli lie within 2% of 1.44-1.56 million
    # (about 2^20.5, so p and q both lie in [2^10, 2^11)) and the largest
    # class holds at least 90% of Z_n, so every op costs about the same
    # whatever the seed: a run has only ~20 ops, and its median and
    # 11th-largest op must not depend on which moduli were drawn.  (Ops of one class each would make the median an
    # empty class's census, whose cost depends on which classes are empty.)
    LADDER = (1_440_000, 1_480_000, 1_520_000, 1_560_000)
    E_CLASSES = ("rand", "e65537", "e3", "e3")  # e = 3 only where p, q have room
    LARGEST_SHARE = 0.9
    SAMPLES = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.insts = [self._near(rng, target, ec) for target, ec in zip(self.LADDER, self.E_CLASSES)]
        self.ops = []
        for inst in self.insts:
            _, exp_all = numth.exact_period_counts(inst.p, inst.q, inst.e, inst.k_f)
            ks = numth.divisors(inst.k_f)
            self.ops.append(Op("enumerate", inst, (library_instance(inst), ks), expect={"E_k": exp_all}))

    @staticmethod
    def _near(rng, target, e_class):
        avoid = E_FIXED.get(e_class)
        for _ in range(10_000):
            p = random_prime(rng, 1024, 2048, avoid)
            lo, hi = max(1024, int(target * 0.98) // p + 1), min(2047, int(target * 1.02) // p)
            if lo > hi:
                continue
            q = random_prime(rng, lo, hi + 1, avoid, tries=200)
            if q is None or q == p or (inst := instance_for(rng, p, q, e_class)) is None:
                continue
            _, counts = numth.exact_period_counts(p, q, inst.e, inst.k_f)
            if max(counts.values()) >= EnumerateDense.LARGEST_SHARE * inst.n:
                return inst
        raise RuntimeError(f"no instance with n near {target} for {e_class}")

    def instances(self):
        return self.insts

    def passes(self):
        while True:
            yield self.ops

    def run(self, op):
        li, ks = op.args
        classes = []
        for k in ks:
            pts = dynamics.enumerate_fixed_points(li, k, cap=li.n)
            classes.append(pts if isinstance(pts, list) else list(pts))
        return classes

    def check(self, op, classes):
        inst, ks = op.inst, op.args[1]
        if len(classes) != len(ks):
            return [f"{len(classes)} classes for {len(ks)} periods"]
        probs = []
        for k, pts in zip(ks, classes):
            if len(pts) != op.expect["E_k"][k]:
                probs.append(f"k={k}: {len(pts)} points, expected E_k = {op.expect['E_k'][k]}")
            # Ascending here; strictly so because the cover check below
            # finds any point listed twice.
            if pts != sorted(pts):
                probs.append(f"k={k}: class is not ascending")
            for i in sample_positions(len(pts), self.SAMPLES, k):
                if not numth.is_exact_period(pts[i], inst.n, inst.lam, inst.e, k, inst.k_f):
                    probs.append(f"k={k}: point {pts[i]} does not have exact period {k}")
        if not probs and not _covers_range(classes, inst.n):
            probs.append(f"the classes do not cover range({inst.n}) exactly once")
        return probs

    def points(self, op, classes):
        return sum(map(len, classes))

    enumerated = points

    def provenance(self):
        out = super().provenance()
        for desc, op in zip(out["instances"], self.ops):
            desc["class_sizes"] = {str(k): v for k, v in op.expect["E_k"].items()}
        return out

    def inversion_terms(self, op):
        return numth.inversion_terms(op.inst.k_f)

    def divisors_kmax(self, op):
        return numth.divisor_count(op.inst.k_f)


def _rho_steps_within(lo: int, hi: int):
    """Predicate: Brent's rho needs between lo and hi steps to split off r.

    The step count is quantized by Brent's doubling, so a band inside one
    doubling keeps the factoring work of every seed alike.
    """
    return lambda r: lo <= numth.brent_steps(r, limit=hi) <= hi


# --------------------------------------------------------------------------
# period-points


class PeriodPoints(Workload):
    name = "period-points"

    # p and q on a fixed ladder of sizes from 48 to 64 bits, so op costs form
    # a continuum and the median does not sit in a gap between two sizes.
    BITS = tuple(48 + 16 * i // 11 for i in range(12))
    E_CLASSES = ("e3", "e65537", "rand")
    # One prime factor B of p - 1 has 25 bits; the rest are below 2^12.  A
    # new L = lcm(ord_p, ord_q) then costs a rho run on B_p * B_q, and each
    # B takes a typical 6,200-8,300 rho steps, so no instance's cache
    # misses are much dearer than another's.  A miss (about 8 ms) is then
    # far dearer than a hit (about 0.5 ms) and than most stalls of the host.
    BIG_BITS = 25
    BIG_RHO_STEPS = (6_200, 8_300)
    # One untimed point per instance first: it factors p, q and p - 1, q - 1
    # into the cache, set-up a caller pays once per instance.
    warmup_passes = 1
    ZERO_EVERY = 8  # every 8th point is a multiple of p or of q
    # Each instance has a fixed pool of POOL seeded points, visited in turn.
    # A new L misses the cache once; the first round through the pools
    # meets every L the run will see, and later rounds hit.  So every run
    # of a seed pays the same misses, however many ops it runs, and its
    # tail (the 11th-dearest op) is one of them, not a chance late one.
    POOL = 256

    @staticmethod
    def pow_counts(inst: Instance) -> tuple[int, int]:
        """The modular powers one period costs: omega(p - 1) + omega(q - 1)
        (the component orders) and omega(lambda(lambda(n))) (the order of e
        mod L = lambda(n), at twice the size)."""
        return len(inst.p1_f) + len(inst.q1_f), len(numth.carmichael_of(inst.lam_f))

    # The commonest pow_counts of the instances drawn at each size.  Every
    # instance is drawn again until it has these, so a seed's instances do
    # the same number of pows as another seed's.
    POW_COUNTS = {
        48: (8, 12), 49: (9, 11), 50: (10, 12), 52: (10, 12), 53: (10, 12), 55: (10, 13),
        56: (10, 12), 58: (10, 14), 59: (11, 12), 61: (12, 13), 62: (12, 12), 64: (12, 13),
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.insts = []
        for i, bits in enumerate(self.BITS):
            while True:
                inst = pick_instance(
                    rng, bits, self.E_CLASSES[i % 3], MID_PRIMES, bits - 1 - self.BIG_BITS - 11, self.BIG_BITS,
                    _rho_steps_within(*self.BIG_RHO_STEPS),
                )
                if self.pow_counts(inst) == self.POW_COUNTS[bits]:
                    break
            self.insts.append(inst)
        self.lib = {id(i): library_instance(i) for i in self.insts}
        rng = random.Random(f"points:{seed}")
        self.pool_ops = []
        for idx in range(self.POOL):
            ops = []
            for inst in self.insts:
                if idx % self.ZERO_EVERY != self.ZERO_EVERY - 1:
                    x = rng.randrange(inst.n)
                elif idx // self.ZERO_EVERY % 2:
                    x = inst.p * rng.randrange(1, inst.q)
                else:
                    x = inst.q * rng.randrange(1, inst.p)
                ops.append(Op("period", inst, (x, self.lib[id(inst)])))
            self.pool_ops.append(ops)

    def instances(self):
        return self.insts

    def passes(self):
        return itertools.cycle(self.pool_ops)

    def run(self, op):
        x, li = op.args
        return dynamics.period_of_point(x, li)

    def check(self, op, rec):
        inst, x = op.inst, op.args[0]
        if rec.point != x:
            return [f"record is for {rec.point}, asked {x}"]
        P = rec.period
        if P < 1 or inst.k_max % P:
            return [f"period {P} does not divide K = {inst.k_max}"]
        probs = []
        if not numth.is_exact_period(x, inst.n, inst.lam, inst.e, P, inst.k_f):
            probs.append(f"x={x}: {P} is not the exact period")
        for prime, pf, o in ((inst.p, inst.p1_f, rec.component_orders[0]), (inst.q, inst.q1_f, rec.component_orders[1])):
            if x % prime == 0:
                if o is not None:
                    probs.append(f"x = 0 mod {prime} but component order {o}")
            elif o is None or (prime - 1) % o or numth.order_mod(x % prime, prime, numth.factor_over(o, pf)) != o:
                probs.append(f"wrong component order {o} mod {prime}")
        return probs


# --------------------------------------------------------------------------
# cli-mix


def _golden_cases():
    base = ["--p", "5", "--q", "7", "--e", "5"]
    return [
        ("audit_5_7_5.json", ["audit", *base]),
        ("census_5_7_5.json", ["census", *base]),
        ("census_5_7_5.csv", ["census", *base, "--format", "csv"]),
        ("cycles_5_7_5.json", ["cycles", *base]),
    ]


class CliMix(Workload):
    name = "cli-mix"
    child_processes = True

    # Eleven ops per pass, so the median op is one kind's op and not the
    # mean of two kinds of different cost.
    KINDS = (
        "census", "audit-table", "audit-n", "cycles-csv", "enumerate-lines",
        "oracle-n", "factor-demo", "invalid", "cap", "golden", "golden",
    )
    ENUM_LINES = (24_000, 24_600)
    RHO_TERMS = (400, 800)
    RHO_STEPS = (45_000, 65_000)

    @classmethod
    def _typical_rho(cls, inst) -> bool:
        lo, hi = cls.RHO_TERMS
        steps_ok = _rho_steps_within(*cls.RHO_STEPS)
        return lo <= numth.inversion_terms(inst.k_f) <= hi and steps_ok(inst.p) and steps_ok(inst.q)

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng

        def inst(lo, hi, e_class, accept=lambda i: True):
            while True:
                p, q = random_prime(rng, lo, hi), random_prime(rng, lo, hi)
                if p != q and (got := instance_for(rng, p, q, e_class)) is not None and accept(got):
                    return got

        def pq(i):
            return ["--p", str(i.p), "--q", str(i.q), "--e", str(i.e)]

        self.census_i = inst(1 << 12, 1 << 14, "e65537")
        self.audit_i = inst(1 << 14, 1 << 16, "e3")
        # audit --n: a census of 400-800 Mobius terms, and a typical rho
        # run (45,000-65,000 steps) for either factor, so the op is mostly rho.
        self.rho_i = inst(1 << 29, 1 << 30, "e65537", self._typical_rho)
        self.cycles_i = inst(1 << 12, 1 << 14, "rand")
        self.enum_i = inst(1 << 7, 1 << 8, "e65537", lambda i: self.ENUM_LINES[0] <= _class_size(i, i.k_max) <= self.ENUM_LINES[1])
        while True:
            p = random_prime(rng, 180, 280)
            q = random_prime(rng, 50_000 // p - 10, 50_000 // p + 10, tries=100)
            if q and q != p and (got := instance_for(rng, p, q, "e3")) is not None:
                self.oracle_i = got
                break
        self.demo_i = inst(1 << 10, 1 << 12, "e65537")
        bad_p = random_prime(rng, 100, 1000) * random_prime(rng, 100, 1000)
        golden = [(GOLDEN / name, argv) for name, argv in _golden_cases()]
        self.golden = [(path.read_bytes() if path.is_file() else None, argv) for path, argv in golden]
        self.exact = {}
        for i in (self.census_i, self.audit_i, self.rho_i, self.cycles_i, self.enum_i, self.oracle_i, self.demo_i):
            self.exact[id(i)] = numth.exact_period_counts(i.p, i.q, i.e, i.k_f)
        k_enum = self.enum_i.k_max
        self.argvs = {
            "census": (self.census_i, ["census", *pq(self.census_i)], 0),
            "audit-table": (self.audit_i, ["audit", *pq(self.audit_i), "--format", "table"], 0),
            "audit-n": (self.rho_i, ["audit", "--n", str(self.rho_i.n), "--e", str(self.rho_i.e)], 0),
            "cycles-csv": (self.cycles_i, ["cycles", *pq(self.cycles_i), "--format", "csv"], 0),
            "enumerate-lines": (
                self.enum_i,
                ["enumerate", *pq(self.enum_i), "--k", str(k_enum), "--format", "lines"],
                0,
            ),
            "oracle-n": (self.oracle_i, ["oracle", "--n", str(self.oracle_i.n), "--e", str(self.oracle_i.e)], 0),
            "factor-demo": (self.demo_i, ["factor-demo", *pq(self.demo_i)], 0),
            "invalid": (None, ["census", "--p", str(bad_p), "--q", str(self.census_i.q), "--e", "3"], 2),
            "cap": (self.demo_i, ["enumerate", *pq(self.demo_i), "--k", "1", "--cap", "1"], 4),
        }
        self.env = child_env()

    def instances(self):
        return [self.census_i, self.audit_i, self.rho_i, self.cycles_i, self.enum_i, self.oracle_i, self.demo_i]

    def passes(self):
        for idx in itertools.count():
            ops = []
            golden = itertools.count(2 * idx)
            for kind in self.KINDS:
                if kind == "golden":
                    expected, argv = self.golden[next(golden) % len(self.golden)]
                    ops.append(Op(kind, None, tuple(argv), expect={"rc": 0, "bytes": expected}))
                else:
                    inst, argv, rc = self.argvs[kind]
                    ops.append(Op(kind, inst, tuple(argv), expect={"rc": rc}))
            yield ops

    def command(self, op) -> list[str]:
        return [sys.executable, "-m", "rsa_fixpoints", *op.args]

    def run(self, op):
        res = subprocess.run(self.command(op), capture_output=True, env=self.env, cwd=ROOT, timeout=120)
        return res.returncode, res.stdout, res.stderr

    def check(self, op, out):
        rc, stdout, stderr = out
        probs = []
        if rc != op.expect["rc"]:
            probs.append(f"{op.kind}: exit code {rc}, expected {op.expect['rc']}")
        if b"Traceback" in stderr:
            probs.append(f"{op.kind}: traceback on stderr")
        if probs:
            return probs
        if op.expect["rc"] != 0:
            return [] if stderr.startswith(b"error:") else [f"{op.kind}: no error message"]
        text = stdout.decode()
        if op.kind == "golden":
            return [] if stdout == op.expect["bytes"] else [f"golden bytes differ for {' '.join(op.args)}"]
        return self._content_problems(op, text)

    def _content_problems(self, op, text) -> list[str]:
        inst = op.inst
        units, alls = self.exact[id(inst)]
        kind = op.kind
        if kind in ("census", "oracle-n", "audit-n", "factor-demo"):
            payload = json.loads(text)
            probs = json_int_problems(payload)
            if kind == "factor-demo":
                return probs + _factor_demo_problems(inst, payload)
            if kind == "audit-n":
                got_pq = (int(payload["instance"]["p"]), int(payload["instance"]["q"]))
                if got_pq != (min(inst.p, inst.q), max(inst.p, inst.q)):
                    probs.append(f"audit --n recovered {got_pq}")
                payload = payload["census"]
            cen = reports.census_from_json_dict(payload)
            return probs + census_problems(inst, cen.k_max, cen.unit_counts, cen.all_counts, (units, alls))
        if kind == "audit-table":
            rows = _int_rows(text, 3)
            got_u = {r[0]: r[1] for r in rows}
            got_a = {r[0]: r[2] for r in rows}
            k_max = re.search(r"^  k_max = (\d+)$", text, re.M)
            probs = census_problems(inst, int(k_max[1]) if k_max else 0, got_u, got_a, (units, alls))
            if f"  n = {inst.n}\n" not in text or "\nverdict: " not in text:
                probs.append("audit table lacks the n or verdict line")
            return probs
        if kind == "cycles-csv":
            lines = text.splitlines()
            if lines[0] != "k,points,cycles":
                return ["cycles csv header"]
            rows = [tuple(map(int, ln.split(","))) for ln in lines[1:]]
            want = [(k, v, v // k) for k, v in sorted(alls.items()) if v]
            return [] if rows == want else ["cycles csv rows differ from the closed form"]
        if kind == "enumerate-lines":
            pts = [int(ln) for ln in text.split()]
            k = inst.k_max
            probs = []
            if len(pts) != alls[k]:
                probs.append(f"enumerate listed {len(pts)}, expected {alls[k]}")
            if not all(map(lt, pts, itertools.islice(pts, 1, None))):
                probs.append("enumerate output not strictly ascending")
            for i in sample_positions(len(pts), 4, k):
                if not numth.is_exact_period(pts[i], inst.n, inst.lam, inst.e, k, inst.k_f):
                    probs.append(f"point {pts[i]} lacks period {k}")
            return probs
        return [f"unknown kind {kind}"]

    def points(self, op, out):
        return out[1].count(b"\n")

    def bytes_out(self, op, out):
        return len(out[1])

    def enumerated(self, op, out):
        return self.points(op, out) if op.kind == "enumerate-lines" else 0

    def inversion_terms(self, op):
        if op.kind in ("census", "audit-table", "audit-n", "cycles-csv"):
            return 2 * numth.inversion_terms(op.inst.k_f)
        return 0

    def divisors_kmax(self, op):
        return numth.divisor_count(op.inst.k_f) if op.inst else 0


def _covers_range(lists, n: int, chunk: int = 1 << 16) -> bool:
    """Whether the lists together hold each of 0 .. n-1 exactly once."""
    merged = sorted(itertools.chain.from_iterable(lists))
    return len(merged) == n and all(
        merged[i : i + chunk] == list(range(i, min(n, i + chunk))) for i in range(0, n, chunk)
    )


def _class_size(inst: Instance, k: int) -> int:
    return numth.exact_period_counts(inst.p, inst.q, inst.e, inst.k_f)[1][k]


def _int_rows(text: str, width: int) -> list[tuple[int, ...]]:
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == width and all(p.isdigit() for p in parts):
            rows.append(tuple(map(int, parts)))
    return rows


def _factor_demo_problems(inst: Instance, payload: dict) -> list[str]:
    m, f, c = (int(payload[k]) for k in ("fixed_point", "factor", "cofactor"))
    probs = []
    if pow(m, inst.e, inst.n) != m:
        probs.append("factor-demo point is not fixed")
    if f * c != inst.n or f not in (inst.p, inst.q):
        probs.append("factor-demo factor does not split n")
    if (int(payload["fixed_point_mod_p"]), int(payload["fixed_point_mod_q"])) != (m % inst.p, m % inst.q):
        probs.append("factor-demo residues are wrong")
    return probs


WORKLOADS = {w.name: w for w in (AuditCensus, EnumerateDense, PeriodPoints, CliMix)}
