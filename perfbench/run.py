"""Benchmark for rsa_fixpoints.

    python3 perfbench/run.py --workload audit-census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Runs from the root of a source checkout and imports the package from
``src``.  Load is a closed loop with one client: the next op starts when
the previous one has returned and been checked.  Ops run in whole passes
until ``--seconds`` of wall time have gone by.  Every op's output is
checked outside its timed span; a wrong answer, an exception or an
unexpected exit code counts as a failed op.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` the same untraced loop runs first, then a second
process runs the ops again with every public function of the package
wrapped, and the last line holds the per-layer metrics.  The line before
the last one is a JSON report with the inputs, work counts and details.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
PROBE_REPEATS = 5

# The host's speed drifts by a fifth or more over tens of seconds, and every
# op slows with it.  A fixed speed probe, made of the three kinds of work the
# package does (interpreter loop, big-integer pow, list sort) and touching
# nothing of the package, runs before and after an op whenever PROBE_EVERY_S
# has passed since the last one.
# Each op's time is scaled by SPEED_NOMINAL_S / (median of the four probes
# around it), so a time reads as if the probe had taken SPEED_NOMINAL_S.
SPEED_NOMINAL_S = 0.002
PROBE_EVERY_S = 0.05
_PROBE_MOD = (1 << 61) - 1
_PROBE_LIST = [(i * 7919) % 3571 for i in range(3500)]

# Which end-to-end metrics each group of per-layer metrics should move, and
# on which workloads (a change there should show nothing elsewhere).
LAYER_MAP = (
    (("census.full_census.self_s", "census.exact_order_unit_count.calls", "census.exact_order_all_count.calls",
      "census.inversion_terms", "census.divisors_kmax"), ("ops_per_s", "op_tail_ms"), ("audit-census",)),
    (("arith.mobius.calls", "arith.mobius.self_s", "arith.factorize.calls", "arith.factorize.self_s",
      "arith.factorize.cache_hit_ratio"), ("ops_per_s",), ("audit-census", "period-points")),
    (("arith.multiplicative_order.calls", "arith.multiplicative_order.self_s", "arith.divisors.calls",
      "arith.divisors.self_s"), ("points_per_s", "op_p50_ms"), ("period-points",)),
    (("dynamics.enumerate_fixed_points.self_s", "dynamics.enumerated_points"), ("points_per_s", "peak_rss_mb"),
     ("enumerate-dense",)),
    (("dynamics.period_of_point.self_s",), ("points_per_s",), ("period-points",)),
    (("cli.audit_n.factorize_self_s", "arith.is_prime.calls"), ("op_tail_ms",), ("cli-mix",)),
    (("cli.interpreter_start_ms", "cli.import_ms", "cli.main_ms.*", "reports.render_*.self_s", "reports.bytes_out"),
     ("op_p50_ms", "setup_s"), ("cli-mix",)),
    (("oracle.brute_power_map_census.self_s",), ("op_tail_ms",), ("cli-mix",)),
    (("trace.overhead_frac",), (), ("audit-census", "enumerate-dense", "period-points", "cli-mix")),
)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    if not (SRC / "rsa_fixpoints" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'rsa_fixpoints'}; run from a source checkout")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workloads

    return workloads


# --------------------------------------------------------------------------
# the measured loop


class Result:
    def __init__(self):
        self.durations: list[float] = []  # seconds, one per op
        self.kinds: list[str] = []
        self.points = 0
        self.enumerated = 0
        self.bytes_out = 0
        self.inversion_terms = 0
        self.divisors_kmax = 0
        self.failures: list[str] = []
        self.failed = 0
        self.wall_s = 0.0
        self.probes: list[float] = []  # seconds, one per speed probe
        self.probe_at: list[int] = []  # per op, the index of the last probe before it

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def scaled(self) -> list[float]:
        """Op times at nominal speed; raw times when no probe was taken."""
        if not self.probes:
            return list(self.durations)
        factors = speed_factors(self.probes, self.probe_at)
        return [d * f for d, f in zip(self.durations, factors)]


def speed_probe() -> float:
    """Seconds taken by a fixed piece of work that does not touch the package."""
    t0 = perf_counter_ns()
    s = 0
    for i in range(7000):
        s += i * i % 7
    x = 3
    for i in range(40):
        x = pow(x, 0x1234567890ABCDEF, _PROBE_MOD) + i
    sorted(_PROBE_LIST)
    return (perf_counter_ns() - t0) / 1e9


@contextlib.contextmanager
def one_cpu(on: bool = True):
    """Keep this process, and the processes it starts, on one CPU meanwhile.

    A child process may otherwise run on another CPU than the probes
    around it, one the probes say nothing about; the CPUs of a shared host
    differ in speed from moment to moment.  Ops that run in this process
    are left free to use every CPU.
    """
    if not on or not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def speed_factors(probes: list[float], probe_at: list[int]) -> list[float]:
    """Per op, SPEED_NOMINAL_S over the median of the probes j-1 .. j+2, where
    the op ran between probes j and j+1."""
    memo = {}
    for j in probe_at:
        if j not in memo:
            memo[j] = SPEED_NOMINAL_S / statistics.median(probes[max(0, j - 1) : j + 3])
    return [memo[j] for j in probe_at]


def run_and_check(wl, op, timed_call, i):
    """(output, ns, problems) of one op; a crash is a failed op, not a crashed benchmark."""
    try:
        out, ns = timed_call(i, op)
        return out, ns, wl.check(op, out)
    except Exception as exc:
        return None, 0, [f"{op.kind}: {type(exc).__name__}: {exc}"]


def warm_up(wl, passes) -> tuple[int, list[str]]:
    """Untimed, checked passes that fill the package's caches first."""
    ops, probs = 0, []
    for _ in range(wl.warmup_passes):
        for op in next(passes):
            ops += 1
            probs += run_and_check(wl, op, plain_call(wl), 0)[2]
    return ops, probs


def measure(wl, passes, seconds: float, timed_call) -> Result:
    """Closed loop over whole passes; ``timed_call(i, op)`` -> (output, ns)."""
    res = Result()
    start = perf_counter()
    last_probe = [start]

    def probe_if_due():
        if perf_counter() - last_probe[0] >= PROBE_EVERY_S:
            res.probes.append(speed_probe())
            last_probe[0] = perf_counter()

    def call_then_probe(i, op):
        # A long op gets a probe on each side of it, before its check runs.
        out, ns = timed_call(i, op)
        probe_if_due()
        return out, ns

    res.probes.append(speed_probe())
    for ops in passes:
        for op in ops:
            probe_if_due()
            res.probe_at.append(len(res.probes) - 1)
            out, ns, probs = run_and_check(wl, op, call_then_probe, res.attempted)
            res.durations.append(ns / 1e9)
            res.kinds.append(op.kind)
            if probs:
                res.failed += 1
                res.failures.extend(probs[: 20 - len(res.failures)] if len(res.failures) < 20 else [])
                continue
            res.points += wl.points(op, out)
            res.enumerated += wl.enumerated(op, out)
            res.bytes_out += wl.bytes_out(op, out)
            res.inversion_terms += wl.inversion_terms(op)
            res.divisors_kmax += wl.divisors_kmax(op)
        if perf_counter() - start >= seconds:
            break
    res.probes += [speed_probe(), speed_probe()]
    res.wall_s = perf_counter() - start
    return res


def plain_call(wl):
    def call(i, op):
        t0 = perf_counter_ns()
        out = wl.run(op)
        return out, perf_counter_ns() - t0

    return call


def tail_index(n: int) -> int:
    """Index (ascending order) of the highest sample with ten samples above it."""
    return max(0, n - 11)


def timing_summary(durations: list[float]) -> dict:
    d = sorted(durations)
    n = len(d)
    i = tail_index(n)
    return {
        "samples": n,
        "busy_s": sum(d),
        "p50_ms": statistics.median(d) * 1e3,
        "tail_ms": d[i] * 1e3,
        "tail_percentile": 100.0 * (i + 1) / n,
        "samples_beyond_tail": n - 1 - i,
    }


# --------------------------------------------------------------------------
# subprocess probes


def timed_subprocess(cmd, stdin: bytes = b"") -> tuple[float, subprocess.CompletedProcess]:
    from perfbench.workloads import child_env

    t0 = perf_counter()
    res = subprocess.run(cmd, input=stdin, capture_output=True, env=child_env(), cwd=ROOT, timeout=120)
    return perf_counter() - t0, res


def measure_setup(wl) -> tuple[list[float], list[str]]:
    """Wall time of fresh processes that import the package and build the
    instances, each scaled by the speed probes around it."""
    triples = [[i.p, i.q, i.e] for i in wl.instances()]
    payload = json.dumps(triples).encode()
    times, probes, probs = [], [], []
    with one_cpu():
        for _ in range(SETUP_REPEATS):
            probes.append(speed_probe())
            dt, res = timed_subprocess([sys.executable, str(ROOT / "perfbench" / "setup_probe.py")], payload)
            times.append(dt)
            if res.returncode != 0 or res.stdout.strip() != str(len(triples)).encode():
                probs.append(f"setup probe failed: exit {res.returncode}, {res.stderr.decode()[-300:]}")
        probes += [speed_probe(), speed_probe()]
    factors = speed_factors(probes, list(range(SETUP_REPEATS)))
    return [t * f for t, f in zip(times, factors)], probs


def probe_startup() -> dict:
    """Interpreter start (``python -c pass``) and in-process import time of the CLI."""
    start, imp = [], []
    code = "import time; t = time.perf_counter(); import rsa_fixpoints.cli; print(time.perf_counter() - t)"
    for _ in range(PROBE_REPEATS):
        start.append(timed_subprocess([sys.executable, "-c", "pass"])[0])
        _, res = timed_subprocess([sys.executable, "-c", code])
        imp.append(float(res.stdout))
    return {"interpreter_start_ms": statistics.median(start) * 1e3, "import_ms": statistics.median(imp) * 1e3}


def peak_rss_mb(wl_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if wl_name == "cli-mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# traced run


def traced_child(wl, seconds: float) -> dict:
    """Run in its own process: wrap the package, run the ops, return aggregates."""
    from perfbench import spans as trace

    passes = wl.passes()
    warm_ops, warm_probs = warm_up(wl, passes)
    tracer = trace.Tracer(keep=200)
    cache_before = trace.cache_counts()
    cli_parts, main_ms, audit_n_factorize = [], {}, []
    if wl.name == "cli-mix":
        # Each op is its own traced subprocess; collect what each one saw.
        def call(i, op):
            cmd = [sys.executable, str(ROOT / "perfbench" / "clitrace.py"), *op.args]
            t0 = perf_counter_ns()
            res = subprocess.run(cmd, capture_output=True, env=wl.env, cwd=ROOT, timeout=120)
            ns = perf_counter_ns() - t0
            err_lines = res.stderr.decode().splitlines(keepends=True)
            if not err_lines or not err_lines[-1].startswith(trace.TRACE_LINE):
                raise RuntimeError(f"traced CLI printed no trace line: {res.stderr.decode()[-300:]}")
            part = json.loads(err_lines[-1][len(trace.TRACE_LINE):])
            cli_parts.append(part)
            main_ms.setdefault(op.args[0], []).append(part["main_ms"])
            if op.kind == "audit-n":
                audit_n_factorize.append(part["stats"].get("arith.factorize", [0, 0, 0])[2] / 1e9)
            return (res.returncode, res.stdout, "".join(err_lines[:-1]).encode()), ns
    else:
        tracer.install()

        def call(i, op):
            return tracer.run_op(i, wl.run, op)

    with one_cpu(wl.child_processes):
        res = measure(wl, passes, seconds, call)
    tracer.uninstall()
    cache_after = trace.cache_counts()
    summary = tracer.summary()
    if cli_parts:
        summary = trace.merge_summaries(cli_parts)
        hits = sum(p["cache"][0] for p in cli_parts if p["cache"])
        misses = sum(p["cache"][1] for p in cli_parts if p["cache"])
        cache = [hits, misses] if any(p["cache"] for p in cli_parts) else None
    else:
        cache = None
        if cache_before and cache_after:
            cache = [cache_after[0] - cache_before[0], cache_after[1] - cache_before[1]]
    return {
        "summary": summary,
        "cache": cache,
        "durations": res.scaled(),
        "attempted": res.attempted,
        "warmup_ops": warm_ops,
        "failed": res.failed + len(warm_probs),
        "failures": warm_probs + res.failures,
        "enumerated": res.enumerated,
        "bytes_out": res.bytes_out,
        "inversion_terms": res.inversion_terms,
        "divisors_kmax": res.divisors_kmax,
        "main_ms": {k: statistics.median(v) for k, v in main_ms.items()},
        "audit_n_factorize_s": statistics.median(audit_n_factorize) if audit_n_factorize else 0.0,
        "spans_kept": tracer.spans,
    }


def end_to_end_metrics(res: Result, timing: dict, setup_times: list[float], rss_mb: float) -> dict:
    busy = timing["busy_s"]
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": res.attempted / busy, "unit": "1/s"},
        "op_p50_ms": {"value": timing["p50_ms"], "unit": "ms"},
        "op_tail_ms": {"value": timing["tail_ms"], "unit": "ms"},
        "points_per_s": {"value": res.points / busy, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


PER_LAYER_SELF = (
    "census.full_census",
    "arith.mobius",
    "arith.factorize",
    "arith.multiplicative_order",
    "arith.divisors",
    "dynamics.enumerate_fixed_points",
    "dynamics.period_of_point",
    "reports.render_report",
    "reports.render_census",
    "reports.render_cycles",
    "reports.render_json",
    "oracle.brute_power_map_census",
)
PER_LAYER_CALLS = (
    "census.exact_order_unit_count",
    "census.exact_order_all_count",
    "arith.mobius",
    "arith.factorize",
    "arith.multiplicative_order",
    "arith.divisors",
    "arith.is_prime",
)
CLI_SUBCOMMANDS = ("census", "audit", "cycles", "enumerate", "oracle", "factor-demo")


def per_layer_metrics(child: dict, untraced: Result, startup: dict) -> tuple[dict, dict]:
    stats = child["summary"]["stats"]
    n = max(1, child["attempted"])
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for fn in PER_LAYER_CALLS:
        put(f"{fn}.calls", stats.get(fn, [0, 0, 0])[0] / n, "calls/op")
    for fn in PER_LAYER_SELF:
        put(f"{fn}.self_s", stats.get(fn, [0, 0, 0])[2] / 1e9 / n, "s/op")
    put("census.inversion_terms", child["inversion_terms"] / n, "count/op")
    put("census.divisors_kmax", child["divisors_kmax"] / n, "count/op")
    hits, misses = child["cache"] or (0, 0)
    put("arith.factorize.cache_hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put("dynamics.enumerated_points", child["enumerated"] / n, "count/op")
    put("reports.bytes_out", child["bytes_out"] / n, "bytes/op")
    put("cli.interpreter_start_ms", startup["interpreter_start_ms"], "ms")
    put("cli.import_ms", startup["import_ms"], "ms")
    for sub in CLI_SUBCOMMANDS:
        put(f"cli.main_ms.{sub}", child["main_ms"].get(sub, 0.0), "ms")
    put("cli.audit_n.factorize_self_s", child["audit_n_factorize_s"], "s")
    # Overhead: the same ops, in the same order, traced against untraced.
    common = min(len(child["durations"]), untraced.attempted)
    traced_s = sum(child["durations"][:common])
    plain_s = sum(untraced.scaled()[:common])
    put("trace.overhead_frac", traced_s / plain_s - 1.0 if plain_s else 0.0, "ratio")
    notes = {
        "absent": child["summary"]["absent"],
        "cache_base": {"hits": hits, "misses": misses},
        "overhead_ops_compared": common,
        "layer_map": [{"metrics": m, "moves": e2e, "on": on} for m, e2e, on in LAYER_MAP],
    }
    return m, notes


# --------------------------------------------------------------------------


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def run_workload(args, workloads) -> int:
    t0 = perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    generate_s = perf_counter() - t0

    if args.traced_child:
        out = traced_child(wl, args.seconds)
        print(json.dumps(out))
        return 0

    problems = wl.once_per_run_checks()
    setup_times, setup_probs = measure_setup(wl) if not args.trace else ([], [])
    problems += setup_probs
    passes = wl.passes()
    with one_cpu(wl.child_processes):
        warm_ops, warm_probs = warm_up(wl, passes)
        problems += warm_probs
        res = measure(wl, passes, args.seconds, plain_call(wl))
    scaled = res.scaled()
    timing = timing_summary(scaled)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "generate_s": generate_s,
        "provenance": wl.provenance(),
        "timing": timing,
        "timing_unscaled": timing_summary(res.durations),
        "speed_probe_ms": {"median": statistics.median(res.probes) * 1e3, "count": len(res.probes)},
        "points_total": res.points,
        "points_per_op": res.points / max(1, res.attempted),
        "ops_by_kind": {k: res.kinds.count(k) for k in dict.fromkeys(res.kinds)},
        "p50_ms_by_kind": {
            k: statistics.median(d for d, kk in zip(scaled, res.kinds) if kk == k) * 1e3
            for k in dict.fromkeys(res.kinds)
        },
        "wall_s": res.wall_s,
        "warmup_ops": warm_ops,
        "failures": problems + res.failures,
    }
    attempted, failed = res.attempted + warm_ops, res.failed + len(problems)

    if args.trace:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", wl.name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "1", "--traced-child",
        ]
        proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=170)
        if proc.returncode != 0:
            fail(f"traced run failed: {proc.stderr.decode()[-2000:]}")
        child = json.loads(proc.stdout.decode().splitlines()[-1])
        metrics, notes = per_layer_metrics(child, res, probe_startup())
        report["trace_notes"] = notes
        report["traced"] = {k: child[k] for k in ("attempted", "failed", "failures", "spans_kept")}
        report["failures"] += child["failures"]
        attempted += child["attempted"] + child["warmup_ops"]
        failed += child["failed"]
    else:
        metrics = end_to_end_metrics(res, timing, setup_times, peak_rss_mb(wl.name))
        report["setup_samples_s"] = setup_times
    report["failed_frac"] = failed / attempted if attempted else 1.0
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, workloads) -> int:
    """Every workload in turn, each in its own process; prints a table."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr.decode()[-2000:]}")
            worst = 1
            continue
        last = json.loads(proc.stdout.decode().splitlines()[-1])
        frac = last["failed"] / last["attempted"]
        print(f"{name}  attempted={last['attempted']}  failed={last['failed']}  failed_frac={frac}")
        for metric, v in last["metrics"].items():
            print(f"  {metric:<40} {v['value']:>16.6g} {v['unit']}")
        worst = worst or (last["failed"] != 0)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workloads = load_package()
    if args.workload == "all":
        return run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
