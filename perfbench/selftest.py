"""Self-tests for the benchmark's checkers and its determinism.

    python3 perfbench/selftest.py

Each corrupted output below must be counted as a failed op, each correct
one must pass, and one seed must give the same inputs and outputs twice.
Exits 1 if any test fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import numth, run, spans  # noqa: E402
from perfbench.workloads import WORKLOADS, AuditCensus, CliMix, EnumerateDense  # noqa: E402

SEED = 7
failures: list[str] = []


def expect(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if not ok:
        failures.append(name)


def first_pass(wl):
    return next(iter(wl.passes()))


def test_census_off_by_one():
    wl = AuditCensus(SEED)
    op = min(first_pass(wl), key=lambda o: numth.inversion_terms(o.inst.k_f))
    report, text = wl.run(op)
    expect("audit-census: correct census passes", wl.check(op, (report, text)) == [])
    counts = dict(report.census.all_counts)
    k = max(counts)
    counts[k] += 1
    bad = dataclasses.replace(report, census=dataclasses.replace(report.census, all_counts=counts))
    expect("audit-census: one E_k off by one fails", wl.check(op, (bad, text)) != [])


def test_enumeration_swap():
    wl = EnumerateDense(SEED)
    op = first_pass(wl)[0]
    classes = wl.run(op)
    expect("enumerate-dense: correct classes pass", wl.check(op, classes) == [])
    i = next(i for i, c in enumerate(classes) if len(c) >= 2)
    swapped = [list(c) for c in classes]
    swapped[i][0], swapped[i][1] = swapped[i][1], swapped[i][0]
    expect("enumerate-dense: two swapped points fail", wl.check(op, swapped) != [])
    short = [list(c) for c in classes]
    short[i].pop()
    expect("enumerate-dense: a missing point fails", wl.check(op, short) != [])
    twice = [list(c) for c in classes]
    twice[i][1] = twice[i][0]
    expect("enumerate-dense: a point listed twice fails", wl.check(op, twice) != [])
    moved = [list(c) for c in classes]
    j = next(j for j, c in enumerate(classes) if j != i and c)
    moved[j][-1], moved[i][-1] = moved[i][-1], moved[j][-1]
    expect("enumerate-dense: points swapped between classes fail", wl.check(op, moved) != [])


def test_cli_exit_code():
    wl = CliMix(SEED)
    ops = {o.kind: o for o in first_pass(wl)}
    for kind in ("census", "invalid", "golden"):
        op = ops[kind]
        rc, out, err = wl.run(op)
        expect(f"cli-mix: {kind} op passes", wl.check(op, (rc, out, err)) == [])
        expect(f"cli-mix: {kind} op with a wrong exit code fails", wl.check(op, (rc + 1, out, err)) != [])
    op = ops["golden"]
    rc, out, err = wl.run(op)
    expect("cli-mix: a changed golden byte fails", wl.check(op, (rc, out.replace(b"5", b"6", 1), err)) != [])


def test_tracer_tolerates_missing_names():
    tracer = spans.Tracer()
    tracer.install(("arith.no_such_function", "no_such_module.f", "arith.gcd"))
    tracer.uninstall()
    expect("tracer: missing names are reported absent", tracer.absent == ["arith.no_such_function", "no_such_module.f"])


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = run.Result()
    res.durations, res.points = [0.5] * 20, 40
    e2e = run.end_to_end_metrics(res, run.timing_summary(res.durations), [0.1], 20.0)
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    expect("end-to-end metric names and units match BENCHMARK.json", {k: v["unit"] for k, v in e2e.items()} == want)
    child = {
        "summary": {"stats": {}, "absent": []}, "attempted": 1, "durations": [1.0], "cache": None,
        "inversion_terms": 0, "divisors_kmax": 0, "enumerated": 0, "bytes_out": 0,
        "main_ms": {}, "audit_n_factorize_s": 0.0,
    }
    layer, _ = run.per_layer_metrics(child, res, {"interpreter_start_ms": 1.0, "import_ms": 1.0})
    want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    expect("per-layer metric names and units match BENCHMARK.json", {k: v["unit"] for k, v in layer.items()} == want)
    mapped = {m for group, _, _ in run.LAYER_MAP for m in group if "*" not in m}
    expect("the layer map names only declared per-layer metrics", mapped <= set(want))


def test_speed_scaling():
    nominal = run.SPEED_NOMINAL_S
    res = run.Result()
    res.durations = [0.1, 0.1, 0.2, 0.2]
    res.probes = [nominal] * 3 + [2 * nominal] * 5
    res.probe_at = [0, 1, 4, 5]
    scaled = res.scaled()
    expect("speed scaling: ops among nominal probes keep their time", scaled[:2] == [0.1, 0.1])
    expect("speed scaling: ops among probes twice as slow count half", scaled[2:] == [0.1, 0.1])
    expect("speed scaling: no probes, no scaling", run.Result().scaled() == [])


def digest(wl, ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        out = wl.run(op)
        h.update(repr(out[1:] if wl.name == "cli-mix" else out).encode())
    return h.hexdigest()


def test_same_seed_same_inputs_and_outputs():
    for name, cls in WORKLOADS.items():
        a, b = cls(SEED), cls(SEED)
        expect(f"{name}: same seed, same instance list", a.provenance() == b.provenance())
        ops_a = [o for o in first_pass(a) if o.kind != "audit" or numth.inversion_terms(o.inst.k_f) < 20_000][:6]
        ops_b = [o for o in first_pass(b) if o.kind != "audit" or numth.inversion_terms(o.inst.k_f) < 20_000][:6]
        expect(f"{name}: same seed, same output digest", digest(a, ops_a) == digest(b, ops_b))
    c = AuditCensus(SEED + 1)
    expect("audit-census: another seed, other instances", c.provenance() != AuditCensus(SEED).provenance())


if __name__ == "__main__":
    for test in (
        test_census_off_by_one,
        test_enumeration_swap,
        test_cli_exit_code,
        test_tracer_tolerates_missing_names,
        test_metric_names_match_benchmark_json,
        test_speed_scaling,
        test_same_seed_same_inputs_and_outputs,
    ):
        test()
    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)
