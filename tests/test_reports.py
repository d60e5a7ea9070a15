import dataclasses
import json
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsa_fixpoints import reports
from rsa_fixpoints.cli import main
from rsa_fixpoints.census import ExactOrderCensus, full_census, make_instance
from rsa_fixpoints.dynamics import enumerate_fixed_points
from rsa_fixpoints.oracle import brute_power_map_census
from rsa_fixpoints.reports import build_audit_report, render_census, render_points, render_report
from test_census import BIG_64


def _quoted(v):
    # The payload with the schema's value rules applied by hand, for json.dumps:
    # an int beyond 2**53 as its decimal str, a Fraction as {"num", "den"}, a
    # census as census_to_json_dict has it.
    if type(v) is int:
        return v if -(2**53) <= v <= 2**53 else str(v)
    if isinstance(v, Fraction):
        return {"num": _quoted(v.numerator), "den": _quoted(v.denominator)}
    if isinstance(v, ExactOrderCensus):
        return reports.census_to_json_dict(v)
    if isinstance(v, dict):
        return {k: _quoted(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_quoted(x) for x in v]
    return v


def test_json_int_threshold_in_every_position():
    # Plain up to 2**53 in magnitude, a quoted decimal beyond: as a scalar, a
    # dict value, an int list item (the %-template takes [0, v] when v is
    # plain; [None, v] always takes the item-by-item path), a census count
    # and a census k_max.
    census_lines = ["{", '  "k_max": %s,', '  "unit_counts": {', '    "1": %s', "  },"]
    census_lines += ['  "all_counts": {', '    "1": 0,', '    "2": %s', "  }", "}", ""]
    plain = [(2**53, "9007199254740992"), (-(2**53), "-9007199254740992")]
    quoted = [(2**53 + 1, '"9007199254740993"'), (-(2**53) - 1, '"-9007199254740993"')]
    for v, text in plain + quoted:
        assert reports.render_json(v) == text + "\n"
        assert reports.render_json({"a": v}) == '{\n  "a": %s\n}\n' % text
        assert reports.render_json([0, v]) == "[\n  0,\n  %s\n]\n" % text
        assert reports.render_json([None, v]) == "[\n  null,\n  %s\n]\n" % text
        cen = ExactOrderCensus(k_max=v, unit_counts={1: v}, all_counts={1: 0, 2: v})
        assert render_census(cen, "json") == "\n".join(census_lines) % (text, text, text)


def test_big_integers_render_as_decimal_strings():
    p, q = 1000000007, 1000000009
    report = build_audit_report(make_instance(p, q, 65537))
    payload = json.loads(render_report(report, "json"))
    assert payload["instance"]["n"] == str(p * q)  # n > 2^53
    assert payload["instance"]["p"] == p  # small enough to stay numeric
    assert int(payload["instance"]["phi"]) == (p - 1) * (q - 1)


def test_points_above_2_to_the_53_render_as_decimal_strings(capsys):
    # n > 2**53, so render_points encodes each point; E_1 of BIG_64 is 9.
    inst = make_instance(*BIG_64)
    assert main(["enumerate", "--p", str(inst.p), "--q", str(inst.q), "--e", str(inst.e), "--k", "1"]) == 0
    rendered = capsys.readouterr().out
    points = enumerate_fixed_points(inst, 1)
    assert len(points) == 9 and any(m > 2**53 for m in points)
    payload = {"instance": reports.instance_to_json_dict(inst), "k": 1, "count": 9, "fixed_points": points}
    assert rendered == json.dumps(_quoted(payload), indent=2) + "\n"
    assert [type(m) is str for m in json.loads(rendered)["fixed_points"]] == [m > 2**53 for m in points]


def test_weak_fractions_in_lowest_terms():
    report = build_audit_report(make_instance(5, 7, 5))
    assert report.weak_fraction[1] == Fraction(3, 7)  # 15/35 reduced
    payload = json.loads(render_report(report, "json"))
    assert payload["weak_fraction"]["1"] == {"num": 3, "den": 7}
    assert payload["weak_fraction"]["2"] == {"num": 1, "den": 1}


def test_weak_fraction_nondecreasing_and_one_at_k_max():
    report = build_audit_report(
        make_instance(11, 71, 17), weak_bounds=(1, 2, 3, 4, 6, 100)
    )
    values = [fr for _, fr in sorted(report.weak_fraction.items())]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert report.weak_fraction[report.k_max] == 1


def test_weak_fractions_read_one_prefix_sum_per_bound():
    # Every bound from 1 to K + 1 against a direct sum of E_k over k <= b, and
    # 10,000 bounds above K on a 64-bit instance with d(K) = 11,520: one
    # prefix sum of the census, not one sum over d(K) counts per bound.
    inst = make_instance(11, 71, 17)
    alls = full_census(inst).all_counts
    bounds = tuple(range(1, max(alls) + 2))
    report = build_audit_report(inst, weak_bounds=bounds)
    for b in bounds:
        assert report.weak_fraction[b] == Fraction(sum(e for k, e in alls.items() if k <= b), inst.n), b
    big = make_instance(*BIG_64)
    k_max = full_census(big).k_max
    bounds = tuple(range(k_max + 1, k_max + 10_001))
    start = time.perf_counter()
    report = build_audit_report(big, weak_bounds=bounds)
    assert time.perf_counter() - start < 1.0
    assert all(report.weak_fraction[b] == 1 for b in bounds)


def test_ok_verdict_has_empty_notes_key_present():
    # large modulus, tiny weak fraction: verdict OK, notes stay empty
    report = build_audit_report(make_instance(1009, 1013, 5))
    assert report.verdict == "OK"
    assert report.notes == []
    payload = json.loads(render_report(report, "json"))
    assert payload["notes"] == []
    assert report.min_fixed_points == 25


def test_degenerate_overrides_warn():
    report = build_audit_report(make_instance(5, 7, 13))
    assert report.verdict == "DEGENERATE"
    assert report.weak_fraction[1] == 1


def test_min_k_max_floor_triggers_warn():
    report = build_audit_report(
        make_instance(11, 71, 17), warn_fraction=Fraction(1), min_k_max=1000
    )
    assert report.verdict == "WARN"
    assert any("floor" in note for note in report.notes)


def test_csv_rows_ascending():
    report = build_audit_report(make_instance(11, 71, 17))  # k_max = 12
    csv = render_report(report, "csv")
    lines = csv.strip().splitlines()
    assert lines[0] == "k,T_k,E_k"
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == sorted(ks)
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 11 * 71


def test_oracle_census_renders_rows_ascending():
    # The oracle keys only the periods it observed, ascending, and the
    # renderers keep that order.  Every period of a non-unit (0, b) is also
    # that of the unit (1, b), so the oracle's unit keys are its period keys;
    # the census with its last unit count dropped stands for one read from
    # JSON with a key missing.
    for p, q, e in ((5, 7, 5), (11, 71, 17), (13, 17, 5), (23, 29, 9), (101, 103, 7)):
        cen = brute_power_map_census(make_instance(p, q, e))
        k_last = max(cen.all_counts)
        sparse = ExactOrderCensus(
            cen.k_max, {k: t for k, t in cen.unit_counts.items() if k != k_last}, cen.all_counts
        )
        for c in (cen, sparse):
            rows = [(k, c.unit_counts.get(k, 0), e_k) for k, e_k in sorted(c.all_counts.items())]
            csv = render_census(c, "csv").splitlines()
            assert csv[0] == "k,T_k,E_k"
            assert [tuple(map(int, line.split(","))) for line in csv[1:]] == rows
            table = render_census(c, "table").splitlines()
            assert table[0] == f"k_max = {cen.k_max}" and table[1].split() == ["k", "T_k", "E_k"]
            assert [tuple(map(int, line.split())) for line in table[2:]] == rows
        assert render_census(sparse, "csv").endswith(f"\n{k_last},0,{cen.all_counts[k_last]}\n")


def test_render_report_rejects_unknown_format():
    inst = make_instance(5, 7, 5)
    with pytest.raises(ValueError, match="unknown format"):
        render_report(build_audit_report(inst), "xml")
    for fmt in ("csv", "table", "xml"):  # render_points writes json and lines only
        with pytest.raises(ValueError, match="unknown format"):
            render_points(inst, 1, enumerate_fixed_points(inst, 1), fmt)


def test_census_json_round_trip_identity():
    report = build_audit_report(make_instance(13, 17, 5))
    rendered = reports.render_json(reports.census_to_json_dict(report.census))
    parsed = reports.census_from_json_dict(json.loads(rendered))
    assert parsed == report.census
    assert reports.render_json(reports.census_to_json_dict(parsed)) == rendered


def test_build_audit_report_rejects_bounds_below_one():
    inst = make_instance(5, 7, 5)
    with pytest.raises(ValueError, match="got 0"):
        build_audit_report(inst, warn_bound=0)
    with pytest.raises(ValueError, match="got 0"):
        build_audit_report(inst, weak_bounds=(0, 2))
    with pytest.raises(ValueError, match="got -1"):
        build_audit_report(make_instance(1019, 2063, 65537), warn_fraction=Fraction(-1))


# Keys and strings that stress the escaping: quotes, backslashes, control
# characters and non-ASCII text (one astral-plane character among them).
_json_text = st.text(st.sampled_from('a"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\U0001f600')) | st.text()
_json_ints = st.integers(-(2**80), 2**80)
# Fractions, some with numerator or denominator beyond 2**53, are written as
# {"num", "den"} pairs.  Int lists, as point lists are, take the all-int
# template, and a bool, None or Fraction among them must send the list off it.
# Int-keyed maps take the general path: census maps reach the writer inside
# their ExactOrderCensus, not as dicts.
_json_fractions = st.fractions() | st.builds(Fraction, _json_ints, st.integers(1, 2**80))
_not_int = st.booleans() | st.none() | _json_fractions
_int_containers = (
    st.dictionaries(_json_ints, _json_ints, min_size=1, max_size=8)
    | st.lists(_json_ints, min_size=1, max_size=8)
    | st.lists(_json_ints, min_size=1, max_size=8).map(tuple)
    | st.dictionaries(_json_ints, _json_ints | _not_int, min_size=1, max_size=8)
    | st.lists(_json_ints | _not_int, min_size=1, max_size=8)
)
_json_values = st.recursive(
    st.none() | st.booleans() | _json_ints | _json_fractions | _json_text | _int_containers,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_text | _json_ints, inner, max_size=4),
    max_leaves=40,
)


@given(st.dictionaries(_json_text, _json_values, max_size=6))
@example({})
@example({"a": {}, "b": [], "c": [[], {}], "d": {"e": [True, False, None, -1, 2**53 + 1]}})
@example({"a": {1: 2, -3: 2**80}, "b": [0, -2], "c": (7,), "d": {1: True, 2: 3}, "e": [1, None], "f": {1: {2: 3}}})
@example({"a": Fraction(0), "b": [Fraction(-(2**60), 3), 2**53], "c": {2: Fraction(2**80, 2**53 + 1)}, "d": [1, -(2**53) - 1]})
@settings(max_examples=400, deadline=None)
def test_render_json_matches_json_dumps(payload):
    assert reports.render_json(payload) == json.dumps(_quoted(payload), indent=2) + "\n"


@pytest.mark.parametrize(
    "p, q, e, wide",
    [
        (4294967291, 4294967279, 65537, True),  # 32-bit p, q, d(K) = 1152: the largest E_k exceeds 2^53
        (11217587, 14252867, 3, False),  # d(K) = 960, every count a plain int
    ],
)
def test_census_json_is_json_dumps_of_the_str_keyed_payload(p, q, e, wide):
    report = build_audit_report(make_instance(p, q, e))
    cen = report.census
    assert (max(cen.all_counts.values()) > 2**53) == wide and len(cen.all_counts) >= 960
    census_payload = reports.census_to_json_dict(cen)
    assert all(type(k) is str for name in ("unit_counts", "all_counts") for k in census_payload[name])
    assert render_census(cen, "json") == json.dumps(census_payload, indent=2) + "\n"
    audit_payload = {**reports.audit_to_json_dict(report), "census": census_payload}
    rendered = render_report(report, "json")
    assert rendered == json.dumps(_quoted(audit_payload), indent=2) + "\n"
    assert json.loads(rendered)["census"] == census_payload


# Hand-built censuses: keys up to 2^80, unit keys in the order of all_counts, in
# another order or another set, empty maps, and counts and k_max on both sides
# of the 2^53 line.
_edge_counts = st.sampled_from([0, 2**53, -(2**53), 2**53 + 1, -(2**53) - 1, 2**80])
_census_counts = _edge_counts | st.integers(-(2**80), 2**80)
_census_maps = st.dictionaries(st.integers(-(2**80), 2**80), _census_counts, max_size=10)


@st.composite
def _hand_built_censuses(draw):
    all_counts = draw(_census_maps)
    keys = draw(
        st.just(list(all_counts))
        | st.permutations(list(all_counts))
        | st.lists(st.integers(-(2**80), 2**80), unique=True, max_size=10)
    )
    unit_counts = {k: draw(_census_counts) for k in keys}
    k_max = draw(_edge_counts | st.integers(0, 2**80))
    return ExactOrderCensus(k_max=k_max, unit_counts=unit_counts, all_counts=all_counts)


@given(_hand_built_censuses())
@example(ExactOrderCensus(k_max=2**53 + 1, unit_counts={}, all_counts={}))
@example(ExactOrderCensus(k_max=6, unit_counts={1: 2**53, 2: 0}, all_counts={2: -(2**53) - 1, 1: 2**80}))
@settings(max_examples=300, deadline=None)
def test_census_writer_matches_json_dumps_on_hand_built_censuses(cen):
    census_payload = reports.census_to_json_dict(cen)
    assert render_census(cen, "json") == json.dumps(census_payload, indent=2) + "\n"
    report = dataclasses.replace(build_audit_report(make_instance(5, 7, 5)), census=cen)
    audit_payload = {**reports.audit_to_json_dict(report), "census": census_payload}
    assert render_report(report, "json") == json.dumps(_quoted(audit_payload), indent=2) + "\n"


@pytest.mark.parametrize("wide", [False, True])
def test_census_json_render_peak_memory_is_within_a_small_multiple_of_its_output(wide):
    # A synthetic census of 2^17 keys; wide, every other count is above 2^53.
    keys = range(7, 7 * 2**17 + 1, 7)
    lift = 2**60 if wide else 0
    cen = ExactOrderCensus(
        k_max=keys[-1],
        unit_counts={k: k * 1009 + (lift if k % 2 else 0) for k in keys},
        all_counts={k: k * 1013 + (lift if k % 2 else 0) for k in keys},
    )
    tracemalloc.start()
    try:
        text = render_census(cen, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.split("\n")[3].endswith('",') == wide
    assert peak <= 3.5 * len(text)
