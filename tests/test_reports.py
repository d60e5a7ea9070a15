import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsa_fixpoints import reports
from rsa_fixpoints.census import make_instance
from rsa_fixpoints.reports import build_audit_report, encode_int, render_report


def test_encode_int_threshold():
    assert encode_int(2**53) == 2**53
    assert encode_int(-(2**53)) == -(2**53)
    assert encode_int(2**53 + 1) == str(2**53 + 1)
    assert encode_int(-(2**53) - 1) == str(-(2**53) - 1)


def test_big_integers_render_as_decimal_strings():
    p, q = 1000000007, 1000000009
    report = build_audit_report(make_instance(p, q, 65537))
    payload = json.loads(render_report(report, "json"))
    assert payload["instance"]["n"] == str(p * q)  # n > 2^53
    assert payload["instance"]["p"] == p  # small enough to stay numeric
    assert int(payload["instance"]["phi"]) == (p - 1) * (q - 1)


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


def test_render_report_rejects_unknown_format():
    report = build_audit_report(make_instance(5, 7, 5))
    with pytest.raises(ValueError):
        render_report(report, "xml")


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
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | _json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=40,
)


@given(st.dictionaries(_json_text, _json_values, max_size=6))
@example({})
@example({"a": {}, "b": [], "c": [[], {}], "d": {"e": [True, False, None, -1, 2**53 + 1]}})
@settings(max_examples=400, deadline=None)
def test_render_json_matches_json_dumps(payload):
    assert reports.render_json(payload) == json.dumps(payload, indent=2) + "\n"
