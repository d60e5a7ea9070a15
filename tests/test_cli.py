import contextlib
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import odd_primes_upto
from rsa_fixpoints import arith, census, cli, reports
from rsa_fixpoints.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "rsa_fixpoints", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


GOLDEN_INSTANCES = (("5", "7", "5"), ("11", "71", "17"))
# d(K) = 24, zero rows, and four counts above 2^53 that JSON writes as strings.
WIDE_INSTANCE = ("1600398721", "1988190923", "65537")


def assert_golden(command, p, q, e, fmt):
    result = run_cli(command, "--p", p, "--q", q, "--e", e, "--format", fmt)
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / f"{command}_{p}_{q}_{e}.{fmt}").read_text()


def test_audit_matches_golden_bytes():
    result = run_cli("audit", "--p", "5", "--q", "7", "--e", "5")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "audit_5_7_5.json").read_text()
    for inst in GOLDEN_INSTANCES:
        for fmt in ("csv", "table"):
            assert_golden("audit", *inst, fmt)
    assert_golden("audit", *WIDE_INSTANCE, "json")


def test_census_matches_golden_bytes():
    for name, fmt in [("census_5_7_5.json", "json"), ("census_5_7_5.csv", "csv")]:
        result = run_cli("census", "--p", "5", "--q", "7", "--e", "5", "--format", fmt)
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / name).read_text()
    for inst in GOLDEN_INSTANCES:
        assert_golden("census", *inst, "table")
    assert_golden("census", *WIDE_INSTANCE, "json")


def test_cycles_matches_golden_bytes():
    result = run_cli("cycles", "--p", "5", "--q", "7", "--e", "5")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "cycles_5_7_5.json").read_text()
    for inst in GOLDEN_INSTANCES:
        for fmt in ("csv", "table"):
            assert_golden("cycles", *inst, fmt)


def test_output_is_deterministic():
    a = run_cli("audit", "--p", "11", "--q", "71", "--e", "17")
    b = run_cli("audit", "--p", "11", "--q", "71", "--e", "17")
    assert a.stdout == b.stdout != ""


def test_census_json_round_trip():
    result = run_cli("census", "--p", "5", "--q", "7", "--e", "5")
    parsed = json.loads(result.stdout)
    cen = reports.census_from_json_dict(parsed)
    assert reports.render_json(reports.census_to_json_dict(cen)) == result.stdout


def test_audit_census_round_trip_from_golden():
    parsed = json.loads((GOLDEN / "audit_5_7_5.json").read_text())
    cen = reports.census_from_json_dict(parsed["census"])
    rendered = reports.render_json(reports.census_to_json_dict(cen))
    assert json.loads(rendered) == parsed["census"]
    assert rendered == (GOLDEN / "census_5_7_5.json").read_text()


def test_exit_code_invalid_parameters():
    import os

    assert run_cli("audit", "--p", "5", "--q", "7", "--e", "4").returncode == 2
    assert run_cli("audit", "--p", "9", "--q", "7", "--e", "5").returncode == 2
    assert run_cli("audit", "--p", "5", "--q", "5", "--e", "3").returncode == 2
    assert run_cli("census", "--p", "5", "--e", "5").returncode == 2  # missing --q
    assert run_cli("audit", "--n", "21", "--e", "5", "--p", "3").returncode == 2
    # The instance resolver's errors: one "error:" line, nothing on stdout.
    for argv in (
        ("audit", "--n", "35", "--p", "5", "--e", "5"),
        ("audit", "--e", "5"),
        ("oracle", "--n", "35", "--q", "7", "--e", "5"),
        ("enumerate", "--p", "5", "--q", "7", "--e", "5", "--k", "0"),
    ):
        result = run_cli(*argv)
        assert result.returncode == 2, argv
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
    # The environment variable is parsed like --warn-fraction.
    for raw in ("-1", "abc"):
        env = dict(os.environ, RSA_FIXPOINT_WARN_FRACTION=raw)
        result = run_cli("audit", "--p", "1019", "--q", "2063", "--e", "65537", env=env)
        assert result.returncode == 2, raw
        assert result.stdout == ""
        assert "error:" in result.stderr and "--warn-fraction" in result.stderr
        assert "RSA_FIXPOINT_WARN_FRACTION" in result.stderr
        # An explicit flag wins over a bad variable.
        flag = ("--warn-fraction", "1/1000")
        result = run_cli("audit", "--p", "1019", "--q", "2063", "--e", "65537", *flag, env=env)
        assert result.returncode == 0, raw


def test_exit_code_factoring_failed():
    a = "1000000000000000000000000000057"
    b = "1000000000000000000000000000099"
    n = str(int(a) * int(b))
    result = run_cli("audit", "--n", n, "--e", "65537", "--factor-budget", "100")
    assert result.returncode == 3
    assert result.stdout == ""


def test_exit_code_cap_and_limit():
    # --n trips the scan limit in the CLI before factoring, --p/--q in the oracle.
    for argv, err in (
        ("enumerate --p 5 --q 7 --e 5 --k 1 --cap 5", "error: result count 15 exceeds cap 5\n"),
        ("oracle --n 35 --e 5 --limit 10", "error: modulus 35 exceeds scan limit 10\n"),
        ("oracle --p 5 --q 7 --e 5 --limit 10", "error: modulus 35 exceeds scan limit 10\n"),
    ):
        result = run_cli(*argv.split())
        assert result.returncode == 4, argv
        assert result.stdout == ""
        assert result.stderr == err, argv


def test_census_above_the_divisor_budget_exits_4_at_once(capsys):
    # p - 1 is smooth (168 bits), and with q = 1000003 and e = 65537 K_max is
    # a product of 29 primes: d(K) = 2**29, far past census.DIVISOR_BUDGET.
    p, q, e = "196159178579839585836369750230843100538344579820409", "1000003", "65537"
    k_max = census.max_period(census.make_instance(int(p), int(q), int(e)))
    for cmd, *extra in (["census"], ["audit"], ["cycles"], ["enumerate", "--k", str(k_max)]):
        argv = [cmd, "--p", p, "--q", q, "--e", e, *extra]
        census._orders.cache_clear()
        start = time.perf_counter()
        assert main(argv) == 4, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: divisor count d(K) = {2**29} exceeds the census budget {1 << 20}\n"
        assert time.perf_counter() - start < 1.0, argv


def test_oracle_refuses_n_above_limit_before_factoring(monkeypatch, capsys):
    def no_factoring(*args, **kwargs):
        raise AssertionError("factorize called for an n above the scan limit")

    monkeypatch.setattr(arith, "factorize", no_factoring)
    # Above the limit: a 150-bit semiprime the default rho budget cannot
    # split, a non-semiprime, and 36 against --limit 35.
    for n, limit in (((2**61 - 1) * (2**89 - 1), ()), (2**40, ()), (36, ("--limit", "35"))):
        assert main(["oracle", "--n", str(n), "--e", "65537", *limit]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "scan limit" in err


def test_audit_via_n_factors_first():
    direct = run_cli("audit", "--p", "5", "--q", "7", "--e", "5")
    via_n = run_cli("audit", "--n", "35", "--e", "5")
    assert via_n.returncode == 0
    assert via_n.stdout == direct.stdout


def test_audit_rejects_non_semiprime_n():
    assert run_cli("audit", "--n", "30", "--e", "7").returncode == 2
    assert run_cli("audit", "--n", "25", "--e", "3").returncode == 2


def test_hex_inputs_accepted():
    result = run_cli("audit", "--p", "0x5", "--q", "0x7", "--e", "0x5")
    assert result.returncode == 0
    assert json.loads(result.stdout)["instance"]["n"] == 35


def test_integer_arguments_of_10_to_the_4300_or_more_exit_2_at_once(capsys):
    # int() has no digit limit in hex (nor in decimal before CPython 3.10.7),
    # and is_prime on a 16,384-bit --p would take seconds: an integer argument
    # of 10**4300 or more is refused before it is tested, named by the bound,
    # and its digits are not echoed.
    for p in ("0x" + "f" * 4096, "9" * 4301, hex(10**4300), "1" * 9000):
        start = time.perf_counter()
        try:
            code = main(["census", "--p", p, "--q", "7", "--e", "5"])
        except SystemExit as exc:  # argparse rejects the flag
            code = exc.code
        assert code == 2, len(p)
        out, err = capsys.readouterr()
        assert out == "" and "error: argument --p: must lie in [0, 10**4300)" in err
        assert p[-50:] not in err
        assert time.perf_counter() - start < 1.0, len(p)
    assert cli._int_arg("9" * 4300) == cli._int_arg(hex(10**4300 - 1)) == 10**4300 - 1
    assert cli._int_arg("0x" + "0_" * 5000 + "a") == 10  # leading zeros are no digits of the value


def test_warn_fraction_env_override():
    import os

    env = dict(os.environ, RSA_FIXPOINT_WARN_FRACTION="1")
    result = run_cli("audit", "--p", "5", "--q", "7", "--e", "5", env=env)
    assert json.loads(result.stdout)["verdict"] == "OK"  # weak fraction 1 is not > 1
    flag = run_cli("audit", "--p", "5", "--q", "7", "--e", "5", "--warn-fraction", "1/1000")
    assert json.loads(flag.stdout)["verdict"] == "WARN"


def test_warn_fraction_refuses_huge_exponent_at_once(monkeypatch, capsys):
    # Fraction would write 10**999999999 out in full; both the flag and the
    # variable refuse an exponent beyond the int digit limit before that.
    argv = ["audit", "--p", "5", "--q", "7", "--e", "5"]
    for raw in ("1e999999999", "1e-999999999", "1e4301", "1e" + "9" * 5000):
        monkeypatch.delenv("RSA_FIXPOINT_WARN_FRACTION", raising=False)
        start = time.perf_counter()
        try:
            code = main([*argv, "--warn-fraction", raw])
        except SystemExit as exc:  # argparse rejects the flag
            code = exc.code
        assert code == 2, raw
        out, err = capsys.readouterr()
        assert out == "" and "usage:" in err and "error: argument --warn-fraction" in err
        monkeypatch.setenv("RSA_FIXPOINT_WARN_FRACTION", raw)
        assert main(argv) == 2, raw
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: RSA_FIXPOINT_WARN_FRACTION")
        assert time.perf_counter() - start < 1.0, raw
    assert cli._fraction_arg("1e-3") == Fraction(1, 1000)
    assert cli._fraction_arg("1e4300") == 10**4300


def test_degenerate_verdict():
    result = run_cli("audit", "--p", "5", "--q", "7", "--e", "13")
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "DEGENERATE"
    assert payload["census"]["all_counts"] == {"1": 35}


def test_enumerate_lines_output():
    result = run_cli(
        "enumerate", "--p", "5", "--q", "7", "--e", "5", "--k", "1", "--format", "lines"
    )
    values = [int(line) for line in result.stdout.splitlines()]
    assert len(values) == 15
    assert values == sorted(values)
    assert {0, 1, 6, 15, 34} <= set(values)


def test_enumerate_json_writes_large_k_as_string():
    # The second k is a 201-bit semiprime: it does not divide k_max = 2, so
    # nothing is listed and k is never factored.
    semiprime = 1267650600228229401496703205653 * 1267650600228229401496704205379
    for k in (2**54, semiprime):
        result = run_cli("enumerate", "--p", "5", "--q", "7", "--e", "5", "--k", str(k))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["k"] == str(k)
        assert payload["count"] == 0 and payload["fixed_points"] == []


def test_audit_rejects_bounds_below_one():
    for flag, value in (("--warn-bound", "0"), ("--weak-bounds", "1,0")):
        result = run_cli("audit", "--p", "5", "--q", "7", "--e", "5", flag, value)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "error:" in result.stderr and flag in result.stderr


def test_factor_demo_reports_true_factor():
    result = run_cli("factor-demo", "--p", "11", "--q", "71", "--e", "17")
    payload = json.loads(result.stdout)
    assert payload["factor"] in (11, 71)
    assert payload["factor"] * payload["cofactor"] == 11 * 71
    m = payload["fixed_point"]
    assert pow(m, 17, 11 * 71) == m
    # Golden bytes; --cap 5 is below E_1 = 15, so the (0 mod p, 1 mod q) point.
    for (p, q, e), extra, name in [
        (GOLDEN_INSTANCES[0], (), "factor_demo_5_7_5.json"),
        (GOLDEN_INSTANCES[1], (), "factor_demo_11_71_17.json"),
        (GOLDEN_INSTANCES[0], ("--cap", "5"), "factor_demo_5_7_5_cap5.json"),
    ]:
        result = run_cli("factor-demo", "--p", p, "--q", q, "--e", e, *extra)
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / name).read_text()


def test_census_and_oracle_subcommands_agree():
    cases = [
        (5, 7, 5), (5, 7, 11), (3, 5, 7), (11, 71, 17), (13, 17, 5),
        (5, 11, 3), (7, 11, 13), (3, 7, 5), (17, 19, 7), (23, 29, 9),
    ]
    for p, q, e in cases:
        cen = run_cli("census", "--p", str(p), "--q", str(q), "--e", str(e))
        orc = run_cli("oracle", "--n", str(p * q), "--e", str(e))
        assert cen.returncode == 0 and orc.returncode == 0
        cen_d = json.loads(cen.stdout)
        orc_d = json.loads(orc.stdout)
        assert cen_d["k_max"] == orc_d["k_max"]
        for field in ("unit_counts", "all_counts"):
            for k in cen_d[field]:
                assert int(cen_d[field][k]) == int(orc_d[field].get(k, 0)), (p, q, e, k)
            assert set(orc_d[field]) <= set(cen_d[field])


def test_main_callable_directly(capsys):
    code = main(["census", "--p", "5", "--q", "7", "--e", "5", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == "k,T_k,E_k\n1,8,15\n2,16,20\n"


_FORMATS = ("json", "csv", "table")
# Each subcommand's shortest argv and every value it parses to, defaults included.
_PARSED = {
    "census": (
        ["--p", "5", "--q", "7", "--e", "5"],
        {"p": 5, "q": 7, "e": 5, "format": "json"},
        cli.cmd_census,
        _FORMATS,
    ),
    "audit": (
        ["--p", "5", "--q", "7", "--e", "5"],
        {
            "p": 5, "q": 7, "e": 5, "n": None, "factor_budget": 1 << 22, "format": "json",
            "weak_bounds": (1, 2), "warn_bound": 2, "warn_fraction": None, "min_kmax": 1,
        },
        cli.cmd_audit,
        _FORMATS,
    ),
    "cycles": (
        ["--p", "5", "--q", "7", "--e", "5"],
        {"p": 5, "q": 7, "e": 5, "format": "json"},
        cli.cmd_cycles,
        _FORMATS,
    ),
    "enumerate": (
        ["--p", "5", "--q", "7", "--e", "5", "--k", "1"],
        {"p": 5, "q": 7, "e": 5, "format": "json", "k": 1, "cap": 1_000_000},
        cli.cmd_enumerate,
        ("json", "lines"),
    ),
    "oracle": (
        ["--n", "35", "--e", "5"],
        {
            "p": None, "q": None, "e": 5, "n": 35, "factor_budget": 1 << 22, "format": "json",
            "limit": 100_000,
        },
        cli.cmd_oracle,
        _FORMATS,
    ),
    "factor-demo": (
        ["--p", "5", "--q", "7", "--e", "5"],
        {"p": 5, "q": 7, "e": 5, "cap": 1_000_000},
        cli.cmd_factor_demo,
        None,
    ),
}


def test_parser_defaults_and_formats_per_subcommand():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    assert list(subparsers.choices) == list(_PARSED)
    for name, (argv, expected, handler, formats) in _PARSED.items():
        parsed = vars(parser.parse_args([name, *argv]))
        assert parsed.pop("handler") is handler, name
        assert parsed == {"command": name, **expected}, name
        actions = subparsers.choices[name]._actions
        assert next((a.choices for a in actions if a.dest == "format"), None) == formats, name


# Every flag of each subcommand.  The flags with expensive defaults are
# always given, under the bounds below, so no single case runs long.
FUZZ_FLAGS = {
    "census": ("--p", "--q", "--e", "--format"),
    "audit": ("--p", "--q", "--e", "--n", "--factor-budget", "--weak-bounds", "--warn-bound",
              "--warn-fraction", "--min-kmax", "--format"),
    "cycles": ("--p", "--q", "--e", "--format"),
    "enumerate": ("--p", "--q", "--e", "--k", "--cap", "--format"),
    "oracle": ("--p", "--q", "--e", "--n", "--factor-budget", "--limit", "--format"),
    "factor-demo": ("--p", "--q", "--e", "--cap"),
}
FUZZ_BOUNDS = {"--limit": 10**4, "--cap": 300, "--factor-budget": 2_000}
PRIME = st.sampled_from(odd_primes_upto(100))
SMALL = st.one_of(PRIME, st.integers(0, 12))
# Half of the draws are small primes, so that many p, q are valid.
NUMBER = st.one_of(PRIME, PRIME, st.just(2**61 - 1), st.integers(0, 2**70))
FUZZ_NUMBERS = {
    "--e": st.one_of(st.just(65537), st.just(2**61 - 1), SMALL, NUMBER),
    "--k": st.one_of(st.integers(1, 4), SMALL, NUMBER),
    "--warn-bound": SMALL,
    "--min-kmax": SMALL,
    **{flag: st.integers(0, bound) for flag, bound in FUZZ_BOUNDS.items()},
}
JUNK = ["", "-1", "1/0", "abc"]


@st.composite
def cli_argv(draw):
    # Mostly well-formed argv, so that many cases get past argparse and
    # validation: a flag is left out or takes a junk token one time in
    # twenty, and --p/--q mostly appear only when --n does not.
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    formats = ["json", "lines"] if command == "enumerate" else ["json", "csv", "table"]
    with_n = "--n" in FUZZ_FLAGS[command] and draw(st.booleans())
    p, q = draw(st.one_of(*(st.lists(v, min_size=2, max_size=2, unique=True) for v in (PRIME, NUMBER))))
    numbers = {**FUZZ_NUMBERS, "--p": st.just(p), "--q": st.just(q), "--n": st.sampled_from([p * q, p])}

    def rare():
        return draw(st.integers(0, 19)) == 19

    def token(flag):
        if rare():
            return draw(st.sampled_from(JUNK))
        if flag == "--format":
            return draw(st.sampled_from(formats))
        if flag == "--warn-fraction":
            return draw(st.sampled_from(["0", "1/1000", "3/2"]))
        if flag == "--weak-bounds":
            return ",".join(str(v) for v in draw(st.lists(SMALL, min_size=1, max_size=3)))
        value = draw(numbers.get(flag, NUMBER))
        return hex(value) if draw(st.booleans()) else str(value)

    def given_flag(flag):
        if flag in FUZZ_BOUNDS:
            return True
        if flag == "--n":
            return with_n
        if with_n and flag in ("--p", "--q"):
            return rare()
        return not rare()

    argv = [command]
    for flag in draw(st.permutations([f for f in FUZZ_FLAGS[command] if given_flag(f)])):
        argv += [flag, token(flag)]
    return argv


def _no_unsafe_int(text):
    value = int(text)
    assert abs(value) <= reports.JSON_SAFE_INT, text
    return value


@given(cli_argv())
@settings(max_examples=500, deadline=None)
def test_main_fuzzed_argv_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    stdout = out.getvalue()
    if code != 0:
        assert stdout == "", argv
    elif stdout.startswith("{"):
        json.loads(stdout, parse_int=_no_unsafe_int)


def test_pseudoprime_to_all_bases_is_refused_as_p(capsys):
    # 1287836182261 * 2575672364521 passes Miller-Rabin on every base is_prime uses.
    assert main(["census", "--p", "3317044064679887385961981", "--q", "1000003", "--e", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "odd prime" in err


def readme_cli_synopsis():
    # The README's CLI block as one (required argv, [(flag, value)]) per
    # command: continuation lines joined, "# ..." comments dropped.
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("rsa-fixpoints "):
            commands.append(line)
        elif line:
            commands[-1] += " " + line
    synopsis = []
    for command in commands:
        options = [opt.split() for opt in re.findall(r"\[([^\]]*)\]", command)]
        required = re.sub(r"\[[^\]]*\]", " ", command).split()[1:]
        synopsis.append((required, options))
    return synopsis


def test_readme_cli_synopsis_runs():
    # Each README command alone, with each --format alternative, and with
    # each bracketed option that has a literal value; N, C, L are placeholders.
    runs = []
    for required, options in readme_cli_synopsis():
        runs.append(required)
        for flag, value in options:
            if flag == "--format":
                runs += [[*required, flag, fmt] for fmt in value.split("|")]
            elif not (value.isalpha() and value.isupper()):
                runs.append([*required, flag, value])
    commands = {argv[0] for argv in runs}
    assert commands == set(_PARSED)
    assert len(runs) >= 20
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        assert out.getvalue(), argv
