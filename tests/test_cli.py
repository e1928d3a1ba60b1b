"""CLI surface: flags, output formats, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_diamonds import cli, congruences, oracle
from partition_diamonds.cli import (DEFAULT_SEED, IDENTITY_CHECKS, cmd_coeffs,
                                    cmd_identities, cmd_oracle, cmd_scan,
                                    cmd_verify, main)
from partition_diamonds.genfun import rd_series, sd_series
from partition_diamonds.series import RingSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def ddn_length(kind):
    """The --n flag, which only the ddn series takes."""
    return ("--n", "2") if kind == "ddn" else ()


def test_coeffs_sd_json(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--series", "sd",
                           "--d", "1", "--N", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == "Z"
    assert payload["coeffs"] == ["1", "2", "5", "10", "20", "36"]


def test_coeffs_rd_minimal(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--series", "rd",
                           "--d", "2", "--N", "1", "--format", "plain")
    assert code == 0
    assert out.strip() == "0 1"


def test_coeffs_sd_forced_value(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--series", "sd",
                           "--d", "3", "--N", "2", "--format", "plain")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 8"]


def test_coeffs_mod_reduction(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--series", "sd", "--d", "1",
                           "--N", "5", "--mod", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == {"mod": 5}
    assert payload["coeffs"] == ["1", "2", "0", "0", "0"]


@pytest.mark.parametrize("series, d, m", [
    ("sd", 1, 11), ("sd", 2, 7), ("sd", 6, 3), ("sd", 8, 5), ("sd", 3, 4),
    ("rd", 1, 5), ("rd", 8, 7), ("rd", 3, 2),
    ("sd", 5, (1 << 64) - 59), ("rd", 2, (1 << 64) - 59),
])
def test_coeffs_mod_equals_reduced_exact_build(capsys, series, d, m):
    # --mod builds in Z/mZ; the exact build reduced afterwards must agree
    code, out, _ = run_cli(capsys, "coeffs", "--series", series, "--d",
                           str(d), "--N", "120", "--mod", str(m))
    assert code == 0
    build = {"rd": rd_series, "sd": sd_series}[series]
    want = RingSpec(m).reduced(build(d, 120).coeffs)
    assert json.loads(out) == {"ring": {"mod": m}, "order": 120,
                               "coeffs": [str(c) for c in want]}


@pytest.mark.parametrize("series", ("rd", "sd", "ddn"))
@pytest.mark.parametrize("m, message", [
    (1, "error: modulus must be >= 2, got 1"),
    (1 << 64, f"error: modulus must fit in 64 bits, got {1 << 64}"),
])
def test_coeffs_bad_mod_exits_2_before_building(capsys, monkeypatch, series,
                                                m, message):
    def refuse(*args):
        raise AssertionError("a series was built")

    for name in ("rd_series", "sd_series", "ddn_series_closed"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run_cli(capsys, "coeffs", "--series", series, "--d",
                             "2", *ddn_length(series), "--N", "10",
                             "--mod", str(m))
    assert (code, out, err) == (2, "", message + "\n")


# stdout digests of coeffs --series ddn --mod, recorded while the CLI still
# built the exact series and reduced its coefficients mod m afterwards
DDN_MOD_DIGESTS = {
    "--d 3 --n 4 --N 300 --mod 7":
        "1b10d50caf8891d89cecdbba1480509d2f9ac2350025fd5506f9d0522b563959",
    "--d 3 --n 4 --N 300 --mod 18446744073709551557":
        "ebf5f908913732519d3337af2e47c791d9db3f75311425422d3cfa1eac15083d",
    "--d 1 --n 2 --N 60 --mod 2 --format csv":
        "0e6a4a75a3194e59144611a523d4f15904f82842634eaabed00b1cf43ced7614",
    "--d 4 --n 1 --N 200 --mod 12 --format plain":
        "93ad1d600cce48de16c4f829af83df60b926dd1ebe4d7894825bad37837e564d",
    "--d 8 --n 3 --N 150 --mod 4611686018427387904":
        "7f0b3286a8463b68ecc02e9b4be67da4f1704ffcca35fcbe6e1ab7dc7f9e9e3a",
}


@pytest.mark.parametrize("flags", DDN_MOD_DIGESTS)
def test_coeffs_ddn_mod_matches_reduced_exact_digest(capsys, flags):
    code, out, _ = run_cli(capsys, "coeffs", "--series", "ddn",
                           *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DDN_MOD_DIGESTS[flags]


def test_coeffs_csv_quotes_values(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--series", "sd", "--d", "4",
                           "--N", "30", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == '"index","coefficient"'
    # big coefficients stay quoted strings, safe from float mangling
    assert all('"' in line.split(",")[1] for line in lines[1:])


def test_coeffs_ddn_requires_length(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--series", "ddn",
                           "--d", "2", "--N", "5")
    assert code == 2
    assert "requires --n" in err


@pytest.mark.parametrize("command, flag", [("coeffs", "--series"),
                                           ("oracle", "--kind")])
@pytest.mark.parametrize("kind", ["rd", "sd"])
def test_length_flag_only_for_ddn(capsys, monkeypatch, command, flag, kind):
    def no_work(*args, **kwargs):
        raise AssertionError("built or enumerated with a stray --n")

    for name in ("rd_series", "sd_series", "count_rd_upto", "count_sd_upto"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, command, flag, kind, "--d", "1",
                             "--N", "5", "--n", "4")
    assert (code, out, err) == (
        2, "", f"error: --n applies only to {flag} ddn, not {kind}\n")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--series", "nope", "--d", "1"])
    assert exc.value.code == 2


def test_identities_eulerian(capsys):
    code, out, _ = run_cli(capsys, "identities", "--only", "eulerian",
                           "--d-max", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks"][0]["name"] == "eulerian"


def test_identities_omega_deterministic(capsys):
    args = ("identities", "--only", "omega", "--instances", "40",
            "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    detail = json.loads(out1)["checks"][0]["detail"]
    assert detail["instances"] == 40
    assert detail["failures"] == []


def test_identities_quick_suite(capsys):
    code, out, _ = run_cli(capsys, "identities", "--N", "60",
                           "--instances", "25", "--d-max", "8")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert names == ["eulerian", "euler-factor", "pentagonal", "jacobi",
                     "mersmann", "omega", "crude"]
    assert payload["passed"] is True


def test_oracle_kinds(capsys):
    for extra in (("--kind", "sd", "--d", "2", "--N", "12"),
                  ("--kind", "rd", "--d", "1", "--N", "10"),
                  ("--kind", "ddn", "--d", "2", "--n", "2", "--N", "10")):
        code, out, _ = run_cli(capsys, "oracle", *extra)
        assert code == 0
        assert json.loads(out)["equal"] is True


def test_oracle_budget_exit_2(capsys):
    code, _, err = run_cli(capsys, "oracle", "--kind", "rd", "--d", "3",
                           "--N", "40", "--budget", "10")
    assert code == 2
    assert "budget" in err.lower()


def test_oracle_large_refusal_exit_2(capsys):
    # far past any recursion limit: a refusal, never a crash with exit 1
    code, out, err = run_cli(capsys, "oracle", "--kind", "rd", "--d", "1",
                             "--N", "2500")
    assert code == 2
    assert out == ""
    assert "budget error" in err


@pytest.mark.parametrize("kind", ["rd", "sd", "ddn"])
def test_oracle_refusal_builds_no_series(capsys, monkeypatch, kind):
    def no_series(*args, **kwargs):
        raise AssertionError("closed form built for a refused job")

    for name in ("rd_series", "sd_series", "ddn_series_closed"):
        monkeypatch.setattr(cli, name, no_series)
    code, out, err = run_cli(capsys, "oracle", "--kind", kind, "--d", "2",
                             *ddn_length(kind), "--N", "30", "--budget", "10")
    assert code == 2
    assert out == ""
    assert "budget error" in err


@pytest.mark.parametrize("kind", ["rd", "sd", "ddn"])
def test_oracle_negative_width_exit_2(capsys, kind):
    code, out, err = run_cli(capsys, "oracle", "--kind", kind, "--d", "-1",
                             *ddn_length(kind), "--N", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("kind", ["rd", "sd", "ddn"])
def test_oracle_zero_width_exit_2_before_any_work(capsys, monkeypatch, kind):
    def no_work(*args, **kwargs):
        raise AssertionError("enumerated or built a series for --d 0")

    for name in ("count_rd_upto", "count_sd_upto", "series_Ddn_bruteforce",
                 "rd_series", "sd_series", "ddn_series_closed"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, "oracle", "--kind", kind, "--d", "0",
                             *ddn_length(kind), "--N", "60")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_oracle_sd_honours_budget(capsys):
    code, out, err = run_cli(capsys, "oracle", "--kind", "sd", "--d", "1",
                             "--N", "1200", "--budget", "10")
    assert code == 2
    assert out == ""
    assert "budget error" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_budget_flag_exit_2(capsys, value):
    for argv in (("oracle", "--kind", "rd", "--d", "1", "--N", "5"),
                 ("verify", "--claim", "mod5_4k1_r2", "--k-max", "0",
                  "--n-max", "5")):
        code, out, err = run_cli(capsys, *argv, "--budget", value)
        assert code == 2
        assert out == ""
        assert err == f"error: budget must be a positive integer, " \
                      f"got {value}\n"


@pytest.mark.parametrize("argv", [
    ("oracle", "--kind", "rd", "--d", "1", "--N", "2500"),
    ("oracle", "--kind", "sd", "--d", "1", "--N", "30"),
    ("oracle", "--kind", "ddn", "--d", "2", "--n", "2", "--N", "30"),
    ("verify", "--claim", "mod11", "--k-max", "0", "--n-max", "10"),
], ids=["oracle-rd", "oracle-sd", "oracle-ddn", "verify"])
def test_bad_budget_env_exit_2_before_any_estimate(capsys, monkeypatch,
                                                   argv):
    def no_estimate(*args):
        raise AssertionError("an estimate ran before the budget check")

    for name in ("estimate_rd_enumeration", "estimate_ddn_enumeration"):
        monkeypatch.setattr(oracle, name, no_estimate)
    monkeypatch.setattr(congruences, "_claim_work_estimate", no_estimate)
    code, out, err = run_cli(capsys, *argv, "--budget", "0")
    assert (code, out, err) == (2, "", "error: budget must be a positive "
                                       "integer, got 0\n")


COEFFS = ("coeffs", "--series", "sd", "--d", "1", "--N", "3")
IDENTITIES = ("identities", "--only", "eulerian", "--d-max", "4")
ORACLE = ("oracle", "--kind", "rd", "--d", "1", "--N", "6")
VERIFY = ("verify", "--claim", "mod5_4k1_r2", "--k-max", "0", "--n-max", "5")
SCAN = ("scan", "--d", "1", "--m", "5", "--M-max", "6", "--N", "50")


@pytest.mark.parametrize("argv, flag", [
    (COEFFS, "--budget"), (IDENTITIES, "--budget"), (SCAN, "--budget"),
    (COEFFS, "--seed"), (ORACLE, "--seed"), (VERIFY, "--seed"),
    (SCAN, "--seed"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_flags_parse_only_where_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "5"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert f"unrecognized arguments: {flag} 5" in out.err


@pytest.mark.parametrize("flag", ["--instances", "--d-max", "--N"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_identities_empty_bounds_exit_2_before_any_check(
        capsys, monkeypatch, flag, value):
    def no_check(*args):
        raise AssertionError("an identity check ran")

    for name in ("_check_eulerian", "_check_euler_factor",
                 "_check_pentagonal", "_check_jacobi", "_check_mersmann",
                 "_check_omega", "_check_crude"):
        monkeypatch.setattr(cli, name, no_check)
    # every check refuses every bound, also one it does not read
    for only in ("omega", "crude", "eulerian", None):
        argv = ["identities", flag, value]
        if only:
            argv += ["--only", only]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {flag} must be >= 1, "
                                           f"got {value}\n")


def test_verify_list_formats(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    claims = json.loads(out)["claims"]
    assert {"label": "mod11", "kind": "theorem"} in claims
    assert {c["kind"] for c in claims} == {"theorem", "conjecture"}
    code, csv_out, _ = run_cli(capsys, "verify", "--list", "--format", "csv")
    assert code == 0
    lines = csv_out.splitlines()
    assert lines[0] == '"label","kind"'
    assert lines[1:] == [f'"{c["label"]}","{c["kind"]}"' for c in claims]
    code, plain, _ = run_cli(capsys, "verify", "--list", "--format", "plain")
    assert code == 0
    assert plain.splitlines() == [f"{c['label']} {c['kind']}" for c in claims]


def test_verify_list_and_single_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "mod11" in out and "mod7_6k2_r45" in out
    code, out, _ = run_cli(capsys, "verify", "--claim", "mod5_4k1_r2",
                           "--k-max", "1", "--n-max", "8")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["status"] == "verified"
    assert report["witness"] is None


def test_verify_conjecture_status(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "mod7_6k2_r31",
                           "--k-max", "0", "--n-max", "3")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["status"] == "conjecture-held"
    assert report["claim"]["conjectural"] is True


def test_verify_unknown_claim(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "nope")
    assert code == 2
    assert err == "error: no builtin claim named 'nope'\n"


def test_verify_all_refuses_before_any_build(capsys, monkeypatch):
    # mod11 is the first claim in catalog order whose estimate (1747684)
    # exceeds the budget; the eight claims before it must not be built
    def no_series(*args):
        raise AssertionError("a series was built before the refusal")

    monkeypatch.setattr(cli, "sd_series", no_series)
    monkeypatch.setattr(congruences, "sd_series", no_series)
    code, out, err = run_cli(capsys, "verify", "--all", "--k-max", "0",
                             "--n-max", "10", "--budget", "100000")
    assert code == 2
    assert out == ""
    assert err.startswith("budget error: claim mod11: estimated 1747684 ")


def test_verify_all_builds_each_residue_table_once(capsys, monkeypatch):
    # 51 (claim, k) members at the defaults, 19 distinct (m, table) pairs
    builds = []

    def counted(d, order, ring):
        builds.append((d, ring.modulus))
        return sd_series(d, order, ring)

    monkeypatch.setattr(congruences, "sd_series", counted)
    code, _, _ = run_cli(capsys, "verify", "--all")
    assert code == 0
    assert len(builds) == 19


@pytest.mark.parametrize("k_max, d", [("63", 64),
                                      ("1000000000000", 1000000000001)])
def test_verify_refuses_a_ring_too_wide_before_any_build(capsys, monkeypatch,
                                                         k_max, d):
    # k = k_max has the largest d, and its 2^d is checked before 2 ** d is
    # formed and before the first member is built
    def no_series(*args):
        raise AssertionError("a series was built before the refusal")

    monkeypatch.setattr(congruences, "sd_series", no_series)
    code, out, err = run_cli(capsys, "verify", "--claim", "mod2pow",
                             "--k-max", k_max, "--n-max", "40")
    assert (code, out) == (2, "")
    assert err == f"error: 2^{d} exceeds the residue ring width\n"


def test_verify_power_of_two_family_to_d_63(capsys):
    # k = 62 is d = 63: 2^63 is a residue ring like any m < 2^64
    code, out, _ = run_cli(capsys, "verify", "--claim", "mod2pow",
                           "--k-max", "62", "--n-max", "20",
                           "--format", "plain")
    assert (code, out) == (0, "mod2pow verified\n")


def test_scan_plain_matches_known_progressions(capsys):
    code, out, _ = run_cli(capsys, "scan", "--series", "sd", "--d", "1",
                           "--m", "5", "--M-max", "6", "--N", "500",
                           "--format", "plain")
    assert code == 0
    assert out.splitlines() == ["5 2", "5 3", "5 4"]


@pytest.mark.parametrize("flag", ["--min-support", "--M-max", "--N"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_scan_bounds_below_one_exit_2_before_building(capsys, monkeypatch,
                                                      flag, value):
    # with no inspected coefficient every progression would be "zero"
    def no_series(*args):
        raise AssertionError("a series was built")

    for name in ("rd_series", "sd_series"):
        monkeypatch.setattr(cli, name, no_series)
    code, out, err = run_cli(capsys, *SCAN, flag, value)
    assert (code, out, err) == (2, "", f"error: {flag} must be >= 1, "
                                       f"got {value}\n")


@pytest.mark.parametrize("argv, flag", [
    (("coeffs", "--series", "rd", "--d", "1"), "--N"),
    (("coeffs", "--series", "sd", "--d", "1"), "--N"),
    (("coeffs", "--series", "ddn", "--d", "1", "--n", "2"), "--N"),
    (("coeffs", "--series", "ddn", "--d", "1", "--N", "5"), "--n"),
    (("oracle", "--kind", "rd", "--d", "1"), "--N"),
    (("oracle", "--kind", "sd", "--d", "1"), "--N"),
    (("oracle", "--kind", "ddn", "--d", "1", "--n", "2"), "--N"),
    (("oracle", "--kind", "ddn", "--d", "1", "--N", "5"), "--n"),
], ids=lambda v: v if isinstance(v, str) else "-".join(v[:3:2]))
@pytest.mark.parametrize("value", ["0", "-1"])
def test_order_and_length_below_one_name_the_flag(capsys, monkeypatch, argv,
                                                  flag, value):
    # the library's own refusal would blame --d or an inner weight
    def no_work(*args):
        raise AssertionError("a guard or a series ran")

    for name in ("rd_series", "sd_series", "ddn_series_closed",
                 "count_rd_upto", "count_sd_upto", "series_Ddn_bruteforce"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert (code, out, err) == (2, "", f"error: {flag} must be >= 1, "
                                       f"got {value}\n")


# each command's bounded flags, tried at 0 and -1, and --d and --d-max at 65
BOUNDED = {
    "coeffs": ("--d", "--n", "--N"),
    "identities": ("--d-max", "--N", "--instances"),
    "oracle": ("--d", "--n", "--N"),
    "scan": ("--d", "--N", "--M-max", "--min-support"),
}
# a valid argv per command; a repeated flag keeps its last value
BOUNDED_ARGV = {
    "coeffs": ("coeffs", "--series", "ddn", "--d", "1", "--n", "2"),
    "identities": ("identities",),
    "oracle": ("oracle", "--kind", "ddn", "--d", "1", "--n", "2", "--N", "6"),
    "scan": SCAN,
}
BOUND_CASES = [
    (command, flag, value, f"{flag} must be >= 1, got {value}")
    for command, flags in BOUNDED.items() for flag in flags
    for value in (0, -1)
] + [
    (command, flag, 65, f"{flag} is capped at 64")
    for command, flags in BOUNDED.items() for flag in flags
    if flag in ("--d", "--d-max")
]
NO_WORK = ("rd_series", "sd_series", "ddn_series_closed", "count_rd_upto",
           "count_sd_upto", "series_Ddn_bruteforce", "scan_progressions",
           "_check_eulerian", "_check_euler_factor", "_check_pentagonal",
           "_check_jacobi", "_check_mersmann", "_check_omega", "_check_crude")


def test_bound_cases_cover_every_bounded_flag():
    declared = {(command, flag) for command, spec in cli.COMMANDS.items()
                for flag in spec[2] if flag in cli.BOUNDS}
    assert {case[:2] for case in BOUND_CASES} == declared


@pytest.mark.parametrize("command, flag, value, message", BOUND_CASES,
                         ids=[" ".join(map(str, c[:3])) for c in BOUND_CASES])
def test_every_bound_is_refused_before_any_work(capsys, monkeypatch, command,
                                                flag, value, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a series, enumeration or check ran")

    for name in NO_WORK:
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, *BOUNDED_ARGV[command], flag,
                             str(value))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_scan_json_shape(capsys):
    code, out, _ = run_cli(capsys, "scan", "--series", "sd", "--d", "2",
                           "--m", "2", "--M-max", "4", "--N", "200")
    assert code == 0
    payload = json.loads(out)
    assert {"M": 2, "r": 1} in payload["progressions"]


def test_default_seed_is_64_bit():
    assert 0 < DEFAULT_SEED < 1 << 64


def test_d_capped_at_64(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--series", "sd",
                           "--d", "65", "--N", "3")
    assert code == 2
    assert "capped" in err


def test_identities_d_max_capped_at_64_before_any_build(capsys, monkeypatch):
    def no_build(d):
        raise AssertionError("an F_d was built")

    monkeypatch.setattr(cli, "fd_at_w1", no_build)
    # refused whatever --only names, also a check that reads no --d-max
    for only in ("eulerian", "omega", None):
        argv = ["identities", "--d-max", "65"]
        if only:
            argv += ["--only", only]
        assert run_cli(capsys, *argv) == \
            (2, "", "error: --d-max is capped at 64\n")
    # the cap itself is accepted; A_d stands in for F_d(q0, 1) here
    monkeypatch.setattr(cli, "fd_at_w1", cli.eulerian_poly)
    code, out, _ = run_cli(capsys, "identities", "--only", "eulerian",
                           "--d-max", "64")
    assert code == 0 and json.loads(out)["passed"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "partition_diamonds", "coeffs", "--series",
         "sd", "--d", "1", "--N", "3", "--format", "plain"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0 1", "1 2", "2 5"]


def test_broken_pipe_exits_2_without_traceback():
    # the 80 kB table outgrows a 64 kB pipe buffer, so the writer is still
    # writing when the reader closes its end after one unbuffered line
    proc = subprocess.Popen(
        [sys.executable, "-m", "partition_diamonds", "coeffs", "--series",
         "rd", "--d", "2", "--N", "2000", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
    assert proc.stdout.readline() == b'"index","coefficient"\r\n'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err


OUT_OF_MEMORY = ["coeffs --series sd --d 1 --N 1000000000",
                 "scan --d 1 --m 5 --M-max 5 --N 1000000000",
                 "identities --only pentagonal --N 1000000000",
                 "verify --claim mod5_4k1_r2 --n-max 100000000 --budget "
                 + "9" * 30]


@pytest.mark.parametrize("argv", OUT_OF_MEMORY)
def test_out_of_memory_exits_2_without_traceback(argv):
    # a 1.5 GB address space turns each build's first allocation into a
    # MemoryError, well before any of them would finish
    resource = pytest.importorskip("resource")
    limit = 1_500_000_000

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "partition_diamonds", *argv.split()],
        capture_output=True, text=True, timeout=60,
        preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


PAST_INDEX_RANGE = ["coeffs --series sd --d 1 --N " + "1" + "0" * 20,
                    "scan --d 1 --m 5 --M-max 5 --N " + "1" + "0" * 20,
                    "identities --only pentagonal --N " + "1" + "0" * 20,
                    "oracle --kind rd --d 1 --N " + "1" + "0" * 20,
                    "verify --claim mod5_4k1_r2 --n-max " + "1" + "0" * 20
                    + " --budget " + "1" + "0" * 50]


@pytest.mark.parametrize("argv", PAST_INDEX_RANGE)
def test_size_past_index_range_exits_2(capsys, argv):
    # 10^20 does not fit a Py_ssize_t, so sizing a table by it raises
    # OverflowError: a usage error, not a counterexample
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


TABLE_LESS = ["identities --only eulerian --d-max 4",
              "oracle --kind rd --d 1 --N 6"]


@pytest.mark.parametrize("fmt", ["csv", "plain"])
@pytest.mark.parametrize("command", TABLE_LESS)
def test_table_less_commands_reject_non_json_format(capsys, command, fmt):
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["--format", fmt])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command", TABLE_LESS)
def test_table_less_commands_accept_json_format(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert (code, out) == run_cli(capsys, *command.split(), "--format",
                                  "json")[:2]
    assert code == 0 and json.loads(out)


def test_cli_import_leaves_out_dataclasses_and_csv():
    # a fresh interpreter, since pytest itself has imported dataclasses; -S
    # keeps a site-packages .pth file from preloading any watched module,
    # so the package is found through PYTHONPATH alone.  No job loads
    # argparse or the gettext and locale modules that argparse imports, and
    # only the Omega suite loads random.
    probe = (
        "import sys\n"
        "watched = {'__future__', 'argparse', 'csv', 'dataclasses',\n"
        "           'gettext', 'locale', 'random', 'typing'}\n"
        "watched -= set(sys.modules)\n"
        "from partition_diamonds import cli\n"
        "added = sorted(watched & set(sys.modules))\n"
        "cli.main(['coeffs', '--series', 'sd', '--d', '1', '--N', '3',\n"
        "          '--format', 'csv'])\n"
        "cli.main(['verify', '--claim', 'mod5_4k1_r2', '--k-max', '0',\n"
        "          '--n-max', '5'])\n"
        "parsing = {'argparse', 'gettext', 'locale'} & set(sys.modules)\n"
        "drawn = 'random' in sys.modules\n"
        "cli.main(['identities', '--only', 'omega', '--instances', '3'])\n"
        "print(sorted(watched), added, 'csv' in sys.modules,\n"
        "      sorted(parsing), drawn, 'random' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == \
        "['__future__', 'argparse', 'csv', 'dataclasses', 'gettext', " \
        "'locale', 'random', 'typing'] [] True [] False True"


# Stored stdout digests of the benchmark jobs; read only.  Each command in
# every format it prints (identities and oracle print JSON only), a reduced
# table and one refused oracle job.
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / \
    "references.json"
GOLDEN_KEYS = [
    f"coeffs --series {series} --format {fmt}"
    for series in ("rd --d 1 --N 200", "ddn --d 4 --n 2 --N 1000")
    for fmt in ("json", "csv", "plain")
] + [
    "coeffs --series rd --d 2 --N 40 --mod 3",
    "coeffs --series rd --d 4 --N 250 --format csv --mod 7",
    "coeffs --series rd --d 4 --N 250 --format plain --mod 5",
] + [
    f"verify --claim mod5_4k1_r3 --k-max 0 --n-max 10 --format {fmt}"
    for fmt in ("json", "csv", "plain")
] + [
    f"scan --d 1 --m 2 --M-max 20 --N 200 --format {fmt}"
    for fmt in ("json", "csv", "plain")
] + [
    "scan --d 2 --m 3 --M-max 6 --N 60",
    "identities --only eulerian --d-max 12",
    "identities --only jacobi --N 100",
    "oracle --kind rd --d 1 --N 12",
    "oracle --kind sd --d 1 --N 12",
    "oracle --kind ddn --d 1 --n 2 --N 12",
    "oracle --kind rd --d 1 --N 161",  # refused: exit 2, empty stdout
]


@pytest.fixture(scope="module")
def references():
    return json.loads(REFERENCES.read_text())["jobs"]


@pytest.mark.parametrize("key", GOLDEN_KEYS)
def test_stdout_matches_stored_digest(capsys, references, key):
    code, out, _ = run_cli(capsys, *key.split())
    assert code == references[key]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        references[key]["sha256"]


@pytest.mark.parametrize("key", [
    "oracle --kind sd --d 1 --N 12",
    "verify --claim mod5_4k1_r3 --k-max 0 --n-max 10 --format json",
    "oracle --kind rd --d 1 --N 161",  # refused: exit 2, empty stdout
    "coeffs --series rd --d 1 --N 200 --format json",
])
def test_output_depends_only_on_argv(references, key):
    # none of these variables may change a job's stdout or exit code
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "DIAMOND_BUDGET": "1",
           "PYTHONINTMAXSTRDIGITS": "640", "PYTHONHASHSEED": "12345"}
    proc = subprocess.run(
        [sys.executable, "-m", "partition_diamonds", *key.split()],
        capture_output=True, timeout=60, env=env)
    assert proc.returncode == references[key]["exit"]
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        references[key]["sha256"]


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_output_ignores_the_int_digit_limit(capsys, fmt):
    # s_64(n) below 500 reaches 811 digits, past a 640-digit str() limit
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int digit limit")
    argv = ("coeffs", "--series", "sd", "--d", "64", "--N", "500",
            "--format", fmt)
    want = run_cli(capsys, *argv)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run_cli(capsys, *argv) == want
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert want[0] == 0


# The argparse parser that cli.parse_args replaced, kept verbatim as the
# reference of the differential tests below.
BUDGET_HELP = ("work guard, a positive integer, checked before any estimate "
               "(default 1e9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdiamonds",
        description="Exact toolkit for d-fold partition diamond series "
                    "and their congruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, formats=("json", "csv", "plain")):
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("coeffs", help="print series coefficients")
    p.add_argument("--series", choices=("rd", "sd", "ddn"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="length (ddn only)")
    p.add_argument("--N", type=int, default=100, help="truncation order")
    p.add_argument("--mod", type=int, default=None,
                   help="reduce coefficients mod m")
    common(p, cmd_coeffs)

    p = sub.add_parser("identities", help="run the identity check suite")
    p.add_argument("--only", choices=IDENTITY_CHECKS, default=None)
    p.add_argument("--d-max", type=int, default=12)
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--instances", type=int, default=200,
                   help="random elimination instances")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p, cmd_identities, formats=("json",))

    p = sub.add_parser("oracle", help="closed form vs raw enumeration")
    p.add_argument("--kind", choices=("rd", "sd", "ddn"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="length (ddn only)")
    p.add_argument("--N", type=int, default=20)
    p.add_argument("--budget", type=int, default=None, help=BUDGET_HELP)
    common(p, cmd_oracle, formats=("json",))

    p = sub.add_parser("verify", help="verify congruence claims")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--claim", type=str, default=None,
                       help="a claim label (see --list)")
    group.add_argument("--list", action="store_true",
                       help="list builtin claim labels")
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--budget", type=int, default=None, help=BUDGET_HELP)
    common(p, cmd_verify)

    p = sub.add_parser("scan", help="search a series for zero progressions")
    p.add_argument("--series", choices=("rd", "sd"), default="sd")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="residue modulus")
    p.add_argument("--M-max", type=int, required=True, dest="M_max")
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--min-support", type=int, default=10)
    common(p, cmd_scan)

    return parser


REFERENCE = build_parser()


def parse_outcome(parse, argv):
    """(exit code, stdout, stderr, namespace) of one parse; the code is None
    and the namespace a dict when the argv is accepted."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), None
    return None, out.getvalue(), err.getvalue(), namespace


def assert_parses_like_argparse(argv):
    code, out, err, namespace = parse_outcome(cli.parse_args, argv)
    want = parse_outcome(REFERENCE.parse_args, argv)
    assert (code, namespace) == (want[0], want[3]), (argv, err, want[2])
    if code == 0:  # help
        assert out and not err
    elif code == 2:
        assert out == ""
        assert err.startswith("usage: pdiamonds")
        assert "error: " in err.splitlines()[-1]
        if sys.version_info[:2] == (3, 11):  # messages differ by release
            assert err.splitlines()[-1] == want[2].splitlines()[-1], argv


# Tokens that argparse 3.10.13, 3.11.7, 3.12.1 and 3.13.0 all read the same
# way.  Left out: "--" (3.11 reads "--claim=--" as an empty list), -h given
# a value other than more h's ("-hx", "-h=h"), and numbers such as "-1e5" or
# "-1_000": argparse releases differ on these.
STRAYS = ("extra", "7", "-3", "-0.5", "-", "", "a b", "-x", "--bogus",
          "--bogus=1", "--=5", "-h", "-hh", "--help", "--he", "-h=")
INT_EDGES = ("x", "1.5", "", "-", "0x10", "1e3", "-2.5", " 7 ", "٣")
CLAIMS = ("mod11", "mod5_4k1_r2", "nope", "-7", "x y", "", "-")


# Choice values and flag names of every command, drawn beside the table's
# own, so that a choice or flag missing from the table still gets drawn.
WORDS = ("rd", "sd", "ddn", "json", "csv", "plain", "omega", "crude", "nope",
         "", "JSON")
FLAG_NAMES = ("--series", "--d", "--n", "--N", "--mod", "--format", "--only",
              "--d-max", "--instances", "--seed", "--kind", "--budget",
              "--all", "--claim", "--list", "--k-max", "--n-max", "--m",
              "--M-max", "--min-support")


def draw_value(rnd, kind, choices, top):
    if choices:
        return rnd.choice(list(choices) if rnd.random() < 0.6 else WORDS)
    if kind is int:
        good = rnd.random() < 0.8
        return str(rnd.randint(-3, top)) if good else rnd.choice(INT_EDGES)
    return rnd.choice(CLAIMS)


def draw_flag(rnd, flag, spec, top):
    """One occurrence of `flag`: its full name or a prefix of three or more
    characters, with the value in the next token, after "=", or missing.
    A well-formed int value lies in -3..top."""
    kind, _, choices, _ = spec
    name = flag[:rnd.randint(3, len(flag))] if rnd.random() < 0.3 else flag
    if kind is bool:
        if rnd.random() < 0.9:
            return [name]
        return [name + "=" + rnd.choice(("", "x", "1"))]
    value, form = draw_value(rnd, kind, choices, top), rnd.random()
    if form < 0.2:
        return [f"{name}={value}"]
    return [name] if form < 0.25 else [name, value]


def draw_argv(rnd, top=70):
    """A pdiamonds argv, mostly valid, drawn from cli.COMMANDS, with int
    values mostly in -3..top."""
    command = rnd.choice(list(cli.COMMANDS))
    flags = cli.COMMANDS[command][2]
    group = [f for f in cli.ONE_OF if f in flags]
    picked = [f for f, spec in flags.items() if f not in group and
              rnd.random() < (0.92 if spec[1] is cli.REQUIRED else 0.35)]
    if group:  # mostly exactly one, sometimes none or two
        picked += rnd.sample(group, rnd.choice((1, 1, 1, 1, 1, 0, 2, 3)))
    if picked and rnd.random() < 0.15:
        picked.append(rnd.choice(picked))  # a repeated flag
    units = [draw_flag(rnd, f, flags[f], top) for f in picked]
    for _ in range(rnd.choice((0, 0, 0, 0, 1, 2))):
        units.append([rnd.choice(STRAYS)])
    if rnd.random() < 0.15:  # a flag this command may not take
        units.append([rnd.choice(FLAG_NAMES), rnd.choice(WORDS + ("3",))])
    rnd.shuffle(units)
    head = [command]
    roll = rnd.random()
    if roll < 0.04:
        head = []
    elif roll < 0.08:
        head = [rnd.choice(("nope", "", "-5", "coef", "COEFFS", "a b"))]
    elif roll < 0.12:
        head = [rnd.choice(STRAYS), command]
    return head + [token for unit in units for token in unit]


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_parse_args_accepts_exactly_what_argparse_accepts(rnd):
    assert_parses_like_argparse(draw_argv(rnd))


def run_main(argv):
    """(exit code, stdout) of one in-process cli.main call; any exception
    other than SystemExit propagates."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_argv_keeps_the_exit_and_stdout_contract(rnd):
    # small values, so that what parses also runs in milliseconds
    argv = draw_argv(rnd, top=12)
    code, out = run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert run_main(argv) == (code, out), argv


# The required flags of each command, with valid values
BASES = {"coeffs": ["--series", "sd", "--d", "1"], "identities": [],
         "oracle": ["--kind", "rd", "--d", "1"], "verify": ["--all"],
         "scan": ["--d", "1", "--m", "5", "--M-max", "6"]}


@pytest.mark.parametrize("command", BASES)
def test_every_flag_and_word_parses_like_argparse(command):
    for flag in FLAG_NAMES:
        for word in (*WORDS, "3", "-3"):
            assert_parses_like_argparse([command, *BASES[command], flag,
                                         word])


EDGE_ARGVS = [
    [], ["--bogus"], ["--help"], ["-h", "coeffs"], ["--he"], ["-hh"],
    ["--help=x"], ["--bogus", "scan", "--help"], ["--", "coeffs"],
    ["coeffs", "--series", "sd", "--d", "1", "--"],
    ["coeffs", "--series", "sd", "--d", "1", "--", "--help"],
    ["verify", "--claim", "--"],
    ["coeffs", "--=5", "--help"], ["coeffs", "--help", "--d", "x"],
    ["coeffs", "--d", "x", "--help"], ["scan", "--M", "9", "--d=-2", "--m",
                                       "-1"],
    ["scan", "--mi", "3", "--d", "1", "--m", "5", "--M-max", "6", "--mi=4"],
    ["verify", "--all", "--all"], ["verify", "--list", "--claim", "x"],
    ["verify", "--all", "--claim"], ["verify", "--all", "--list=1"],
    ["verify", "--all=", "--k", "3"], ["identities", "--only=omega", "--d",
                                       "4", "--s", "-0"],
    ["oracle", "--kind", "ddn", "--d", "2", "--n", "-1", "--b", "10"],
]


@pytest.mark.parametrize("argv", EDGE_ARGVS)
def test_parse_args_edge_cases_match_argparse(argv):
    assert_parses_like_argparse(argv)


@pytest.mark.parametrize("argv, line", [
    ([], "pdiamonds: error: the following arguments are required: command"),
    (["nope"], "pdiamonds: error: argument command: invalid choice: 'nope' "
               "(choose from 'coeffs', 'identities', 'oracle', 'verify', "
               "'scan')"),
    (["scan", "--d", "1", "--m", "5", "--M-max", "6", "x"],
     "pdiamonds: error: unrecognized arguments: x"),
    (["coeffs", "--series", "nope", "--d", "1"],
     "pdiamonds coeffs: error: argument --series: invalid choice: 'nope' "
     "(choose from 'rd', 'sd', 'ddn')"),
    (["coeffs", "--series", "sd", "--d", "x"],
     "pdiamonds coeffs: error: argument --d: invalid int value: 'x'"),
    (["coeffs", "--series", "sd", "--d"],
     "pdiamonds coeffs: error: argument --d: expected one argument"),
    # argparse 3.11 read "--d=--" as an empty list, and --d crashed on it
    (["coeffs", "--series", "sd", "--d=--"],
     "pdiamonds coeffs: error: argument --d: invalid int value: '--'"),
    (["verify", "--all", "--li"],
     "pdiamonds verify: error: argument --list: not allowed with argument "
     "--all"),
    (["verify", "--=1"], "pdiamonds verify: error: ambiguous option: --=1 "
                         "could match --help, --all, --claim, --list, "
                         "--k-max, --n-max, --budget, --format"),
    (["scan", "--d", "1"], "pdiamonds scan: error: the following arguments "
                           "are required: --m, --M-max"),
    (["verify"], "pdiamonds verify: error: one of the arguments --all "
                 "--claim --list is required"),
    (["verify", "--all=1"], "pdiamonds verify: error: argument --all: "
                            "ignored explicit argument '1'"),
])
def test_usage_errors_name_the_fault(capsys, argv, line):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.splitlines()[0].startswith("usage: pdiamonds")
    assert out.err.splitlines()[-1] == line


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_lists_every_command_or_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    out = capsys.readouterr()
    assert (exc.value.code, out.err) == (0, "")
    names = cli.COMMANDS[command][2] if command else cli.COMMANDS
    lines = out.out.splitlines()
    assert lines[0].startswith("usage: pdiamonds")
    assert [line.split()[0] for line in lines[1:]] == list(names)
