"""CLI surface: flags, output formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from partition_diamonds import cli
from partition_diamonds.cli import DEFAULT_SEED, main
from partition_diamonds.genfun import rd_series, sd_series
from partition_diamonds.series import reduce_mod


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    want = reduce_mod(build(d, 120), m)
    assert json.loads(out) == {"ring": {"mod": m}, "order": 120,
                               "coeffs": [str(c) for c in want.coeffs]}


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
                             "2", "--n", "2", "--N", "10", "--mod", str(m))
    assert (code, out, err) == (2, "", message + "\n")


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


def test_bad_budget_env_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("DIAMOND_BUDGET", "abc")
    code, out, err = run_cli(capsys, "oracle", "--kind", "rd", "--d", "1",
                             "--N", "10")
    assert code == 2
    assert out == ""
    assert "DIAMOND_BUDGET" in err


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
                             "--n", "2", "--N", "30", "--budget", "10")
    assert code == 2
    assert out == ""
    assert "budget error" in err


@pytest.mark.parametrize("kind", ["rd", "sd", "ddn"])
def test_oracle_negative_width_exit_2(capsys, kind):
    code, out, err = run_cli(capsys, "oracle", "--kind", kind, "--d", "-1",
                             "--n", "2", "--N", "5")
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
                             "--n", "2", "--N", "60")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_oracle_sd_honours_budget(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "oracle", "--kind", "sd", "--d", "1",
                             "--N", "1200", "--budget", "10")
    assert code == 2
    assert out == ""
    assert "budget error" in err
    monkeypatch.setenv("DIAMOND_BUDGET", "10")
    code, _, err = run_cli(capsys, "oracle", "--kind", "sd", "--d", "1",
                           "--N", "30")
    assert code == 2
    assert "budget error" in err


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
    assert "nope" in err


def test_scan_plain_matches_known_progressions(capsys):
    code, out, _ = run_cli(capsys, "scan", "--series", "sd", "--d", "1",
                           "--m", "5", "--M-max", "6", "--N", "500",
                           "--format", "plain")
    assert code == 0
    assert out.splitlines() == ["5 2", "5 3", "5 4"]


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
    # so the package is found through PYTHONPATH alone
    probe = (
        "import sys\n"
        "watched = {'dataclasses', 'csv', 'typing'} - set(sys.modules)\n"
        "from partition_diamonds import cli\n"
        "added = sorted(watched & set(sys.modules))\n"
        "cli.main(['coeffs', '--series', 'sd', '--d', '1', '--N', '3',\n"
        "          '--format', 'csv'])\n"
        "print(sorted(watched), added, 'csv' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == \
        "['csv', 'dataclasses', 'typing'] [] True"


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
def test_stdout_matches_stored_digest(capsys, monkeypatch, references, key):
    monkeypatch.delenv("DIAMOND_BUDGET", raising=False)
    code, out, _ = run_cli(capsys, *key.split())
    assert code == references[key]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        references[key]["sha256"]
