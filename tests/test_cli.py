import json
import subprocess
import sys

import pytest

from hilbfock import ENGINE_VERSION
from hilbfock.cli import main, parse_bundle
from hilbfock.surface import CohClass


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_suite_passes(capsys):
    code, out = run_cli(capsys, "verify", "pairing", "--max-n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["engine_version"] == ENGINE_VERSION
    assert doc["result"]["pass"] is True


def test_verify_unknown_suite(capsys):
    code, _ = run_cli(capsys, "verify", "no-such-suite")
    assert code == 2


def test_segre_numeric(capsys):
    code, out = run_cli(
        capsys, "segre", "--n", "2", "--d", "1", "--pi", "0", "--kappa", "-1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == "-2/1"


def test_segre_symbolic(capsys):
    code, out = run_cli(capsys, "segre", "--n", "2", "--symbolic")
    assert code == 0
    doc = json.loads(out)
    assert (
        doc["result"]["polynomial"]
        == "1/2*d^2 - 5*d - 5/2*pi - 1/2*kappa + 1/2*e"
    )
    assert doc["result"]["terms"]["d^2"] == "1/2"


def test_segre_degenerate_model(capsys):
    code, _ = run_cli(
        capsys, "segre", "--n", "2", "--d", "1", "--pi", "1", "--kappa", "1"
    )
    assert code == 3


def test_segre_max_weight_guard(capsys):
    code, _ = run_cli(capsys, "--max-weight", "3", "segre", "--n", "5")
    assert code == 2


def test_dm_table(capsys):
    code, out = run_cli(capsys, "dm", "--max-m", "3")
    assert code == 0
    doc = json.loads(out)
    rows = doc["result"]
    assert rows[0]["d_m"] == "d"
    assert rows[1]["d_m"] == "10*d + 5*pi + kappa - e"
    assert all(r["match"] for r in rows)


def test_conjecture(capsys):
    code, out = run_cli(
        capsys,
        "conjecture",
        "--n-max",
        "3",
        "--d",
        "2",
        "--pi",
        "1",
        "--kappa",
        "-1",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(r["match"] for r in doc["result"])


def test_chern_line_bundle(capsys):
    code, out = run_cli(capsys, "chern", "--n", "1", "--bundle", "L(c1=h)")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["class"] == "q1[1+h]"
    # a negated literal, joined to its option
    code, out = run_cli(capsys, "chern", "--n", "1", "--bundle=-L(c1=2h-k)")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["class"] == "q1[1-2*h+k+3*pt]"


def test_chern_malformed_bundle(capsys):
    code, _ = run_cli(capsys, "chern", "--n", "1", "--bundle", "L(c1=")
    assert code == 2


def test_parse_bundle(model):
    u = parse_bundle("-L(c1=h)", model)
    assert u.rank == -1
    assert u.c1 == CohClass({"h": -1})
    assert u.c2 == CohClass({"pt": model.d})
    w = parse_bundle("K(rank=2,c1=h-k,c2=3)", model)
    assert w.rank == 2
    assert w.c2 == CohClass({"pt": 3})


def test_usage_error_exit_code():
    assert main(["segre"]) == 2  # missing required --n
    assert main([]) == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hilbfock.cli", "verify", "goettsche-dim", "--max-n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["segre", "--n", "-1"],
        ["chern", "--n", "-1", "--bundle", "L(c1=h)"],
        ["dm", "--max-m", "-1"],
        ["conjecture", "--n-max", "-1"],
        ["verify", "vertex-integral", "--max-n", "0"],
        ["--max-weight", "3", "verify", "e-op", "--max-n", "9"],
        ["verify", "e-op", "--max-n", "5"],
        ["segre", "--n", "9", "--symbolic"],
        ["segre", "--n", "2", "--symbolic", "--jobs", "0"],
        ["dm", "--max-m", "2", "--jobs", "-1"],
    ],
    ids=[
        "segre-negative-n",
        "chern-negative-n",
        "dm-negative-max-m",
        "conjecture-negative-n-max",
        "verify-max-n-zero",
        "verify-max-n-over-guard",
        "verify-e-op-over-largest",
        "segre-symbolic-rank-deficient",
        "segre-jobs-zero",
        "dm-jobs-negative",
    ],
)
def test_out_of_range_sizes_are_usage_errors(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
