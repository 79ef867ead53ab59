import io
import json
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import ENGINE_VERSION, cli, new_model, segre
from hilbfock.cli import main, parse_bundle
from hilbfock.fock import render_monomial
from hilbfock.linear import q_str
from hilbfock.operators import OperatorEngine
from hilbfock.segre import KNOWN_DM, UnivPoly
from hilbfock.series import conjecture_series
from hilbfock.surface import CohClass, parse_class, render_class


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


def test_verify_passes_size_and_seed(capsys):
    # the report names the size and seed that the suite ran with
    code, out = run_cli(capsys, "verify", "oscillator", "--max-n", "2", "--seed", "2")
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["suite"], result["size"], result["seed"]) == ("oscillator", 2, 2)
    assert result["pass"] is True


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


def test_segre_numeric_reads_and_writes_the_cache(capsys, monkeypatch, tmp_path):
    # the first run samples and stores the point, the second is answered
    # from the file without sampling
    path = tmp_path / "cache.jsonl"
    argv = ["segre", "--n", "3", "--d", "2", "--pi", "1", "--kappa", "-1", "--jobs", "1"]
    code, out = run_cli(capsys, *argv, "--cache", str(path))
    assert code == 0 and json.loads(out)["result"]["value"] == "52/1"
    assert path.exists()

    def no_sampling(*args, **kwargs):
        raise AssertionError("segre_series was called")

    monkeypatch.setattr(segre, "segre_series", no_sampling)
    assert run_cli(capsys, *argv, "--cache", str(path)) == (code, out)


def test_segre_symbolic(capsys):
    code, out = run_cli(capsys, "segre", "--n", "2", "--symbolic")
    assert code == 0
    doc = json.loads(out)
    assert (
        doc["result"]["polynomial"]
        == "1/2*d^2 - 5*d - 5/2*pi - 1/2*kappa + 1/2*e"
    )
    assert doc["result"]["terms"]["d^2"] == "1/2"


def test_segre_symbolic_n9_on_a_closed_form_cache(capsys, monkeypatch, tmp_path):
    # d takes its 10 lattice values, so N_9 interpolates; the cache holds
    # the closed form on the grid of N_9, so no chain is computed
    def no_sampling(*args, **kwargs):
        raise AssertionError("segre_series was called")

    path = tmp_path / "cache.jsonl"
    sampler = segre.Sampler(str(path))
    for params in segre.sample_grid(9, len(segre.support_monomials(9)) + segre.EXTRA_POINTS):
        d, pi, kappa, b2 = params
        values = conjecture_series(d, pi, kappa, 4 + b2, 9)
        for n in range(10):
            sampler.store(n, params, values.coefficient(n))
    monkeypatch.setattr(segre, "segre_series", no_sampling)
    code, out = run_cli(capsys, "segre", "--n", "9", "--symbolic", "--cache", str(path))
    assert code == 0
    assert json.loads(out)["result"]["terms"]["d^9"] == "1/362880"


def test_segre_degenerate_model(capsys):
    for n in ("2", "3"):
        code, _ = run_cli(
            capsys, "segre", "--n", n, "--d", "1", "--pi", "1", "--kappa", "1"
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


def test_dm_cross_checks_the_fit(capsys, monkeypatch):
    # the linear fit also gives d_1..d_5, which must equal the ones from the
    # symbolic N_n, below m = 5 too: a wrong fitted d_3 fails its row
    def wrong_fit(m_max, sampler):
        fitted = [UnivPoly()] + [KNOWN_DM[m] for m in range(1, m_max + 1)]
        fitted[3] = fitted[3] + KNOWN_DM[1]
        return fitted

    monkeypatch.setattr(cli, "fit_dm_linear", wrong_fit)
    for max_m in (3, 6):
        code, out = run_cli(capsys, "dm", "--max-m", str(max_m))
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert [r["match"] for r in doc["result"]] == [m != 3 for m in range(1, max_m + 1)]
        assert doc["result"][2]["d_m"] == KNOWN_DM[3].render()


def test_cold_dm_computes_each_point_once(capsys, monkeypatch):
    # the fit and N_5 .. N_0 are asked for highest order first, so the
    # sampler computes each point once, at the highest order asked of it
    monkeypatch.delenv("HILB_CACHE", raising=False)
    points = []
    worker = segre._series_worker

    def counting(args):
        points.append(args[1])
        return worker(args)

    monkeypatch.setattr(segre, "_series_worker", counting)
    code, _ = run_cli(capsys, "dm", "--max-m", "5")
    assert code == 0
    assert len(points) == len(set(points))


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
    # at order 0 the closed form is the constant 1
    code, out = run_cli(capsys, "conjecture", "--n-max", "0")
    assert code == 0
    rows = json.loads(out)["result"]
    assert [(r["n"], r["match"]) for r in rows] == [(0, True)]


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


def test_chern_character(capsys, model):
    code, out = run_cli(capsys, "chern", "--n", "3", "--bundle=-L(c1=h)", "--character")
    assert code == 0
    want = OperatorEngine(model).chern_char_class(parse_bundle("-L(c1=h)", model), 3)
    terms = {render_monomial(M): q_str(c) for M, c in want.terms.items()}
    assert terms and json.loads(out)["result"]["terms"] == terms


@pytest.mark.parametrize(
    "bundle",
    [
        "L(c1=",
        "L(c1=1/0h)",
        "K(rank=2,c1=h,c2=1/0)",
        "L(c1=hk)",
        "L(c1=2h3k)",
        "L(c1=h+2*)",
        "L(c1=h+*k)",
        "L(c1=1 0h)",
        "K(rank=2,c1=h,c2=3 1)",
        "K(rank=2,c1=h,c2=0 1)",
        "K(rank=2,c1=h,c2=1e3)",
        "K(rank=2,c1=h,c2=0.5)",
        "K(rank=2,c1=h,c2=)",
    ],
    ids=[
        "unclosed",
        "zero-denominator-c1",
        "zero-denominator-c2",
        "terms-without-sign",
        "coefficients-without-sign",
        "star-without-symbol",
        "star-without-coefficient",
        "space-in-c1-numeral",
        "space-in-c2-numeral",
        "space-after-zero-c2",
        "exponent-c2",
        "decimal-c2",
        "empty-c2",
    ],
)
def test_chern_malformed_bundle(capsys, bundle):
    code, out = run_cli(capsys, "chern", "--n", "1", "--bundle", bundle)
    assert code == 2
    assert out == ""


#: strings over the class alphabet of the b2 = 1 model: numerals, signs,
#: stars, spaces and the symbols
_CLASS_TEXT = st.lists(
    st.sampled_from(list("0123456789/*+- ") + ["h", "k", "pt", "u1"]), max_size=12
).map("".join)
_B2_MODEL = new_model(2, 1, -1, 1)


@settings(max_examples=400, deadline=None)
@given(_CLASS_TEXT)
def test_accepted_classes_round_trip(text):
    try:
        c = parse_class(text, _B2_MODEL)
    except ValueError:
        return
    assert parse_class(render_class(c), _B2_MODEL) == c


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["L(c1=%s)", "K(rank=2,c1=h,c2=%s)", "K(rank=%s,c1=h,c2=1)"]),
    _CLASS_TEXT,
    st.sampled_from("0123456789"),
    st.text(" ", min_size=1, max_size=3),
    st.sampled_from("0123456789"),
    _CLASS_TEXT,
)
def test_space_between_digits_is_refused(literal, head, d1, gap, d2, tail):
    bundle = literal % (head + d1 + gap + d2 + tail)
    with redirect_stdout(io.StringIO()) as out:
        code = main(["chern", "--n", "1", "--bundle", bundle])
    assert (code, out.getvalue()) == (2, ""), bundle


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
    assert main(["segre", "--n", "2", "--d", "x"]) == 2  # not a rational
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
        ["dm", "--max-m", "0"],
        ["conjecture", "--n-max", "-1"],
        ["verify", "vertex-integral", "--max-n", "0"],
        ["--max-weight", "3", "verify", "e-op", "--max-n", "9"],
        ["verify", "e-op", "--max-n", "5"],
        ["verify", "goettsche-dim", "--seed", "5"],
        ["verify", "worked-example", "--max-n", "3"],
        ["segre", "--n", "2", "--symbolic", "--jobs", "0"],
        ["dm", "--max-m", "2", "--jobs", "-1"],
    ],
    ids=[
        "segre-negative-n",
        "chern-negative-n",
        "dm-negative-max-m",
        "dm-max-m-zero",
        "conjecture-negative-n-max",
        "verify-max-n-zero",
        "verify-max-n-over-guard",
        "verify-e-op-over-largest",
        "verify-seed-unseeded-suite",
        "verify-size-unsized-suite",
        "segre-jobs-zero",
        "dm-jobs-negative",
    ],
)
def test_out_of_range_sizes_are_usage_errors(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "command, point, code",
    [
        (["conjecture", "--n-max", "2"], ["1", "1", "1", "0"], 3),
        (["conjecture", "--n-max", "2"], ["1", "0", "-1", "-1"], 2),
        (["segre", "--n", "2"], ["1", "1", "1", "0"], 3),
        (["segre", "--n", "2"], ["1", "0", "-1", "-1"], 2),
    ],
    ids=["degenerate", "negative-b2-extra", "segre-degenerate", "segre-negative-b2-extra"],
)
def test_conjecture_refuses_a_cached_point(capsys, tmp_path, command, point, code):
    # the model is checked before the cache is read, so the exit code does
    # not depend on whether the cache holds N_0..N_2 at the point; numeric
    # segre reads the same cache
    path = tmp_path / "cache.jsonl"
    d, pi, kappa, b2 = point
    with open(path, "w") as fh:
        fh.write(json.dumps({"engine_version": ENGINE_VERSION}) + "\n")
        for n in range(3):
            rec = {"n": n, "d": d, "pi": pi, "kappa": kappa, "b2_extra": int(b2), "value": "1/1"}
            fh.write(json.dumps(rec) + "\n")
    argv = command + ["--d", d, "--pi", pi, "--kappa", kappa]
    assert run_cli(capsys, *argv, "--b2-extra", b2, "--cache", str(path)) == (code, "")


def test_cache_env_var(capsys, monkeypatch, tmp_path):
    # $HILB_CACHE is the default of --cache
    path = tmp_path / "env_cache.jsonl"
    monkeypatch.setenv("HILB_CACHE", str(path))
    code, _ = run_cli(capsys, "conjecture", "--n-max", "1")
    assert code == 0 and path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["segre", "--n", "2", "--symbolic"],
        ["dm", "--max-m", "2"],
        ["conjecture", "--n-max", "2"],
        ["segre", "--n", "2"],
    ],
    ids=["segre-symbolic", "dm", "conjecture", "segre-numeric"],
)
@pytest.mark.parametrize("where", ["directory", "missing-directory", "env-directory"])
def test_unusable_cache_path_is_refused_before_sampling(capsys, monkeypatch, tmp_path, argv, where):
    def no_sampling(*args, **kwargs):
        raise AssertionError("segre_series was called")

    monkeypatch.setattr(segre, "segre_series", no_sampling)
    path = tmp_path / "missing" / "cache.jsonl" if where == "missing-directory" else tmp_path
    if where == "env-directory":
        monkeypatch.setenv("HILB_CACHE", str(path))
    else:
        argv = argv + ["--cache", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(path) in captured.err
