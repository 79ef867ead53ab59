"""Checks of the benchmark itself, on small sizes.

    python3 -m pytest -q perfbench
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hilbfock import cli, fock, segre  # noqa: E402

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Tally  # noqa: E402


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_wrong_expected_chain_value_is_a_failure(tmp_path):
    rounds = workloads.segre_chain_setup(5, tmp_path, n_max=3)
    tally = Tally()
    workloads.segre_chain_pass(rounds, 0, tally, n_max=3)
    assert (tally.attempted, tally.failed, tally.checks) == (2, 0, 8)
    rounds[1][0][1][2] += 1
    workloads.segre_chain_pass(rounds, 1, tally, n_max=3)
    assert (tally.attempted, tally.failed, tally.checks) == (4, 1, 16)


def test_wrong_expected_interpolation_values_are_failures(tmp_path, monkeypatch):
    inputs = workloads.interp_setup(3, tmp_path, n_max=4)
    tally = Tally()
    workloads.interp_pass(inputs, 0, tally)
    assert (tally.attempted, tally.failed) == (4, 0)
    inputs.off_grid[0][1][3] += 1
    monkeypatch.setitem(cli.KNOWN_DM, 2, cli.KNOWN_DM[2].scale(2))
    workloads.interp_pass(inputs, 1, tally)
    # N_3 misses at one point; dm exits 1 with one row unmatched
    assert (tally.attempted, tally.failed) == (8, 2)


def test_failed_suite_and_crash_are_failures():
    tally = Tally()
    calls = [("pairing", "suite_pairing", {"n_max": 2}), ("affine", "suite_affine", {"bogus": 1})]
    workloads.verify_pass(calls, 0, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    with tally.result():
        tally.check(False)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_tracer_self_time_and_uninstall():
    import types

    mod = types.ModuleType("m")
    other = types.ModuleType("o")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer, other.inner = inner, outer, inner
    tr = Tracer()
    tr.patch_function([mod, other], inner, "x.inner")
    tr.patch_function([mod], outer, "x.outer")
    assert mod.outer() == 2 and other.inner() == 1
    tr.uninstall()
    assert mod.inner is inner and other.inner is inner and mod.outer is outer
    assert tr.stat("x.inner")[0] == 3 and tr.stat("x.outer")[0] == 1
    calls, busy, self_s = tr.stat("x.outer")
    assert 0 <= self_s <= busy
    assert list(tr.span_parent) == [-1, 0, 0, -1]
    assert all(s <= e for s, e in zip(tr.span_start, tr.span_end))


def test_traced_interpolation_never_computes_and_always_hits(tmp_path):
    tr = Tracer()
    probes.install(tr)
    try:
        inputs = workloads.interp_setup(2, tmp_path, n_max=4)
        tally = Tally()
        workloads.interp_pass(inputs, 0, tally)
    finally:
        tr.uninstall()
    assert fock.FockVector.__init__.__name__ == "__init__"
    assert tally.failed == 0
    values = probes.layer_metrics(tr)
    assert values["segre.segre_series.calls"] == 0
    assert values["segre.sampler.hit_ratio"] == 1
    assert values["segre.sampler.records_written"] == len(workloads.prefill_points(4)) * 5
    assert values["cli.main.calls"] == 1 and values["cli.main.nonzero_exits"] == 0
    assert values["segre.solve.cells"] > 0 and values["series.conjecture.calls"] > 0
    assert set(values) | {"trace.overhead_s"} == {n for n, _, _ in probes.PER_LAYER}


def test_metric_names_match_benchmark_json(tmp_path):
    spec = _spec()
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in probes.PER_LAYER
    ]

    def setup(seed, workdir):
        return seed

    def one_pass(inputs, index, tally):
        with tally.result():
            tally.check(inputs == 7)

    tally, metrics = run.measure((setup, one_pass), 7, 0.0, tmp_path, 0.01)
    assert tally.failed == 0
    assert [(n, u) for n, (_v, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    ]
    assert all(v > 0 for v, _u in metrics.values())
