import pytest

from hilbfock import new_model
from hilbfock.fock import monomials, mono_weight
from hilbfock.operators import OperatorEngine
from hilbfock.verify import (
    run_suite,
    suite_derivative,
    suite_e_op,
    suite_oscillator,
    suite_vertex_integral,
    suite_virasoro,
)

ONE_MODEL = ((1, 0, -1, 0),)


def test_suite_without_checks_does_not_pass():
    for report in (
        suite_vertex_integral(n_max=0),
        run_suite("vertex-integral", max_n=0),
    ):
        assert report["checks"] == 0
        assert report["pass"] is False


def _wrong_at(method, index):
    """The operator method, but doubled at one index."""

    def wrong(self, m, a, v):
        out = method(self, m, a, v)
        return out.scale(2) if m == index else out

    return wrong


def test_wrong_virasoro_operator_fails(monkeypatch):
    monkeypatch.setattr(
        OperatorEngine, "virasoro", _wrong_at(OperatorEngine.virasoro, 1)
    )
    report = suite_virasoro(max_n=2, max_weight=2, model_params=ONE_MODEL)
    assert report["pass"] is False
    assert report["checks"] > 0
    ce = report["counterexample"]
    assert set(ce) == {"model", "relation", "n", "m", "a", "b", "monomial"}
    assert ce["model"] == ONE_MODEL[0]
    assert 1 in (ce["n"], ce["m"], ce["n"] + ce["m"])


def test_wrong_oscillator_fails(monkeypatch):
    monkeypatch.setattr(OperatorEngine, "q", _wrong_at(OperatorEngine.q, 2))
    report = suite_oscillator(
        max_n=2, n_vectors=5, max_weight=3, model_params=ONE_MODEL
    )
    assert report["pass"] is False
    ce = report["counterexample"]
    assert set(ce) == {"model", "n", "m", "a", "b"}
    assert 2 in (ce["n"], ce["m"])


@pytest.fixture(scope="module")
def small():
    model = new_model(*ONE_MODEL[0])
    return model, len(model.symbols) ** 2  # basis class pairs (a, b)


def test_virasoro_check_count(small):
    model, pairs = small
    basis = monomials(model, 2)
    ns, ms = 5, 4  # -2..2, and without 0
    report = suite_virasoro(max_n=2, max_weight=2, model_params=ONE_MODEL)
    assert report["pass"] is True
    assert report["checks"] == len(basis) * (ns * ms + ns * ns) * pairs


def test_oscillator_check_count(small):
    _, pairs = small
    report = suite_oscillator(
        max_n=2, n_vectors=5, max_weight=3, model_params=ONE_MODEL
    )
    assert report["pass"] is True
    assert report["checks"] == 5 * 4 * 4 * pairs + 1  # and q_0 = 0


def test_derivative_check_count(small):
    model, pairs = small
    basis = monomials(model, 3)
    low = sum(1 for M in basis if mono_weight(M) <= 2)
    report = suite_derivative(
        max_n=2, max_weight=3, sample=5, model_params=ONE_MODEL
    )
    assert report["pass"] is True
    assert report["checks"] == (low + 5) * 4 * 4 * pairs + 20  # and Leibniz


def test_e_op_check_count(small):
    model, pairs = small
    basis = monomials(model, 2)
    report = suite_e_op(max_weight=2, model_params=ONE_MODEL)
    assert report["pass"] is True
    assert report["checks"] == len(basis) * 4 * 7 * pairs
