from fractions import Fraction as Q

import pytest

from hilbfock import new_model, operators
from hilbfock.fock import monomials, mono_weight
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


def _wrong_at(fill, index):
    """A column fill of ``operators``, doubled at one index.  A fill takes
    the engine's tables, then (index, symbol, id); an engine built after
    the patch fills its family with it, and the public operators and the
    bracket suites both read those columns.  ``_pairs`` fills both the L
    and the e family; each suite below reads only one of them."""

    def wrong(*args):
        out = fill(*args)
        return {N: 2 * x for N, x in out.items()} if args[-3] == index else out

    return wrong


def test_wrong_virasoro_operator_fails(monkeypatch):
    monkeypatch.setattr(operators, "_pairs", _wrong_at(operators._pairs, 1))
    report = suite_virasoro(max_n=2, max_weight=2, model_params=ONE_MODEL)
    assert report["pass"] is False
    assert report["checks"] > 0
    ce = report["counterexample"]
    assert set(ce) == {"model", "relation", "n", "m", "a", "b", "monomial"}
    assert ce["model"] == ONE_MODEL[0]
    assert 1 in (ce["n"], ce["m"], ce["n"] + ce["m"])


def test_wrong_oscillator_fails(monkeypatch):
    monkeypatch.setattr(operators, "_q_column", _wrong_at(operators._q_column, 2))
    report = suite_oscillator(
        max_n=2, n_vectors=5, max_weight=3, model_params=ONE_MODEL
    )
    assert report["pass"] is False
    ce = report["counterexample"]
    assert set(ce) == {"model", "n", "m", "a", "b"}
    assert 2 in (ce["n"], ce["m"])


def test_wrong_derivative_fails(monkeypatch):
    monkeypatch.setattr(
        operators, "_qprime_column", _wrong_at(operators._qprime_column, 2)
    )
    report = suite_derivative(
        max_n=2, max_weight=3, sample=5, model_params=ONE_MODEL
    )
    assert report["pass"] is False
    assert report["checks"] > 0
    ce = report["counterexample"]
    assert set(ce) == {"model", "n", "m", "a", "b", "monomial"}
    assert ce["model"] == ONE_MODEL[0]
    assert ce["n"] == 2


def test_wrong_e_operator_fails(monkeypatch):
    monkeypatch.setattr(operators, "_pairs", _wrong_at(operators._pairs, 2))
    report = suite_e_op(max_weight=2, model_params=ONE_MODEL)
    assert report["pass"] is False
    assert report["checks"] > 0
    ce = report["counterexample"]
    assert set(ce) == {"model", "n", "m", "a", "b", "monomial"}
    assert ce["model"] == ONE_MODEL[0]
    assert ce["n"] == 2


def test_oscillator_without_vectors_checks_q0():
    report = suite_oscillator(max_n=2, n_vectors=0, max_weight=3, model_params=ONE_MODEL)
    assert report["pass"] is True
    assert report["checks"] == 1


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


def test_bracket_suites_pass_on_a_rational_model():
    # DEFAULT_MODELS have column denominators up to 6; this one reaches 336
    rational = ((Q(3, 2), Q(1, 3), -2, 1),)
    for report in (
        suite_virasoro(max_n=2, max_weight=2, model_params=rational),
        suite_derivative(max_n=2, max_weight=3, sample=5, model_params=rational),
        suite_oscillator(max_n=2, n_vectors=5, max_weight=3, model_params=rational),
        suite_e_op(max_weight=2, model_params=rational),
    ):
        assert report["pass"] is True, report
        assert report["checks"] > 0
