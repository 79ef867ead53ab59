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
    # the creation oscillator q_2 doubled: its columns are relabels, made by
    # operators._Relabel, not filled by _q_column
    class WrongRelabel(operators._Relabel):
        __slots__ = ()

        def __init__(self, ins, k, den):
            super().__init__(ins, k, 2 * den if k[0] == 2 else den)

    monkeypatch.setattr(operators, "_Relabel", WrongRelabel)
    report = suite_oscillator(
        max_n=2, n_vectors=5, max_weight=3, model_params=ONE_MODEL
    )
    assert report["pass"] is False
    ce = report["counterexample"]
    assert set(ce) == {"model", "n", "m", "a", "b"}
    assert 2 in (ce["n"], ce["m"])


def test_wrong_annihilator_fails(monkeypatch):
    monkeypatch.setattr(operators, "_q_column", _wrong_at(operators._q_column, -2))
    report = suite_oscillator(
        max_n=2, n_vectors=5, max_weight=3, model_params=ONE_MODEL
    )
    assert report["pass"] is False
    ce = report["counterexample"]
    assert set(ce) == {"model", "n", "m", "a", "b"}
    assert -2 in (ce["n"], ce["m"])


def test_wrong_derivative_fails(monkeypatch):
    # D doubled on the monomials of weight 3; the q' columns of n <= 0 are
    # [D, q], so the bracket cases see it before Lehn's rule is checked
    fill = operators._boundary_column

    def wrong(ids, monos, *rest):
        out = fill(ids, monos, *rest)
        return {N: 2 * x for N, x in out.items()} if mono_weight(monos[rest[-1]]) == 3 else out

    monkeypatch.setattr(operators, "_boundary_column", wrong)
    report = suite_derivative(
        max_n=2, max_weight=3, sample=5, model_params=ONE_MODEL
    )
    assert report["pass"] is False
    assert report["checks"] > 0
    ce = report["counterexample"]
    assert set(ce) == {"model", "n", "m", "a", "b", "monomial"}
    assert ce["model"] == ONE_MODEL[0]


def test_wrong_virasoro_fails_lehns_rule(monkeypatch):
    # the q' columns do not read L, so only Lehn's rule sees a wrong L_2
    monkeypatch.setattr(operators, "_pairs", _wrong_at(operators._pairs, 2))
    report = suite_derivative(
        max_n=2, max_weight=3, sample=5, model_params=ONE_MODEL
    )
    assert report["pass"] is False
    ce = report["counterexample"]
    assert set(ce) == {"model", "lehn", "n", "a", "monomial"}
    assert ce["lehn"] is True and ce["n"] == 2


def test_wrong_e_operator_fails(monkeypatch):
    monkeypatch.setattr(operators, "_pairs", _wrong_at(operators._pairs, 2))
    report = suite_e_op(max_weight=2, model_params=ONE_MODEL)
    assert report["pass"] is False
    assert report["checks"] > 0
    ce = report["counterexample"]
    assert set(ce) == {"model", "n", "m", "a", "b", "monomial"}
    assert ce["model"] == ONE_MODEL[0]
    assert ce["n"] == 2


def test_report_names_its_size_and_seed():
    # seeds 1 and 2 draw other vectors to the same number of passing
    # checks; the report tells them apart by the seed it names, and names
    # None for what a suite does not take
    kwargs = dict(max_n=2, n_vectors=5, max_weight=3, model_params=ONE_MODEL)
    one, two = (suite_oscillator(seed=seed, **kwargs) for seed in (1, 2))
    assert one != two
    assert dict(one, seed=2) == two
    assert (one["size"], one["seed"], one["pass"]) == (2, 1, True)
    assert (run_suite("oscillator", max_n=1)["size"], suite_vertex_integral(1)["seed"]) == (1, None)
    report = run_suite("worked-example")
    assert (report["size"], report["seed"], report["pass"]) == (None, None, True)


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
    brackets = (low + 5) * 4 * 4 * pairs
    # Lehn's rule on each n, basis class and M with wt(M) + max(n, 1) <= 3
    lehn = sum(1 for n in (-2, -1, 1, 2) for M in basis if mono_weight(M) + max(n, 1) <= 3)
    assert report["checks"] == brackets + lehn * len(model.symbols)


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
