import random
from fractions import Fraction as Q
from functools import cache

import pytest

from hilbfock import dimension, integrate_hilb, new_model, pairing, vacuum
from hilbfock.fock import (
    FockVector,
    mono_degree,
    mono_insert,
    mono_weight,
    monomials,
    render_monomial,
    render_vector,
)
from hilbfock.operators import OperatorEngine
from hilbfock.verify import _random_vector, betti_product


def test_canonical_monomial_order(engine, model):
    v = engine.q(2, model.h_class(), engine.q(1, model.point(), vacuum()))
    assert list(v.terms) == [((2, "h"), (1, "pt"))]
    # same factors in the other application order give the same monomial
    w = engine.q(1, model.point(), engine.q(2, model.h_class(), vacuum()))
    assert v == w


def test_symbol_order_within_equal_index(model_b2):
    M = ()
    for sym in ("pt", "u1", "1", "k", "h"):
        M = mono_insert(M, 1, sym)
    assert M == ((1, "1"), (1, "h"), (1, "k"), (1, "u1"), (1, "pt"))


def test_render_monomial():
    assert render_monomial(((3, "h"), (1, "pt"))) == "q3[h]*q1[pt]"
    assert render_monomial(()) == "1"


def test_annihilation_contraction(engine, model):
    # q_{-n}(a) removes a factor q_n(b) with coefficient -n (a.b)
    v = engine.q(2, model.h_class(), vacuum())
    got = engine.q(-2, model.h_class(), v)
    assert got == vacuum().scale(-2 * model.d)
    assert engine.q(-1, model.h_class(), v).is_zero()


def test_annihilation_counts_multiplicity(engine, model):
    v = engine.q(1, model.unit(), engine.q(1, model.unit(), vacuum()))
    got = engine.q(-1, model.point(), v)
    assert got == engine.q(1, model.unit(), vacuum()).scale(-2)


def test_vacuum_killed_by_annihilation(engine, model):
    assert engine.q(-3, model.point(), vacuum()).is_zero()
    assert engine.q(0, model.unit(), vacuum()).is_zero()


def test_pairing_sign_normalization(engine, model):
    for n in range(1, 9):
        v = engine.q(n, model.point(), vacuum())
        w = engine.q(n, model.unit(), vacuum())
        assert pairing(v, w, model) == Q((-1) ** (n - 1) * n)


def test_pairing_symmetry(model_b2):
    rng = random.Random(11)
    basis = monomials(model_b2, 4)
    for _ in range(10):
        v = _random_vector(basis, rng)
        w = _random_vector(basis, rng)
        assert pairing(v, w, model_b2) == pairing(w, v, model_b2)


def test_pairing_is_the_annihilation_pairing():
    # <M, N> = (-1)^wt(M) times the vacuum coefficient of the engine's
    # annihilators q_(-n)(s), one per factor q_n(s) of M, applied in turn to
    # N; on every pair of basis monomials of weight <= 4, a rational model
    # included
    for params in ((2, 1, -1, 1), (Q(3, 2), Q(1, 3), -2, 1)):
        model = new_model(*params)
        eng = OperatorEngine(model)

        @cache
        def vacuum_coefficient(factors, i):
            # over q.den ** len(factors), from the engine's q columns on
            # the monomial of id i
            if not factors:
                return int(eng._monos[i] == ())
            (n, s), rest = factors[0], factors[1:]
            col = eng._q_cache[-n, s][i]
            return sum(c * vacuum_coefficient(rest, i2) for i2, c in col.items())

        basis = [(M, FockVector({M: 1})) for M in monomials(model, 4)]
        for M, v in basis:
            den = (-1) ** mono_weight(M) * eng._q_cache.den ** len(M)
            for N, w in basis:
                got = pairing(v, w, model)
                want = vacuum_coefficient(M, eng._ids[N]) * got.denominator
                assert got.numerator * den == want, (params, M, N)


def test_pairing_mixed_weights_vanish(engine, model):
    v = engine.q(2, model.point(), vacuum())
    w = engine.q(1, model.unit(), vacuum())
    assert pairing(v, w, model) == 0


def test_integrate_hilb(engine, model):
    assert integrate_hilb(engine.q(1, model.point(), vacuum()), 1, model) == 1
    assert integrate_hilb(engine.q(2, model.point(), vacuum()), 2, model) == 0
    v = engine.q(1, model.point(), engine.q(1, model.point(), vacuum()))
    assert integrate_hilb(v, 2, model) == 1
    assert integrate_hilb(v, 1, model) == 0
    with pytest.raises(ValueError, match="n must be nonnegative"):
        integrate_hilb(v, -1, model)


def test_integrate_hilb_equals_fundamental_pairing(engine_b2, model_b2):
    # against q_1(1)^n / n! applied to the vacuum
    from math import factorial

    rng = random.Random(5)
    basis = monomials(model_b2, 3)
    for _ in range(6):
        v = _random_vector(basis, rng)
        for n in range(4):
            fund = vacuum()
            for _ in range(n):
                fund = engine_b2.q(1, model_b2.unit(), fund)
            fund = fund.scale(Q(1, factorial(n)))
            assert integrate_hilb(v, n, model_b2) == pairing(
                v, fund, model_b2
            )


def test_bidegree_bookkeeping(model):
    M = ((3, "h"), (1, "pt"))
    assert mono_weight(M) == 4
    assert mono_degree(M, model) == (2 * 3 - 2 + 2) + (2 * 1 - 2 + 4)


def test_dimension_small_values(model):
    assert dimension(0, 0, model) == 1
    assert dimension(1, 0, model) == 1
    assert dimension(1, 2, model) == 2
    assert dimension(1, 4, model) == 1
    assert dimension(2, 0, model) == 1
    assert dimension(1, 1, model) == 0


def test_dimension_matches_product_series(model, model_b2):
    for m in (model, model_b2):
        table = betti_product(4, m.e)
        for n in range(5):
            for i in range(0, 4 * n + 1):
                assert dimension(n, i, m) == table.get((n, i), 0)


def test_vector_arithmetic(engine, model):
    v = engine.q(1, model.h_class(), vacuum())
    w = engine.q(1, model.point(), vacuum())
    assert (v + w) - v == w
    assert v.scale(0).is_zero()
    assert (-v) + v == FockVector()
    assert render_vector(v + w.scale(-2)) == "q1[h] - 2*q1[pt]"
