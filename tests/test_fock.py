import random
from fractions import Fraction as Q

from hilbfock import annihilate, create, dimension, integrate_hilb, pairing, vacuum
from hilbfock.fock import (
    FockVector,
    mono_degree,
    mono_insert,
    mono_weight,
    q_op,
    render_monomial,
    render_vector,
)
from hilbfock.verify import betti_product, random_vector


def test_canonical_monomial_order(model):
    v = create(2, model.h_class(), create(1, model.point(), vacuum(), model), model)
    assert list(v.terms) == [((2, "h"), (1, "pt"))]
    # same factors in the other application order give the same monomial
    w = create(1, model.point(), create(2, model.h_class(), vacuum(), model), model)
    assert v == w


def test_symbol_order_within_equal_index(model_b2):
    M = ()
    for sym in ("pt", "u1", "1", "k", "h"):
        M = mono_insert(M, 1, sym)
    assert M == ((1, "1"), (1, "h"), (1, "k"), (1, "u1"), (1, "pt"))


def test_render_monomial():
    assert render_monomial(((3, "h"), (1, "pt"))) == "q3[h]*q1[pt]"
    assert render_monomial(()) == "1"


def test_annihilation_contraction(model):
    # q_{-n}(a) removes a factor q_n(b) with coefficient -n (a.b)
    v = create(2, model.h_class(), vacuum(), model)
    got = annihilate(2, model.h_class(), v, model)
    assert got == vacuum().scale(-2 * model.d)
    assert annihilate(1, model.h_class(), v, model).is_zero()


def test_annihilation_counts_multiplicity(model):
    v = create(1, model.unit(), create(1, model.unit(), vacuum(), model), model)
    got = annihilate(1, model.point(), v, model)
    assert got == create(1, model.unit(), vacuum(), model).scale(-2)


def test_vacuum_killed_by_annihilation(model):
    assert annihilate(3, model.point(), vacuum(), model).is_zero()
    assert q_op(0, model.unit(), vacuum(), model).is_zero()


def test_pairing_sign_normalization(model):
    for n in range(1, 9):
        v = create(n, model.point(), vacuum(), model)
        w = create(n, model.unit(), vacuum(), model)
        assert pairing(v, w, model) == Q((-1) ** (n - 1) * n)


def test_pairing_symmetry(model_b2):
    rng = random.Random(11)
    for _ in range(10):
        v = random_vector(model_b2, rng, 4)
        w = random_vector(model_b2, rng, 4)
        assert pairing(v, w, model_b2) == pairing(w, v, model_b2)


def test_pairing_mixed_weights_vanish(model):
    v = create(2, model.point(), vacuum(), model)
    w = create(1, model.unit(), vacuum(), model)
    assert pairing(v, w, model) == 0


def test_integrate_hilb(model):
    assert integrate_hilb(create(1, model.point(), vacuum(), model), 1, model) == 1
    assert integrate_hilb(create(2, model.point(), vacuum(), model), 2, model) == 0
    v = create(1, model.point(), create(1, model.point(), vacuum(), model), model)
    assert integrate_hilb(v, 2, model) == 1
    assert integrate_hilb(v, 1, model) == 0


def test_integrate_hilb_equals_fundamental_pairing(model_b2):
    # against q_1(1)^n / n! applied to the vacuum
    from math import factorial

    rng = random.Random(5)
    for _ in range(6):
        v = random_vector(model_b2, rng, 3)
        for n in range(4):
            fund = vacuum()
            for _ in range(n):
                fund = create(1, model_b2.unit(), fund, model_b2)
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


def test_vector_arithmetic(model):
    v = create(1, model.h_class(), vacuum(), model)
    w = create(1, model.point(), vacuum(), model)
    assert (v + w) - v == w
    assert v.scale(0).is_zero()
    assert (-v) + v == FockVector()
    assert render_vector(v + w.scale(-2)) == "q1[h] - 2*q1[pt]"
