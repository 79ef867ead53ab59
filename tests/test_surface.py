from fractions import Fraction as Q

import pytest

from hilbfock import CohClass, DegeneratePairing, KClassSpec, new_model, parse_class
from hilbfock.surface import render_class


def test_degenerate_pairing_rejected():
    with pytest.raises(DegeneratePairing):
        new_model(1, 1, 1, 0)
    with pytest.raises(DegeneratePairing):
        new_model(4, 2, 1, 2)


def test_basic_products(model):
    h = model.h_class()
    k = model.canonical_class()
    pt = model.point()
    assert model.mul(h, h) == CohClass({"pt": model.d})
    assert model.mul(h, k) == CohClass({"pt": model.pi})
    assert model.mul(k, k) == CohClass({"pt": model.kappa})
    assert model.mul(pt, h).is_zero()
    assert model.mul(pt, pt).is_zero()
    assert model.mul(model.unit(), h) == h


def test_extra_classes_square_to_point(model_b2):
    u1 = CohClass({"u1": 1})
    assert model_b2.mul(u1, u1) == model_b2.point()
    assert model_b2.mul(u1, model_b2.h_class()).is_zero()
    assert model_b2.e == 5


def test_multiplication_is_associative_and_commutative(model_b2):
    syms = model_b2.symbols
    for a in syms:
        for b in syms:
            ca, cb = CohClass({a: 1}), CohClass({b: 1})
            assert model_b2.mul(ca, cb) == model_b2.mul(cb, ca)
            for c in syms:
                cc = CohClass({c: 1})
                lhs = model_b2.mul(model_b2.mul(ca, cb), cc)
                rhs = model_b2.mul(ca, model_b2.mul(cb, cc))
                assert lhs == rhs


def test_integration(model):
    assert model.integrate(model.point()) == 1
    assert model.integrate(model.h_class()) == 0
    assert model.integrate(CohClass({"pt": Q(3, 2)})) == Q(3, 2)


def test_dual_basis_reproduces(model_b2):
    # x equals the sum over basis symbols b of (x . dual(b)) b
    m = model_b2
    for sym in m.symbols:
        x = CohClass({sym: 1})
        recon = CohClass()
        for b in m.symbols:
            c = m.pair(x, m.dual_basis(b))
            recon = recon + CohClass({b: c})
        assert recon == x


def test_diagonal_of_unit(model):
    # for d=1, pi=0, kappa=-1: 1 x pt + pt x 1 + h x h - k x k
    got = {}
    for left, right in model.diagonal(model.unit()):
        for s1, c1 in left.terms.items():
            for s2, c2 in right.terms.items():
                got[(s1, s2)] = got.get((s1, s2), Q(0)) + c1 * c2
    assert got == {
        ("1", "pt"): Q(1),
        ("pt", "1"): Q(1),
        ("h", "h"): Q(1),
        ("k", "k"): Q(-1),
    }


def test_cup_of_diagonal_is_euler_number(model, model_b2):
    for m in (model, model_b2):
        total = CohClass()
        for left, right in m.diagonal(m.unit()):
            total = total + m.mul(left, right)
        assert total == CohClass({"pt": m.e})


def test_diagonal_is_symmetric(model_b2):
    m = model_b2
    for sym in m.symbols:
        terms = {}
        for c, s1, s2 in m.delta_triples(sym):
            terms[(s1, s2)] = terms.get((s1, s2), Q(0)) + c
        for (s1, s2), c in terms.items():
            assert terms.get((s2, s1), Q(0)) == c


def test_diagonal_adjointness(model_b2):
    # integral of (a x) y over the pairs equals integral of a x y
    m = model_b2
    for sa in m.symbols:
        a = CohClass({sa: 1})
        for sx in m.symbols:
            for sy in m.symbols:
                x, y = CohClass({sx: 1}), CohClass({sy: 1})
                lhs = Q(0)
                for left, right in m.diagonal(a):
                    lhs += m.integrate(m.mul(left, x)) * m.integrate(
                        m.mul(right, y)
                    )
                rhs = m.integrate(m.mul(m.mul(a, x), y))
                assert lhs == rhs


def test_chern_data_of_minus_polarization(model):
    u = KClassSpec.line_bundle(model.h_class()).negate(model)
    c, ch = u.total_chern(model), u.chern_character(model)
    assert u.rank == -1
    assert c == CohClass({"1": 1, "h": -1, "pt": model.d})
    assert ch == CohClass({"1": -1, "h": -1, "pt": -model.d / 2})


def test_chern_character_of_line_bundle(model):
    L = KClassSpec.line_bundle(model.h_class())
    ch = L.chern_character(model)
    assert ch == CohClass({"1": 1, "h": 1, "pt": Q(model.d, 2)})


def test_kclass_sum_whitney(model):
    L1 = KClassSpec.line_bundle(model.h_class())
    L2 = KClassSpec.line_bundle(model.canonical_class())
    s = L1.add(model, L2)
    assert s.rank == 2
    assert s.c1 == model.h_class() + model.canonical_class()
    assert s.c2 == CohClass({"pt": model.pi})
    assert s.chern_character(model) == L1.chern_character(model) + L2.chern_character(model)


def test_parse_and_render_class(model):
    c = parse_class("2h-k", model)
    assert c == CohClass({"h": 2, "k": -1})
    assert render_class(c) == "2*h-k"
    assert parse_class("1-h+1/2*pt", model) == CohClass(
        {"1": 1, "h": -1, "pt": Q(1, 2)}
    )
    with pytest.raises(ValueError):
        parse_class("u1", model)  # not a symbol of this model
    # a * needs a coefficient before it and a symbol after it
    for text in ["h+2*", "2*", "h+*k"]:
        with pytest.raises(ValueError, match="malformed"):
            parse_class(text, model)


def test_parse_class_needs_a_sign_between_terms(model_b2):
    # juxtaposed terms are malformed, not summed
    for text in ["hk", "2h3k", "2 3", "u1u1", "h -k pt", "2 1", "0 1", "1/2 1", "h+3 1"]:
        with pytest.raises(ValueError, match="malformed"):
            parse_class(text, model_b2)
    # the symbol 1 after a coefficient needs a *
    assert parse_class("21", model_b2) == CohClass({"1": 21})
    assert parse_class("2 * 1-1", model_b2) == CohClass({"1": 1})
    assert parse_class("2h + 3k - u1", model_b2) == CohClass({"h": 2, "k": 3, "u1": -1})
