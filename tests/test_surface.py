import itertools
from fractions import Fraction as Q

import pytest

from hilbfock import (
    CohClass,
    DegeneratePairing,
    KClassSpec,
    SurfaceModel,
    conjecture_series,
    new_model,
    parse_class,
    segre_series,
)
from hilbfock.surface import render_class

#: Surfaces from their lattices: the names of the degree-2 classes, their
#: Gram matrix, K, and the invariants (d, pi, kappa, e) of the surface with
#: its polarization h, written out rather than read back from the model.
LATTICES = {
    "P2-O1": (("h",), [[1]], {"h": -3}, (1, -3, 9, 3)),
    "P2-O2": (("h",), [[4]], {"h": Q(-3, 2)}, (4, -6, 9, 3)),
    "P1xP1-O12": (("h", "u1"), [[4, 2], [2, 0]], {"h": -1, "u1": -1}, (4, -6, 8, 4)),
    "F1-H": (("h", "u1"), [[1, 0], [0, -1]], {"h": -3, "u1": 1}, (1, -3, 8, 4)),
    "F1-2H-E": (("h", "u1"), [[3, 1], [1, -1]], {"h": Q(-3, 2), "u1": Q(-1, 2)}, (3, -5, 8, 4)),
}


def lattice(name):
    names, gram, K, _ = LATTICES[name]
    return SurfaceModel(names, gram, CohClass(K))


#: P2, whose K is a multiple of h, and F1 with a non-diagonal Gram matrix.
P2, F1 = lattice("P2-O1"), lattice("F1-2H-E")


def test_degenerate_pairing_rejected():
    with pytest.raises(DegeneratePairing):
        new_model(1, 1, 1, 0)
    with pytest.raises(DegeneratePairing):
        new_model(4, 2, 1, 2)
    with pytest.raises(DegeneratePairing):
        SurfaceModel(("h", "u1"), [[2, 2], [2, 2]], CohClass({"u1": 1}))


@pytest.mark.parametrize(
    "names, gram, K",
    [
        (("h", "u1"), [[1, 0]], {}),
        (("h", "u1"), [[1, 0, 0], [0, -1, 0]], {}),
        (("h", "u1"), [[1, 0], [1, -1]], {}),
        (("h", "e1"), [[1, 0], [0, -1]], {}),
        (("h", "h"), [[1, 0], [0, -1]], {}),
        (("h", "u1", "u01"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], {}),
        (("h", "u0"), [[1, 0], [0, -1]], {}),
        (("k", "u1"), [[1, 0], [0, -1]], {"k": 1}),
        (("h", "u1"), [[1, 0], [0, -1]], {"k": 1}),
        (("h", "u1"), [[1, 0], [0, -1]], {"pt": 1}),
    ],
    ids=["short", "not-square", "not-symmetric", "unknown-name", "repeated-name",
         "leading-zero", "u0", "no-h", "K-unknown-symbol", "K-point"],
)
def test_lattice_constructor_refuses_bad_input(names, gram, K):
    with pytest.raises(ValueError) as info:
        SurfaceModel(names, gram, CohClass(K))
    assert not isinstance(info.value, DegeneratePairing)


@pytest.mark.parametrize("name", LATTICES)
def test_lattice_surface_matches_the_closed_form(name):
    # the chain on a lattice model is the closed form (a theorem) at the
    # surface's invariants, and integral; a wrong K row (K = 0 on P2) is
    # the closed form only at its own invariants (1, 0, 0, 3)
    model, invariants = lattice(name), LATTICES[name][3]
    assert (model.d, model.pi, model.kappa, model.e) == invariants
    got = segre_series(8, model)
    want = conjecture_series(*invariants, 8)
    assert got == [want.coefficient(n) for n in range(9)]
    assert all(x.denominator == 1 for x in got)


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
    for m in (model_b2, P2, F1):
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
    for m, e in ((model, 4), (model_b2, 5), (P2, 3), (F1, 4)):
        total = CohClass()
        for left, right in m.diagonal(m.unit()):
            total = total + m.mul(left, right)
        assert total == CohClass({"pt": e})


def test_diagonal_is_symmetric(model_b2):
    for m in (model_b2, P2, F1):
        for sym in m.symbols:
            terms = {}
            for c, s1, s2 in m.delta_triples(sym):
                terms[(s1, s2)] = terms.get((s1, s2), Q(0)) + c
            for (s1, s2), c in terms.items():
                assert terms.get((s2, s1), Q(0)) == c


def test_diagonal_adjointness(model_b2):
    # integral of (a x) y over the pairs equals integral of a x y
    for m in (model_b2, P2, F1):
        for sa, sx, sy in itertools.product(m.symbols, repeat=3):
            a, x, y = CohClass({sa: 1}), CohClass({sx: 1}), CohClass({sy: 1})
            lhs = Q(0)
            for left, right in m.diagonal(a):
                lhs += m.integrate(m.mul(left, x)) * m.integrate(m.mul(right, y))
            assert lhs == m.integrate(m.mul(m.mul(a, x), y))


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


@pytest.mark.parametrize(
    "c1, c2, message",
    [
        ({"1": 1}, {}, "c1 must be a degree-2 class"),
        ({"h": 1, "pt": 2}, {}, "c1 must be a degree-2 class"),
        ({"h": 1}, {"k": 1}, "c2 must be a degree-4 class"),
        ({"h": 1}, {"pt": 1, "1": 1}, "c2 must be a degree-4 class"),
    ],
    ids=["c1-unit", "c1-point", "c2-k", "c2-unit"],
)
def test_kclass_refuses_chern_classes_of_the_wrong_degree(c1, c2, message):
    with pytest.raises(ValueError, match=message):
        KClassSpec(2, CohClass(c1), CohClass(c2))


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
