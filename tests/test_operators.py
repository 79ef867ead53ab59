import random
from fractions import Fraction as Q
from functools import partial
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import CohClass, KClassSpec, new_model, vacuum
from hilbfock.fock import (
    FockVector,
    mono_degree,
    mono_weight,
    monomials,
)
from hilbfock.operators import OperatorEngine, gen_binomial
from hilbfock.verify import (
    random_vector,
    suite_derivative,
    suite_e_op,
    suite_vertex_integral,
    suite_virasoro,
)


def q1_power(engine, a, n):
    v = vacuum()
    for _ in range(n):
        v = engine.q(1, a, v)
    return v


def test_boundary_kills_vacuum_and_weight_one(engine, model):
    assert engine.boundary(vacuum()).is_zero()
    assert engine.boundary(engine.q(1, model.h_class(), vacuum())).is_zero()


def test_boundary_of_q1_squared(engine, model):
    v = q1_power(engine, model.unit(), 2).scale(Q(1, 2))
    got = engine.boundary(v)
    assert got == engine.q(2, model.unit(), vacuum()).scale(Q(-1, 2))


def test_boundary_raises_degree_by_two(engine, model):
    from hilbfock.fock import mono_degree, mono_weight

    rng = random.Random(3)
    for _ in range(8):
        v = random_vector(model, rng, 4)
        w = engine.boundary(v)
        for M in w.terms:
            assert any(
                mono_weight(M) == mono_weight(N)
                and mono_degree(M, model) == mono_degree(N, model) + 2
                for N in v.terms
            )


def test_boundary_is_a_derivation(engine, engine_b2):
    # D q_n(s) M = q_n'(s) M + q_n(s) D M, with Lehn's first derivative, on
    # every basis class and monomial of weight <= 4; together with D|0> = 0
    # this determines D on every monomial
    rational = OperatorEngine(new_model(Q(3, 2), Q(1, 3), -2, 1))
    for eng in (engine, engine_b2, rational):
        model = eng.model
        assert eng.boundary(vacuum()).is_zero()
        for M in monomials(model, 4):
            v = FockVector({M: 1})
            dv = eng.boundary(v)
            for n in (1, 2, 3):
                for sym in model.symbols:
                    a = CohClass({sym: 1})
                    got = eng.boundary(eng.q(n, a, v))
                    want = eng.q_derivative(n, 1, a, v) + eng.q(n, a, dv)
                    assert got == want, (model, M, n, sym)


def _pair_sum(eng, m, a, v, keep):
    # 1/2 sum over ordered (nu, m - nu), both nonzero, of the normal-ordered
    # q_nu q_(m-nu) applied to delta(a): the lower index acts first; indices
    # below -wt(v) annihilate v
    w = max(mono_weight(M) for M in v.terms)
    out = FockVector()
    for left, right in eng.model.diagonal(a):
        for nu in range(-w, m + w + 1):
            mu = m - nu
            if nu and mu and keep(nu, mu):
                if nu < mu:
                    t = eng.q(mu, right, eng.q(nu, left, v))
                else:
                    t = eng.q(nu, left, eng.q(mu, right, v))
                out = out + t.scale(Q(1, 2))
    return out


def test_virasoro_creation_part_on_vacuum(engine, engine_b2, model):
    # L_2(a) vacuum = 1/2 sum q_1 q_1 delta(a) vacuum
    a = model.unit()
    got = engine.virasoro(2, a, vacuum())
    want = FockVector()
    for left, right in model.diagonal(a):
        want = want + engine.q(1, left, engine.q(1, right, vacuum())).scale(
            Q(1, 2)
        )
    assert got == want
    # the definition L_m(a) = 1/2 sum_nu :q_nu q_(m-nu):(delta_* a), and e_n
    # as minus its pairs that hold an annihilator, on every basis class and
    # basis monomial
    rational = OperatorEngine(new_model(Q(3, 2), Q(1, 3), -2, 1))
    for eng, w in ((engine, 3), (engine_b2, 2), (rational, 2)):
        for M in monomials(eng.model, w):
            v = FockVector({M: 1})
            for sym in eng.model.symbols:
                a = CohClass({sym: 1})
                for m in range(-3, 4):
                    want = _pair_sum(eng, m, a, v, lambda nu, mu: True)
                    assert eng.virasoro(m, a, v) == want, (eng.model, M, sym, m)
                for n in range(4):
                    want = -_pair_sum(eng, n, a, v, lambda nu, mu: min(nu, mu) < 0)
                    assert eng.e_op(n, a, v) == want, (eng.model, M, sym, n)


def test_virasoro_weight_operator(engine, model):
    # L_0(1) is weight times identity on monomials, up to the pairing twist
    v = engine.q(3, model.h_class(), vacuum())
    got = engine.virasoro(0, model.unit(), v)
    assert got == v.scale(-3)


def test_virasoro_annihilates_vacuum_for_index_one(engine, model):
    # the creation sum is empty for n=1 and the annihilators kill the vacuum
    assert engine.virasoro(1, model.unit(), vacuum()).is_zero()
    assert engine.virasoro(-1, model.point(), vacuum()).is_zero()
    assert engine.virasoro(0, model.unit(), vacuum()).is_zero()


def test_virasoro_suite_small():
    r = suite_virasoro(max_n=2, max_weight=3, model_params=((1, 0, -1, 0),))
    assert r["pass"], r["counterexample"]


def test_derivative_of_q1_on_q1(engine, model):
    # q_1'(x) q_1(y) vacuum = -q_2(xy) vacuum
    for x, y in [("h", "h"), ("1", "pt"), ("h", "k")]:
        cx, cy = CohClass({x: 1}), CohClass({y: 1})
        got = engine.q_derivative(1, 1, cx, engine.q(1, cy, vacuum()))
        want = -engine.q(2, model.mul(cx, cy), vacuum())
        assert got == want, (x, y)


def test_derivative_of_vacuum_vanishes(engine, model):
    for nu in (1, 2, 3):
        assert engine.q_derivative(1, nu, model.h_class(), vacuum()).is_zero()


def test_second_derivative_recursion(engine, engine_b2):
    # the definition q_n^(nu+1) v = D q_n^(nu) v - q_n^(nu) D v, from Lehn's
    # first derivative up, on every basis class and monomial of weight
    # w <= 3; nu runs past 2w + n + 1, the last order that can be nonzero
    for eng in (engine, engine_b2):
        model = eng.model
        for M in monomials(model, 3):
            v = FockVector({M: 1})
            dv = eng.boundary(v)
            for n in (-2, -1, 1, 2, 3):
                for sym in model.symbols:
                    a = CohClass({sym: 1})
                    cur = eng.q_derivative(n, 1, a, v)
                    for nu in range(1, 2 * mono_weight(M) + n + 3):
                        prev, cur = cur, eng.q_derivative(n, nu + 1, a, v)
                        want = eng.boundary(prev) - eng.q_derivative(n, nu, a, dv)
                        assert cur == want, (model, M, n, sym, nu)


def test_derivative_bracket_suite_small():
    r = suite_derivative(
        max_n=2, max_weight=3, sample=10, model_params=((1, 0, -1, 0),)
    )
    assert r["pass"], r["counterexample"]


def test_e_op_examples(engine, model):
    a = model.unit()
    b = model.point()
    # [e_2(a), q_{-1}(b)] vanishes on q_1(c) vacuum for -2 <= m=-1 < 0
    for c in ("1", "h", "pt"):
        v = engine.q(1, CohClass({c: 1}), vacuum())
        lhs = engine.e_op(2, a, engine.q(-1, b, v)) - engine.q(
            -1, b, engine.e_op(2, a, v)
        )
        assert lhs.is_zero()


def test_e_op_suite_small():
    r = suite_e_op(max_weight=3, model_params=((1, 0, -1, 0),))
    assert r["pass"], r["counterexample"]


def test_chern_operator_of_line_bundle(engine, model):
    # the total Chern class operator of a line bundle L is
    # q_1(c(L)) + q_1'(1)
    L = KClassSpec.line_bundle(model.h_class())
    rng = random.Random(17)
    for _ in range(5):
        v = random_vector(model, rng, 3)
        got = engine.big_c_apply(L, v)
        want = (
            engine.q(1, L.total_chern(model), v)
            + engine.q_derivative(1, 1, model.unit(), v)
        )
        assert got == want


def _degree_part(v, d, model):
    return FockVector(
        {M: c for M, c in v.terms.items() if mono_degree(M, model) == d}
    )


def test_chern_operator_degree_part(engine, engine_b2):
    # big_c_apply(u, v, d) is the degree-d part of big_c_apply(u, v)
    for eng in (engine, engine_b2):
        model = eng.model
        line = KClassSpec.line_bundle(model.h_class() - model.canonical_class())
        rank2 = KClassSpec(
            2, model.h_class() - model.canonical_class(), model.point().scale(Q(1, 2))
        )
        rng = random.Random(29)
        for u in (line, rank2):
            for w in (1, 2, 3):
                v = random_vector(model, rng, w, n_terms=6)
                full = eng.big_c_apply(u, v)
                for d in range(-1, 4 * (w + 1) + 3):
                    want = _degree_part(full, d, model)
                    assert eng.big_c_apply(u, v, d) == want, (model, u, w, d)


_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _k_class(data, model):
    middle = [s for s in model.symbols if model.degree[s] == 2]
    c1 = CohClass({s: data.draw(_rats) for s in middle})
    return KClassSpec(
        data.draw(st.integers(-3, 3)), c1, CohClass({"pt": data.draw(_rats)})
    )


def _vector(data, model, max_weight):
    basis = monomials(model, max_weight)
    terms = data.draw(
        st.dictionaries(
            st.sampled_from(basis), _rats.filter(bool), min_size=1, max_size=4
        )
    )
    # q_1(1)^w has degree 0, the only monomial of weight w on which
    # ad^nu(q_1(1)) survives up to the largest nu = 2(w + 1)
    w = data.draw(st.integers(1, max_weight))
    terms[((1, "1"),) * w] = data.draw(_rats.filter(bool))
    return FockVector(terms)


def _ad_expansion(engine, b, c, v, nu_max):
    # sum over nu <= nu_max of b(nu) * q_1^(nu)(c) v, one derivative at a time
    out = FockVector()
    for nu in range(nu_max + 1):
        out = out + engine.q_derivative(1, nu, c, v).scale(b(nu))
    return out


# ad^nu(q_1(c)) raises the degree by 2*nu and a weight-4 vector has degree
# at most 16, so nu <= 8 exhausts the expansion on weight <= 3; nu runs one
# further so that the oracle does not share the kernel's stopping rule.
NU_MAX = 9


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_chern_operator_is_its_derivative_expansion(engine, engine_b2, data):
    eng = data.draw(st.sampled_from((engine, engine_b2)))
    model = eng.model
    u = _k_class(data, model)
    v = _vector(data, model, 3)
    want = FockVector()
    for k, c in enumerate((model.unit(), u.c1, u.c2)):
        b = partial(gen_binomial, u.rank - k)
        want = want + _ad_expansion(eng, b, c, v, NU_MAX)
    assert eng.big_c_apply(u, v) == want


@pytest.mark.parametrize("which", ["model", "model_b2"])
def test_chern_character_is_its_derivative_expansion(request, which):
    # peel q_1(1)^n / n!: g_j = q_1(1) g_(j-1) + sum_nu ad^nu(q_1(ch)) / nu!
    # applied to q_1(1)^(j-1) vacuum
    model = request.getfixturevalue(which)
    eng = request.getfixturevalue(which.replace("model", "engine"))
    u = KClassSpec(-2, model.h_class() - model.canonical_class(), model.point())
    ch = u.chern_character(model)
    g, w = FockVector(), vacuum()
    for n in range(1, 4):
        g = eng.q(1, model.unit(), g) + _ad_expansion(
            eng, lambda nu: Q(1, factorial(nu)), ch, w, NU_MAX
        )
        w = eng.q(1, model.unit(), w)
        assert eng.chern_char_class(u, n) == g.scale(Q(1, factorial(n)))


def test_total_chern_weight_zero_and_one(engine, model):
    L = KClassSpec.line_bundle(model.h_class())
    comps = engine.total_chern_classes(L, 2)
    assert comps[0] == vacuum()
    # c(L^[1]) = q_1(1 + c_1(L))
    assert comps[1] == engine.q(1, L.total_chern(model), vacuum())


def test_chern_character_weight_one(engine, model):
    u = KClassSpec(2, model.h_class(), CohClass({"pt": 3}))
    got = engine.chern_char_class(u, 1)
    assert got == engine.q(1, u.chern_character(model), vacuum())


def test_chern_character_degree_zero_is_n_rank(engine, model):
    from hilbfock.fock import mono_degree

    u = KClassSpec(3, model.h_class(), CohClass({"pt": 1}))
    for n in (1, 2, 3):
        v = engine.chern_char_class(u, n)
        deg0 = {
            M: c for M, c in v.terms.items() if mono_degree(M, model) == 0
        }
        M0 = ((1, "1"),) * n
        from math import factorial

        assert deg0 == {M0: Q(n * u.rank, factorial(n))}


def test_vertex_components(engine, model):
    gamma = model.h_class()
    comps = engine.vertex(gamma, 3)
    assert comps[0] == vacuum()
    assert comps[1] == engine.q(1, gamma, vacuum())
    want2 = engine.q(1, gamma, engine.q(1, gamma, vacuum())).scale(
        Q(1, 2)
    ) - engine.q(2, gamma, vacuum()).scale(Q(1, 2))
    assert comps[2] == want2


def test_vertex_integral_suite():
    r = suite_vertex_integral(4, model_params=((1, 0, -1, 0), (2, 1, -1, 1)))
    assert r["pass"], r["counterexample"]


def test_line_bundle_chern_matches_vertex(engine, model):
    L = KClassSpec.line_bundle(model.h_class() - model.canonical_class())
    got = engine.total_chern_classes(L, 3)
    want = engine.vertex(L.total_chern(model), 3)
    for n in range(4):
        assert got[n] == want[n]
