import gc
import random
import sys
import weakref
from fractions import Fraction as Q
from functools import cache, partial
from itertools import groupby
from math import factorial, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import CohClass, KClassSpec, new_model, operators, vacuum
from hilbfock.fock import (
    FockVector,
    mono_degree,
    mono_insert,
    mono_weight,
    monomials,
)
from hilbfock.linear import axpy
from hilbfock.operators import OperatorEngine, _without, gen_binomial
from hilbfock.segre import minus_polarization
from hilbfock.verify import (
    _random_vector,
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


#: Five models, two of them with rational parameters, with the measured lcm
#: of the denominators of the reduced q, L and q' entries on weight <= 4.
COLUMN_MODELS = (
    ((1, 0, -1, 0), (1, 2, 1)),
    ((2, 1, -1, 1), (1, 6, 3)),
    ((3, 1, 2, 0), (1, 10, 5)),
    ((Q(3, 2), Q(1, 3), -2, 1), (6, 336, 168)),
    ((Q(3, 2), Q(1, 3), -2, 2), (6, 336, 168)),
)


def _q_oracle(model, m, sym, M):
    # the oscillator q_m(sym) on one monomial, in Fractions: for m = -n < 0,
    # removing a factor q_n(s) contributes -n <sym, s>; q_0 is zero
    if m > 0:
        return {mono_insert(M, m, sym): Q(1)}
    out = {}
    for j, (i, s) in enumerate(M):
        c = model.pair_sym(sym, s)
        if i == -m and c:
            M2 = M[:j] + M[j + 1:]
            out[M2] = out.get(M2, 0) + m * c
    return out


def _l_oracle(model, q, m, sym, M):
    # the pairs q_nu(s') q_mu(s'') over delta(sym) with mu <= nu = m - mu,
    # the lower index acting first, weight 1/2 at nu = mu; q(m, s, M) is
    # the oscillator on a monomial
    out = {}
    for c, s1, s2 in model.delta_triples(sym):
        for mu in range(-mono_weight(M), m // 2 + 1):
            nu = m - mu
            if mu and nu:
                for M1, x in q(mu, s2, M).items():
                    axpy(out, q(nu, s1, M1), x * (c / 2 if nu == mu else c))
    return out


def _column(eng, fam, m, sym, M):
    # an id-keyed column of the engine on the monomial M, keyed by monomials
    return {eng._monos[N]: x for N, x in fam[m, sym][eng._ids[M]].items()}


@pytest.mark.parametrize(
    "params,dens", COLUMN_MODELS, ids=[",".join(map(str, p)) for p, _ in COLUMN_MODELS]
)
def test_integer_columns_are_their_definitions(params, dens):
    # q, L and q' columns against oracles that share no code with them, on
    # every basis class, index and monomial of weight <= 4.  The q' columns
    # are [D, q] by their fill, so this tests D against Lehn's rule
    # q' = n L_n + n(|n|-1)/2 q_n(K.a), built from the oracles
    model = new_model(*params)
    eng = OperatorEngine(model)
    K = model.canonical_class()
    q = cache(partial(_q_oracle, model))
    seen = {"q": 1, "L": 1, "q'": 1}

    def check(name, fam, m, sym, M, want):
        # a family's columns are over its own denominator
        den = fam.den
        got = _column(eng, fam, m, sym, M)
        assert got.keys() == want.keys(), (name, params, m, sym, M)
        assert all(type(x) is int for x in got.values()), (name, params, m, sym, M)
        for N, x in got.items():
            # x / den == want[N], in integers
            assert x * want[N].denominator == want[N].numerator * den, (name, params, m, sym, M)
            seen[name] = lcm(seen[name], den // gcd(den, x))

    for M in monomials(model, 4):
        for sym in model.symbols:
            Ka = model.mul(K, CohClass({sym: 1}))
            for m in range(-5, 6):
                check("q", eng._q_cache, m, sym, M, q(m, sym, M))
                want_L = _l_oracle(model, q, m, sym, M)
                check("L", eng._L_cache, m, sym, M, want_L)
                want = {N: m * x for N, x in want_L.items() if m}
                for t, k in Ka.terms.items() if abs(m) > 1 else ():
                    axpy(want, q(m, t, M), Q(m * (abs(m) - 1), 2) * k)
                check("q'", eng._qp_cache, m, sym, M, want)
                e_col = _column(eng, eng._e_cache, m, sym, M)
                assert all(type(x) is int for x in e_col.values())
    assert eng._q_cache.den == eng._qden
    assert eng._L_cache.den == eng._e_cache.den == eng._den * eng._qden**2
    assert eng._qp_cache.den == eng._den * eng._qden
    assert (seen["q"], seen["L"], seen["q'"]) == dens


def _boundary_reference(eng, M):
    """Reference fill: D on a monomial tuple by the cut-and-join formula
    over the engine's integer tables, inserting each image's factors into
    the tuple with ``mono_insert``; same tables as the id-keyed fill."""
    groups = [(f, len(list(copies))) for f, copies in groupby(M)]
    num = {}
    for a, (f, m) in enumerate(groups):
        n, s = f
        rest = _without(M, f)
        w = m * n
        for c, s1, s2 in eng._cut[s]:
            for nu in range(1, n):
                N = mono_insert(mono_insert(rest, nu, s1), n - nu, s2)
                num[N] = num.get(N, 0) + w * c
        if n > 1:
            for c, t in eng._kterm[s]:
                N = mono_insert(rest, n, t)
                num[N] = num.get(N, 0) + w * (n - 1) * c
        joins = [(f, m * (m - 1) // 2)] if m > 1 else []
        joins += [(g, m * m2) for g, m2 in groups[a + 1:]]
        for (n2, s2), pairs in joins:
            rest2 = _without(rest, (n2, s2))
            for c, s1 in eng._join[s, s2]:
                N = mono_insert(rest2, n + n2, s1)
                num[N] = num.get(N, 0) - pairs * n * n2 * c
    return {N: x for N, x in num.items() if x}


def _boundary_mismatch(params, weight):
    # the first monomial of weight <= weight whose id-keyed D column, keyed
    # back by monomials, is not the tuple reference's; None if there is none
    eng = OperatorEngine(new_model(*params))
    for M in monomials(eng.model, weight):
        col = eng._b_cache[eng._ids[M]]
        if {eng._monos[N]: x for N, x in col.items()} != _boundary_reference(eng, M):
            return M
    return None


def test_boundary_columns_match_the_tuple_reference():
    # D is filled by the derivation rule from the new-factor column; on
    # every monomial of weight <= 6 of the five column models, two of them
    # rational, it must equal the closed cut-and-join form
    for params, _ in COLUMN_MODELS:
        assert _boundary_mismatch(params, 6) is None, params


def _halved_cut(cut, join, kterm):
    # exact halves as Fractions: the cut numerators of some models are odd
    return {s: [(Q(c, 2), s1, s2) for c, s1, s2 in row] for s, row in cut.items()}, join, kterm


#: Mutants of the three terms of operators._new_factor, as edits of the
#: tables it reads; the engine's own tables, which the D reference reads,
#: stay intact.
NEW_FACTOR_MUTANTS = {
    "no K term": lambda cut, join, kterm: (cut, join, {s: [] for s in kterm}),
    "no join": lambda cut, join, kterm: (cut, {k: [] for k in join}, kterm),
    "half cut": _halved_cut,
}


@pytest.mark.parametrize("mutant", NEW_FACTOR_MUTANTS)
def test_wrong_new_factor_fails(monkeypatch, mutant):
    # Lehn's rule lives only in _new_factor, which fills both D and q'_n,
    # n >= 1: each wrong term is seen by the bracket suite and by the tuple
    # reference of D
    fill = operators._new_factor

    def wrong(ids, monos, ins, cut, join, kterm, *rest):
        return fill(ids, monos, ins, *NEW_FACTOR_MUTANTS[mutant](cut, join, kterm), *rest)

    monkeypatch.setattr(operators, "_new_factor", wrong)
    one = (1, 0, -1, 0)
    report = suite_derivative(max_n=2, max_weight=3, sample=5, model_params=(one,))
    assert report["pass"] is False, mutant
    assert _boundary_mismatch(one, 3) is not None, mutant


def test_creation_columns_are_not_stored():
    # q_m(s), m >= 1, is a relabel formed on lookup, and q'_n(s), n >= 1,
    # is the new-factor column, which reads no D column: after both on every
    # monomial of weight <= 4 the q family holds no column and D none, and
    # the values are the oracles'
    model = new_model(2, 1, -1, 1)
    eng = OperatorEngine(model)
    K = model.canonical_class()
    q = cache(partial(_q_oracle, model))

    def value(fam, m, sym, M):
        return {N: Q(x, fam.den) for N, x in _column(eng, fam, m, sym, M).items()}

    for M in monomials(model, 4):
        for sym in model.symbols:
            Ka = model.mul(K, CohClass({sym: 1}))
            for m in range(1, 6):
                assert value(eng._q_cache, m, sym, M) == q(m, sym, M), (m, sym, M)
                want = {N: m * x for N, x in _l_oracle(model, q, m, sym, M).items()}
                for t, k in Ka.terms.items() if m > 1 else ():
                    axpy(want, q(m, t, M), Q(m * (m - 1), 2) * k)
                assert value(eng._qp_cache, m, sym, M) == want, (m, sym, M)
    assert all(m > 0 for m, _ in eng._q_cache) and len(eng._q_cache) == 0
    assert len(eng._qp_cache) > 0 and len(eng._b_cache) == 0


def test_monomial_table_round_trips():
    # after a chain and every column family: id -> monomial -> id is the
    # identity, no monomial is held twice, the degrees are the monomials'
    # and each insertion table inserts its factor
    model = new_model(2, 1, -1, 1)
    eng = OperatorEngine(model)
    v = eng.total_chern_classes(minus_polarization(model), 4)[3]
    for sym in model.symbols:
        a = CohClass({sym: 1})
        for m in (-2, -1, 2):
            eng.virasoro(m, a, v)
            eng._apply(eng._qp_cache, m, a, v)
            eng.e_op(abs(m), a, v)
    monos = eng._monos
    assert len(eng._ids) == len(monos) == len(set(monos)) == len(eng._degs) > 100
    assert all(eng._ids[M] == i for i, M in enumerate(monos))
    assert len(eng._ids) == len(monos)  # the lookups interned nothing new
    assert eng._degs == [mono_degree(M, model) for M in monos]
    for (m, sym), table in eng._ins.items():
        assert all(monos[j] == mono_insert(monos[i], m, sym) for i, j in table.items())


def test_engine_is_freed_by_reference_counting():
    # the column fills hold the engine's tables, never the engine: with the
    # cycle collector off, an engine with every family filled dies on del
    model = new_model(2, 1, -1, 1)
    gc.disable()
    try:
        eng = OperatorEngine(model)
        v = eng.total_chern_classes(minus_polarization(model), 4)[4]
        a = model.h_class()
        eng.q(-2, a, v)
        eng.virasoro(1, a, v)
        eng.e_op(1, a, v)
        eng._apply(eng._qp_cache, 2, a, v)
        eng.boundary(v)
        families = ("_q_cache", "_L_cache", "_e_cache", "_qp_cache", "_b_cache")
        assert all(len(getattr(eng, f)) for f in families)
        ref, b = weakref.ref(eng), eng._b_cache
        del eng
        assert ref() is None
        # the D fill takes the D table as an argument and holds no reference
        # to it, so b, and getrefcount's argument, are the last references
        assert sys.getrefcount(b) == 2
    finally:
        gc.enable()


def _columns_held(table):
    # a family maps (index, symbol) to a table of columns keyed by id; the
    # D memo maps ids to columns
    if any(isinstance(k, tuple) for k in dict.keys(table)):
        return sum(dict.__len__(t) for t in dict.values(table))
    return dict.__len__(table)


def test_memo_lengths_are_the_columns_held(monkeypatch):
    # a traced benchmark run reports len() of every memo that
    # perfbench/probes.py names as the number of memoized columns
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from probes import MEMOS

    model = new_model(1, 0, -1, 0)
    eng = OperatorEngine(model)
    basis = monomials(model, 3)
    v = FockVector({M: 1 for M in basis})
    eng.boundary(v)
    eng.q(-1, model.h_class(), v)
    lengths = {k: len(getattr(eng, attr)) for k, attr in MEMOS.items()}
    assert lengths == {"q": len(basis), "L": 0, "qp": 0, "b": len(basis), "qd": 0}
    for sym in model.symbols:
        eng.virasoro(-1, CohClass({sym: 1}), v)
        eng._apply(eng._qp_cache, 2, CohClass({sym: 1}), v)
    for k, attr in MEMOS.items():
        table = getattr(eng, attr)
        assert len(table) == _columns_held(table), k
        assert (len(table) > 0) == (k != "qd"), k


def test_truncated_step_stores_no_heavier_column():
    # the degree-d part of a step is formed without memoizing the D columns
    # of weight w + 1 on a vector of weight w; a full step stores them, as
    # the next step reads them
    model = new_model(2, 1, -1, 1)
    eng = OperatorEngine(model)
    u = minus_polarization(model)
    v = eng.total_chern_classes(u, 3)[3]
    full = eng.big_c_apply(u, v)

    def weights():
        return {mono_weight(eng._monos[i]) for i in eng._b_cache}

    assert max(weights()) == 4
    eng = OperatorEngine(model)
    v = eng.total_chern_classes(u, 3)[3]
    for d in range(4, 17, 2):
        assert eng.big_c_apply(u, v, d) == _degree_part(full, d, model)
        assert max(weights()) == 3, d


def test_boundary_kills_vacuum_and_weight_one(engine, model):
    assert engine.boundary(vacuum()).is_zero()
    assert engine.boundary(engine.q(1, model.h_class(), vacuum())).is_zero()


def test_boundary_of_q1_squared(engine, model):
    v = q1_power(engine, model.unit(), 2).scale(Q(1, 2))
    got = engine.boundary(v)
    assert got == engine.q(2, model.unit(), vacuum()).scale(Q(-1, 2))


def test_boundary_raises_degree_by_two(engine, model):
    rng = random.Random(3)
    basis = monomials(model, 4)
    for _ in range(8):
        v = _random_vector(basis, rng)
        w = engine.boundary(v)
        for M in w.terms:
            assert any(
                mono_weight(M) == mono_weight(N)
                and mono_degree(M, model) == mono_degree(N, model) + 2
                for N in v.terms
            )


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


def test_virasoro_creation_part_on_vacuum(engine, engine_b2, engine_rational, model):
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
    for eng, w in ((engine, 3), (engine_b2, 2), (engine_rational, 2)):
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


def _all_orders(eng, n, a, v):
    # the sum over every order nu of q_n^(nu)(a) v, from one kernel call
    return eng._out(eng._ad_series(n, [(lambda nu: 1, a.terms)], eng._in(v)))


def test_second_derivative_recursion(engine, engine_b2, engine_rational):
    # the definition q_n^(nu+1) v = D q_n^(nu) v - q_n^(nu) D v for every
    # order at once, on every basis class and monomial of weight w <= 3:
    # with S(v) the sum over all nu of q_n^(nu)(a) v (_all_orders), it
    # reads D S(v) - S(D v) = S(v) - q_n(a) v.  Order nu lands in degree
    # deg v + 2(n + nu - 1) + deg a, so this is the recursion order by order,
    # and it holds only if the kernel's sum stops past the last nonzero
    # order.  The order-1 parts of S(v) and S(D v) must be the q' columns.
    # The rational model has _qden = 6, which the other two do not test
    for eng in (engine, engine_b2, engine_rational):
        model = eng.model
        for M in monomials(model, 3):
            v = FockVector({M: 1})
            dv = eng.boundary(v)
            for n in (-2, -1, 1, 2, 3):
                for sym in model.symbols:
                    a = CohClass({sym: 1})
                    s_v, s_dv = _all_orders(eng, n, a, v), _all_orders(eng, n, a, dv)
                    where = (model, M, n, sym)
                    assert eng.boundary(s_v) - s_dv == s_v - eng.q(n, a, v), where
                    d1 = mono_degree(M, model) + 2 * n + model.degree[sym]
                    qp = partial(eng._apply, eng._qp_cache, n, a)
                    assert _degree_part(s_v, d1, model) == qp(v), where
                    assert _degree_part(s_dv, d1 + 2, model) == qp(dv), where


def test_derivative_orders_0_and_1_are_the_q_and_q_prime_columns(
    engine, engine_b2, engine_rational
):
    # q_derivative is one kernel pass at every order, so at orders 0 and 1
    # it derives apart from the q columns and the memoized q' columns that
    # suite_derivative reads: on every basis class times 2/3, n = -3..3 and
    # 40 monomials of weight <= 3 the two must agree
    rng = random.Random(25)
    for eng in (engine, engine_b2, engine_rational):
        model = eng.model
        for M in rng.sample(monomials(model, 3), 40):
            v = FockVector({M: 1})
            for n in range(-3, 4):
                for sym in model.symbols:
                    a, where = CohClass({sym: Q(2, 3)}), (model, M, n, sym)
                    assert eng.q_derivative(n, 0, a, v) == eng.q(n, a, v), where
                    qp = eng._apply(eng._qp_cache, n, a, v)
                    assert eng.q_derivative(n, 1, a, v) == qp, where


def test_derivative_order_edges(engine, engine_b2):
    # a negative order is refused; on q_1(1)^w ad^nu(q_1(1)) survives up to
    # nu = 2w + 2 = 2w + n + 1 and vanishes past it, where the kernel's
    # one-entry series is all zero
    with pytest.raises(ValueError):
        engine.q_derivative(1, -1, engine.model.unit(), vacuum())
    for eng in (engine, engine_b2):
        unit = eng.model.unit()
        for w in (1, 2, 3):
            v = q1_power(eng, unit, w)
            assert not eng.q_derivative(1, 2 * w + 2, unit, v).is_zero(), w
            for order in (2 * w + 3, 2 * w + 4):
                assert eng.q_derivative(1, order, unit, v).is_zero(), (w, order)


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
    basis = monomials(model, 3)
    for _ in range(5):
        v = _random_vector(basis, rng)
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


def test_chern_operator_degree_part(engine, engine_b2, engine_rational):
    # big_c_apply(u, v, d) is the degree-d part of big_c_apply(u, v)
    for eng in (engine, engine_b2, engine_rational):
        model = eng.model
        line = KClassSpec.line_bundle(model.h_class() - model.canonical_class())
        rank2 = KClassSpec(
            2, model.h_class() - model.canonical_class(), model.point().scale(Q(1, 2))
        )
        rng = random.Random(29)
        for u in (line, rank2):
            for w in (1, 2, 3):
                v = _random_vector(monomials(model, w), rng, n_terms=6)
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
