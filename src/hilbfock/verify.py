"""Verification suites for the operator calculus, shared between the
command line interface and the acceptance tests.

Each suite is a generator of cases ``(lhs, rhs, counterexample)`` for one
family of identities in exact arithmetic, and :func:`_suite` turns it into
a function that returns the report of :func:`_run`.  The runner counts
every case it evaluates as one check and stops at the first case with
``lhs != rhs``.  The report gives the suite name, the number of checks, a
pass flag and the counterexample dict of that case (None if there is
none).  A suite that made no check does not pass.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import wraps
from itertools import product
from math import comb, factorial, lcm
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

from . import affine, fock
from .fock import FockVector, mono_degree, mono_weight, pairing, vacuum
from .linear import int_apply, int_vec
from .operators import OperatorEngine
from .segre import (
    Sampler,
    UnivPoly,
    _alpha_class,
    minus_polarization,
    segre_polynomial,
)
from .surface import CohClass, KClassSpec, new_model

Q = Fraction

DEFAULT_MODELS: Tuple[Tuple[int, int, int, int], ...] = (
    (1, 0, -1, 0),
    (2, 1, -1, 1),
)

Case = Tuple[object, object, dict]


class UnknownSuite(ValueError):
    """The requested verification suite does not exist."""


def _run(name: str, cases: Iterable[Case]) -> dict:
    """Count and compare the cases of one suite; stop at the first mismatch."""
    checks = 0
    counterexample = None
    for lhs, rhs, where in cases:
        checks += 1
        if lhs != rhs:
            counterexample = where
            break
    return {
        "suite": name,
        "checks": checks,
        "pass": counterexample is None and checks > 0,
        "counterexample": counterexample,
    }


def _suite(name: str):
    """Turn a generator of cases into a suite that returns its report; the
    suite keeps the generator's name, docstring and parameters."""

    def decorate(cases: Callable[..., Iterator[Case]]) -> Callable[..., dict]:
        @wraps(cases)
        def suite(*args, **kwargs) -> dict:
            return _run(name, cases(*args, **kwargs))

        return suite

    return decorate


def _engines(model_params):
    for mp in model_params:
        model = new_model(*mp)
        yield mp, model, OperatorEngine(model)


def _random_vector(basis, rng, n_terms=3) -> FockVector:
    """A sum of ``n_terms`` random rational multiples of monomials drawn
    from ``basis``."""
    data = {}
    for _ in range(n_terms):
        M = rng.choice(basis)
        c = Q(rng.randint(-5, 5), rng.randint(1, 4))
        if c:
            data[M] = data.get(M, Q(0)) + c
    return FockVector(data)


def _unit_vectors(basis, fields) -> Iterator[Tuple[Dict, dict]]:
    for M in basis:
        yield {M: 1}, dict(fields, monomial=list(M))


def _columns(eng: OperatorEngine) -> Dict[str, Tuple[Dict, int]]:
    """The engine's column families ``(fam, den)``: ``fam[n, sym][i]`` is
    the image of the monomial of id i as integer numerators over ``den``,
    keyed by monomial ids."""
    return {
        "q": (eng._q_cache, eng._qden),
        "L": (eng._L_cache, eng._Lden),
        "e": (eng._e_cache, eng._Lden),
        "q'": (eng._qp_cache, eng._Lden),
    }


def _bracket(eng, vectors, A, B, ns, ms, rhs) -> Iterator[Case]:
    """Cases of ``[A_n(a), B_m(b)] v = x B_(n+m)(ab) v + y v`` for n in ns
    and m in ms, where a and b run over the basis classes of the engine's
    model, ab is their product and ``(x, y) = rhs(n, m, ab)`` are
    rationals.  A and B are column families ``(fam, den)`` of ``eng``
    (see :func:`_columns`).

    ``vectors`` yields pairs ``(v, fields)`` with v a dict of integer
    coefficients keyed by monomials, which is interned once into the
    engine's monomial ids; the identity is linear in v, so this covers
    every rational multiple of v.  A case is the residual, left side minus
    right side, as integer numerators over one common denominator, and
    holds when every numerator is zero; a counterexample is ``fields`` with
    n, m, a and b added.  Each A_n(a) v and B_m(b) v is computed once per
    vector.
    """
    (a_fam, a_den), (b_fam, b_den) = A, B
    model, ids = eng.model, eng._ids
    syms = model.symbols
    # per case (n, m, a, b): the residual times a common denominator is
    # f [A, B] v - sum of f_s B_(n+m)(s) v - f_id v, all integers
    plan = []
    for n, m, sa, sb in product(ns, ms, syms, syms):
        ab = model.mul(CohClass({sa: 1}), CohClass({sb: 1}))
        x, y = rhs(n, m, ab)
        terms = [(Q(x) * c / b_den, s) for s, c in ab.terms.items()]
        den = lcm(a_den * b_den, Q(y).denominator, *(t.denominator for t, _ in terms))
        f_s = [(int(t * den), s) for t, s in terms if t]
        plan.append((n, m, sa, sb, den // (a_den * b_den), f_s, int(y * den)))
    for v, fields in vectors:
        v = {ids[M]: c for M, c in v.items()}
        Av = {(n, sa): int_apply({}, a_fam[n, sa].__getitem__, v) for n in ns for sa in syms}
        Bv = {(m, sb): int_apply({}, b_fam[m, sb].__getitem__, v) for m in ms for sb in syms}
        for n, m, sa, sb, f, f_s, f_id in plan:
            res = int_apply({}, a_fam[n, sa].__getitem__, Bv[m, sb], f)
            int_apply(res, b_fam[m, sb].__getitem__, Av[n, sa], -f)
            for fb, s in f_s:
                int_apply(res, b_fam[n + m, s].__getitem__, v, -fb)
            if f_id:
                for i, c in v.items():
                    res[i] = res.get(i, 0) - f_id * c
            yield any(res.values()), False, dict(fields, n=n, m=m, a=sa, b=sb)


# -- oscillator commutation relations --------------------------------------

@_suite("oscillator")
def suite_oscillator(
    max_n: int = 4,
    seed: int = 1,
    n_vectors: int = 200,
    max_weight: int = 6,
    model_params=DEFAULT_MODELS,
) -> Iterator[Case]:
    """[q_n(a), q_m(b)] = n delta_{n+m,0} (a.b) id, on random vectors."""
    idx = [i for i in range(-max_n, max_n + 1) if i != 0]
    for mp, model, eng in _engines(model_params):
        rng = random.Random(seed)
        basis = fock.monomials(model, max_weight)
        vectors = [_random_vector(basis, rng) for _ in range(n_vectors)]

        def rhs(n, m, ab):
            return 0, n * model.integrate(ab) if n + m == 0 else 0

        q = _columns(eng)["q"]
        vs = [(int_vec(v.terms)[0], {"model": mp}) for v in vectors]
        yield from _bracket(eng, vs, q, q, idx, idx, rhs)
        # q_0 vanishes identically, here on the last basis vector
        z = eng.q(0, model.unit(), FockVector({basis[-1]: 1}))
        yield z, FockVector(), {"model": mp, "n": 0}


# -- graded pairing --------------------------------------------------------

@_suite("pairing")
def suite_pairing(
    n_max: int = 8, max_weight: int = 4, seed: int = 2,
    model_params=DEFAULT_MODELS,
) -> Iterator[Case]:
    """Sign normalization and adjointness of the pairing."""
    for mp, model, eng in _engines(model_params):
        one = model.unit()
        pt = model.point()
        for n in range(1, n_max + 1):
            got = pairing(
                eng.q(n, pt, vacuum()), eng.q(n, one, vacuum()), model
            )
            want = Q((-1) ** (n - 1) * n)
            yield got, want, {"model": mp, "n": n, "got": str(got)}
        # adjointness: <q_n(a) v, w> = (-1)^n <v, q_{-n}(a) w>
        rng = random.Random(seed)
        basis_v = fock.monomials(model, max_weight)
        basis_w = fock.monomials(model, max_weight + 1)
        for _ in range(10):
            v = _random_vector(basis_v, rng)
            w = _random_vector(basis_w, rng)
            for n in (1, 2, 3):
                for sym in model.symbols:
                    a = CohClass({sym: 1})
                    lhs = pairing(eng.q(n, a, v), w, model)
                    rhs = Q(-1) ** n * pairing(v, eng.q(-n, a, w), model)
                    yield lhs, rhs, {"model": mp, "n": n, "a": sym}


# -- Virasoro relations ----------------------------------------------------

@_suite("virasoro")
def suite_virasoro(
    max_n: int = 2, max_weight: int = 4, model_params=DEFAULT_MODELS
) -> Iterator[Case]:
    """[L_n(a), q_m(b)] = -m q_{n+m}(ab) and the central Virasoro relation."""
    ns = list(range(-max_n, max_n + 1))
    ms = [i for i in ns if i != 0]
    for mp, model, eng in _engines(model_params):
        basis = fock.monomials(model, max_weight)
        c2 = model.c2_class()
        cols = _columns(eng)

        def lq(n, m, ab):
            return -m, 0

        def ll(n, m, ab):
            if n + m:
                return n - m, 0
            # central term integrating c_2(X) a b, with c_2(X) = e * pt
            return n - m, -Q(n**3 - n, 12) * model.integrate(model.mul(c2, ab))

        for relation, B, bs, rhs in (("Lq", "q", ms, lq), ("LL", "L", ns, ll)):
            vs = _unit_vectors(basis, {"model": mp, "relation": relation})
            yield from _bracket(eng, vs, cols["L"], cols[B], ns, bs, rhs)


# -- boundary derivative ---------------------------------------------------

@_suite("derivative")
def suite_derivative(
    max_n: int = 3,
    max_weight: int = 5,
    seed: int = 3,
    sample: int = 60,
    model_params=DEFAULT_MODELS,
) -> Iterator[Case]:
    """The commutator of derivatives of oscillators, with the K-correction:

    [q_n'(a), q_m(b)] = -n m (q_{n+m}(ab) + (|n|-1)/2 delta_{n+m} (K a b) id)
    """
    idx = [i for i in range(-max_n, max_n + 1) if i != 0]
    for mp, model, eng in _engines(model_params):
        basis = fock.monomials(model, max_weight)
        rng = random.Random(seed)
        low = [M for M in basis if mono_weight(M) <= 2]
        high = [M for M in basis if mono_weight(M) > 2]
        chosen = low + rng.sample(high, min(sample, len(high)))
        K = model.canonical_class()
        cols = _columns(eng)

        def rhs(n, m, ab):
            if n + m:
                return -n * m, 0
            kab = model.integrate(model.mul(K, ab))
            return -n * m, -Q(n * m) * Q(abs(n) - 1, 2) * kab

        vs = _unit_vectors(chosen, {"model": mp})
        yield from _bracket(eng, vs, cols["q'"], cols["q"], idx, idx, rhs)
        # Leibniz rule for the boundary operator on a sample of products
        for _ in range(20):
            M = rng.choice(basis)
            n = rng.choice([1, 2, 3])
            sym = rng.choice(model.symbols)
            a = CohClass({sym: 1})
            v = FockVector({M: 1})
            lhs = eng.boundary(eng.q(n, a, v))
            want = eng.q_derivative(n, 1, a, v) + eng.q(n, a, eng.boundary(v))
            yield lhs, want, {"model": mp, "leibniz": True, "n": n, "a": sym}


# -- truncated quadratic operators -----------------------------------------

@_suite("e-op")
def suite_e_op(
    max_weight: int = 4, model_params=DEFAULT_MODELS
) -> Iterator[Case]:
    """[e_n(a), q_m(b)] = m q_{n+m}(ab) for m > 0 or m < -n, else zero."""
    ns = (0, 1, 2, 3)
    ms = [i for i in range(-4, 4) if i != 0]
    for mp, model, eng in _engines(model_params):

        def rhs(n, m, ab):
            return (m if m > 0 or m < -n else 0), 0

        cols = _columns(eng)
        vs = _unit_vectors(fock.monomials(model, max_weight), {"model": mp})
        yield from _bracket(eng, vs, cols["e"], cols["q"], ns, ms, rhs)


# -- vertex integral -------------------------------------------------------

@_suite("vertex-integral")
def suite_vertex_integral(
    n_max: int = 5, model_params=DEFAULT_MODELS
) -> Iterator[Case]:
    """<q_n(1) vac, boundary(S_n(gamma) vac)> = C(n,2) (K.gamma + gamma.gamma)."""
    for mp, model, eng in _engines(model_params):
        K = model.canonical_class()
        h = model.h_class()
        for gamma in (h, K, h + K):
            comps = eng.vertex(gamma, n_max)
            k_gamma = model.pair(K, gamma) + model.pair(gamma, gamma)
            for n in range(1, n_max + 1):
                qn = eng.q(n, model.unit(), vacuum())
                lhs = pairing(qn, eng.boundary(comps[n]), model)
                rhs = Q(comb(n, 2)) * k_gamma
                where = {"model": mp, "n": n, "gamma": sorted(gamma.terms)}
                yield lhs, rhs, dict(where, got=str(lhs), want=str(rhs))


# -- dimension bookkeeping -------------------------------------------------

def betti_product(n_max: int, e: int) -> Dict[Tuple[int, int], int]:
    """Coefficients of the bigraded dimension generating product.

    The product over m >= 1 of
    (1 - t^(2m-2) q^m)^-1 (1 - t^(2m) q^m)^-(e-2) (1 - t^(2m+2) q^m)^-1,
    expanded through q^n_max.
    """
    rows = [Counter() for _ in range(n_max + 1)]  # weight -> {t-degree: c}
    rows[0][0] = 1
    for m in range(1, n_max + 1):
        for t_exp, mult in ((2 * m - 2, 1), (2 * m, e - 2), (2 * m + 2, 1)):
            for _ in range(mult):
                # times (1 - t^t_exp q^m)^-1, in increasing weight so that
                # the powers of the factor accumulate
                for w in range(m, n_max + 1):
                    for d, c in rows[w - m].items():
                        rows[w][d + t_exp] += c
    return {(w, d): c for w, row in enumerate(rows) for d, c in row.items()}


@_suite("goettsche-dim")
def suite_goettsche(n_max: int = 6, e_values=(4, 6)) -> Iterator[Case]:
    """Monomial counts per bidegree match the product generating function."""
    for e in e_values:
        model = new_model(1, 0, -1, e - 4)
        table = betti_product(n_max, e)
        counts = Counter(
            (mono_weight(M), mono_degree(M, model))
            for M in fock.monomials(model, n_max)
        )
        for n in range(n_max + 1):
            for i in range(0, 4 * n + 1):
                got = counts[n, i]
                want = table.get((n, i), 0)
                where = {"e": e, "n": n, "i": i, "got": got, "want": want}
                yield got, want, where


# -- line bundle Chern classes ---------------------------------------------

@_suite("chern-line")
def suite_chern_line(
    n_max: int = 5, model_params=DEFAULT_MODELS
) -> Iterator[Case]:
    """Total Chern classes of tautological bundles of line bundles equal the
    vertex-operator expansion in the total Chern class of the line bundle."""
    for mp, model, eng in _engines(model_params):
        h = model.h_class()
        K = model.canonical_class()
        for c1 in (h, -K, h.scale(2) - K):
            L = KClassSpec.line_bundle(c1)
            got = eng.total_chern_classes(L, n_max)
            want = eng.vertex(L.total_chern(model), n_max)
            for n in range(n_max + 1):
                where = {"model": mp, "n": n, "c1": sorted(c1.terms)}
                yield got[n], want[n], where


# -- affine plane ----------------------------------------------------------

@_suite("affine")
def suite_affine(
    gen_max: int = 8, bracket_weight: int = 6, seed: int = 7
) -> Iterator[Case]:
    """Structural identities of the affine-plane model."""
    rng = random.Random(seed)

    def random_poly():
        data = {}
        for _ in range(3):
            mono = []
            while sum(mono) < bracket_weight:
                mono.append(rng.randint(1, bracket_weight - sum(mono)))
                if rng.random() < 0.4:
                    break
            M = tuple(sorted(Counter(mono).items()))
            data[M] = Q(rng.randint(-4, 4), rng.randint(1, 3))
        return affine.WeightedPoly(data)

    polys = [random_poly() for _ in range(12)]
    d_op, ch_op, mul_var = affine.d_op, affine.ch_op, affine.mul_var
    # [D(n,nu), D(m,mu)] = (nu m - mu n) D(n+m, nu+mu-1)
    pairs = [
        ((1, 1), (2, 1)),
        ((0, 2), (1, 0)),
        ((0, 2), (2, 1)),
        ((1, 2), (2, 0)),
        ((0, 3), (1, 1)),
        ((2, 2), (0, 2)),
        ((1, 3), (1, 1)),
        ((3, 0), (0, 2)),
    ]
    for p in polys:
        for (n, nu), (m, mu) in pairs:
            lhs = d_op(n, nu, d_op(m, mu, p)) - d_op(m, mu, d_op(n, nu, p))
            rhs = d_op(n + m, nu + mu - 1, p).scale(nu * m - mu * n)
            yield lhs, rhs, {"relation": "DD", "ops": [[n, nu], [m, mu]]}
    # q_n^{(nu)} = (-n)^nu D(n, nu), via iterated boundary commutators
    for p in polys[:6]:
        for n in (1, 2, 3):
            for nu in (1, 2, 3):

                def prev(x):  # q_n^{(nu-1)}, by the identity under test
                    return d_op(n, nu - 1, x).scale(Q(-n) ** (nu - 1))

                cur = affine.boundary(prev(p)) - prev(affine.boundary(p))
                want = d_op(n, nu, p).scale(Q(-n) ** nu)
                yield cur, want, {"relation": "qderiv", "n": n, "nu": nu}
    # [ch_nu, q_m] = (-1)^nu / nu! * m * D(m, nu)
    for p in polys[:6]:
        for nu in (0, 1, 2, 3):
            for m in (1, 2, 3):
                lhs = ch_op(nu, mul_var(m, p)) - mul_var(m, ch_op(nu, p))
                rhs = d_op(m, nu, p).scale(Q((-1) ** nu, factorial(nu)) * m)
                yield lhs, rhs, {"relation": "chq", "nu": nu, "m": m}
    # Chern character components commute
    for p in polys[:6]:
        for nu in (1, 2):
            for mu in (2, 3):
                lhs = ch_op(nu, ch_op(mu, p))
                rhs = ch_op(mu, ch_op(nu, p))
                yield lhs, rhs, {"relation": "chch", "nu": nu, "mu": mu}
    # generation of the weight-n space from q_1^n
    for n in range(1, gen_max + 1):
        rank, ok = affine.generation_check(n)
        yield ok, True, {"relation": "generation", "n": n, "rank": rank}


# -- worked example --------------------------------------------------------

@_suite("worked-example")
def suite_worked_example(sampler: Optional[Sampler] = None) -> Iterator[Case]:
    """The weight-2 Segre computation, including the sign of the third
    derivative term in the operator expansion."""
    model = new_model(1, 0, -1, 0)
    eng = OperatorEngine(model)
    u = minus_polarization(model)
    alpha = _alpha_class(model)
    powers = [model.unit()]
    for _ in range(6):
        powers.append(model.mul(powers[-1], alpha))
    v1 = eng.big_c_apply(u, vacuum())
    v2 = eng.big_c_apply(u, v1)
    # expected expansion: q1(a)q1(a) + q2(a^3) - q2'(a^4) + q2''(a^5) - q2'''(a^6)
    expected = (
        eng.q(1, alpha, eng.q(1, alpha, vacuum()))
        + eng.q(2, powers[3], vacuum())
        - eng.q_derivative(2, 1, powers[4], vacuum())
        + eng.q_derivative(2, 2, powers[5], vacuum())
        - eng.q_derivative(2, 3, powers[6], vacuum())
    )
    yield v2, expected, {"stage": "expansion"}
    # N_2 for this model
    n2 = Q(1, 2) * v2.terms.get(((1, "pt"), (1, "pt")), Q(0))
    yield n2, Q(-2), {"stage": "number", "got": str(n2)}
    # universal polynomial (d^2 - 10 d - 5 pi - kappa + e)/2
    poly = segre_polynomial(2, sampler)
    want = UnivPoly(
        {
            (2, 0, 0, 0): Q(1, 2),
            (1, 0, 0, 0): Q(-5),
            (0, 1, 0, 0): Q(-5, 2),
            (0, 0, 1, 0): Q(-1, 2),
            (0, 0, 0, 1): Q(1, 2),
        }
    )
    yield poly, want, {"stage": "polynomial", "got": poly.render()}


#: name -> (suite function, the keyword that ``max_n`` sets or None,
#: largest ``max_n`` accepted or None).  A suite takes a seed when its
#: function has a ``seed`` parameter.  e-op checks every basis vector up to
#: its weight and the basis roughly triples per unit of weight; weight 4
#: (its default) already takes tens of seconds.
SUITES: Dict[str, Tuple[Callable[..., dict], Optional[str], Optional[int]]] = {
    "oscillator": (suite_oscillator, "max_n", None),
    "virasoro": (suite_virasoro, "max_n", None),
    "derivative": (suite_derivative, "max_n", None),
    "e-op": (suite_e_op, "max_weight", 4),
    "vertex-integral": (suite_vertex_integral, "n_max", None),
    "goettsche-dim": (suite_goettsche, "n_max", None),
    "chern-line": (suite_chern_line, "n_max", None),
    "pairing": (suite_pairing, "n_max", None),
    "affine": (suite_affine, "gen_max", None),
    "worked-example": (suite_worked_example, None, None),
}


def run_suite(name: str, max_n: Optional[int] = None, seed: Optional[int] = None) -> dict:
    """Run one verification suite by name with optional size/seed overrides.

    Raises UnknownSuite for an unknown name, and ValueError for a size
    above the suite's largest one or for a size or seed that the suite does
    not take.
    """
    if name not in SUITES:
        raise UnknownSuite("unknown suite: %r" % name)
    func, size_kwarg, largest = SUITES[name]
    kwargs = {}
    if max_n is not None:
        if size_kwarg is None:
            raise ValueError("suite %r takes no size" % name)
        if largest is not None and max_n > largest:
            raise ValueError(
                "max_n %d exceeds the largest size of suite %r (%d)"
                % (max_n, name, largest)
            )
        kwargs[size_kwarg] = max_n
    if seed is not None:
        from inspect import signature  # here: it adds ~10 ms to a CLI start

        if "seed" not in signature(func).parameters:
            raise ValueError("suite %r takes no seed" % name)
        kwargs["seed"] = seed
    return func(**kwargs)
