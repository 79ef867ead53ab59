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

import functools
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence
from typing import Tuple

from . import affine, fock
from .fock import FockVector, Monomial, dimension, mono_weight, pairing, vacuum
from .operators import OperatorEngine
from .segre import (
    Sampler,
    UnivPoly,
    _alpha_class,
    minus_polarization,
    segre_polynomial,
)
from .surface import CohClass, KClassSpec, SurfaceModel, new_model

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
        @functools.wraps(cases)
        def suite(*args, **kwargs) -> dict:
            return _run(name, cases(*args, **kwargs))

        return suite

    return decorate


def _engines(model_params):
    for mp in model_params:
        model = new_model(*mp)
        yield mp, model, OperatorEngine(model)


def random_vector(
    model: SurfaceModel,
    rng: random.Random,
    max_weight: int,
    n_terms: int = 3,
) -> FockVector:
    return _random_vector(fock.monomials(model, max_weight), rng, n_terms)


def _random_vector(basis, rng, n_terms=3) -> FockVector:
    data = {}
    for _ in range(n_terms):
        M = rng.choice(basis)
        c = Q(rng.randint(-5, 5), rng.randint(1, 4))
        if c:
            data[M] = data.get(M, Q(0)) + c
    return FockVector(data)


def _unit_vectors(basis, fields) -> Iterator[Tuple[FockVector, dict]]:
    for M in basis:
        yield FockVector({M: 1}), dict(fields, monomial=list(M))


def _bracket(model, vectors, A, B, ns, ms, rhs) -> Iterator[Case]:
    """Cases of ``[A_n(a), B_m(b)] v = rhs(n, m, ab, v)`` for n in ns and m
    in ms, where a and b run over the basis classes of the model and ab is
    their product.  ``A(n, a, v)`` and ``B(m, b, v)`` apply the operators.

    ``vectors`` yields pairs ``(v, fields)``; a counterexample is ``fields``
    with n, m, a and b added.  Each A_n(a) v and B_m(b) v is computed once
    per vector.
    """
    basis = [(s, CohClass({s: 1})) for s in model.symbols]
    prod = {(sa, sb): model.mul(a, b) for sa, a in basis for sb, b in basis}
    for v, fields in vectors:
        Av = {(n, sa): A(n, a, v) for n in ns for sa, a in basis}
        Bv = {(m, sb): B(m, b, v) for m in ms for sb, b in basis}
        for n in ns:
            for m in ms:
                for sa, a in basis:
                    for sb, b in basis:
                        lhs = A(n, a, Bv[m, sb]) - B(m, b, Av[n, sa])
                        where = dict(fields, n=n, m=m, a=sa, b=sb)
                        yield lhs, rhs(n, m, prod[sa, sb], v), where


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

        def rhs(n, m, ab, v):
            if n + m:
                return FockVector()
            return v.scale(n * model.integrate(ab))

        vs = [(v, {"model": mp}) for v in vectors]
        yield from _bracket(model, vs, eng.q, eng.q, idx, idx, rhs)
        # q_0 vanishes identically
        z = eng.q(0, model.unit(), vectors[0])
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
    max_n: int = 2,
    max_weight: int = 4,
    model_params=DEFAULT_MODELS,
    monomials: Optional[Sequence[Monomial]] = None,
) -> Iterator[Case]:
    """[L_n(a), q_m(b)] = -m q_{n+m}(ab) and the central Virasoro relation."""
    ns = list(range(-max_n, max_n + 1))
    ms = [i for i in ns if i != 0]
    for mp, model, eng in _engines(model_params):
        basis = (
            list(monomials)
            if monomials is not None
            else fock.monomials(model, max_weight)
        )
        c2 = model.c2_class()

        def lq(n, m, ab, v):
            return eng.q(n + m, ab, v).scale(-m)

        def ll(n, m, ab, v):
            out = eng.virasoro(n + m, ab, v).scale(n - m)
            if n + m == 0:
                # central term integrating c_2(X) a b, with c_2(X) = e * pt
                c2ab = model.integrate(model.mul(c2, ab))
                out = out + v.scale(-Q(n**3 - n, 12) * c2ab)
            return out

        for relation, B, bs, rhs in (
            ("Lq", eng.q, ms, lq),
            ("LL", eng.virasoro, ns, ll),
        ):
            vs = _unit_vectors(basis, {"model": mp, "relation": relation})
            yield from _bracket(model, vs, eng.virasoro, B, ns, bs, rhs)


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

        def q_prime(n, a, v):
            return eng.q_derivative(n, 1, a, v)

        def rhs(n, m, ab, v):
            out = eng.q(n + m, ab, v).scale(-n * m)
            if n + m == 0:
                kab = model.integrate(model.mul(K, ab))
                out = out + v.scale(-Q(n * m) * Q(abs(n) - 1, 2) * kab)
            return out

        vs = _unit_vectors(chosen, {"model": mp})
        yield from _bracket(model, vs, q_prime, eng.q, idx, idx, rhs)
        # Leibniz rule for the boundary operator on a sample of products
        for _ in range(20):
            M = rng.choice(basis)
            n = rng.choice([1, 2, 3])
            sym = rng.choice(model.symbols)
            a = CohClass({sym: 1})
            v = FockVector({M: 1})
            lhs = eng.boundary(eng.q(n, a, v))
            want = q_prime(n, a, v) + eng.q(n, a, eng.boundary(v))
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

        def rhs(n, m, ab, v):
            if m > 0 or m < -n:
                return eng.q(n + m, ab, v).scale(m)
            return FockVector()

        vs = _unit_vectors(fock.monomials(model, max_weight), {"model": mp})
        yield from _bracket(model, vs, eng.e_op, eng.q, ns, ms, rhs)


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
                where = {"model": mp, "n": n, "gamma": sorted(gamma.coeff)}
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
        for n in range(n_max + 1):
            for i in range(0, 4 * n + 1):
                got = dimension(n, i, model)
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
                where = {"model": mp, "n": n, "c1": sorted(c1.coeff)}
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
    v1 = eng.big_c_apply(u, vacuum(), 8)
    v2 = eng.big_c_apply(u, v1, 8)
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


#: name -> (suite function, the keyword that ``max_n`` sets, takes a seed)
SUITES: Dict[str, Tuple[Callable[..., dict], Optional[str], bool]] = {
    "oscillator": (suite_oscillator, "max_n", True),
    "virasoro": (suite_virasoro, "max_n", False),
    "derivative": (suite_derivative, "max_n", True),
    "e-op": (suite_e_op, "max_weight", False),
    "vertex-integral": (suite_vertex_integral, "n_max", False),
    "goettsche-dim": (suite_goettsche, "n_max", False),
    "chern-line": (suite_chern_line, "n_max", False),
    "pairing": (suite_pairing, "n_max", True),
    "affine": (suite_affine, "gen_max", True),
    "worked-example": (suite_worked_example, None, False),
}


def run_suite(name: str, max_n: Optional[int] = None, seed: Optional[int] = None) -> dict:
    """Run one verification suite by name with optional size/seed overrides."""
    if name not in SUITES:
        raise UnknownSuite("unknown suite: %r" % name)
    func, size_kwarg, seeded = SUITES[name]
    kwargs = {}
    if max_n is not None and size_kwarg is not None:
        kwargs[size_kwarg] = max_n
    if seed is not None and seeded:
        kwargs["seed"] = seed
    return func(**kwargs)
