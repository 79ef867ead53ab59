"""Operators on the Fock space: boundary, Virasoro, and Chern class operators.

All operators are assembled from the oscillators.  The boundary operator is
characterized by annihilating the vacuum together with the commutation rule

    [boundary, q_n(a)] = n * L_n(a) + n*(|n|-1)/2 * q_n(K.a),

where L_n is the Virasoro operator built from the diagonal class and K is
the canonical class of the surface.  Higher derivatives of operators are
iterated commutators with the boundary.

Unrolling that rule over a canonical monomial M = prod_i q_(n_i)(s_i)|0>
gives the closed cut-and-join form

    D M = sum_i [ n_i/2 sum_(c,s',s'') in delta(s_i) sum_(nu=1)^(n_i-1)
                      c q_nu(s') q_(n_i-nu)(s'') M-{i}
                  - sum_(j>i) n_i n_j sum_(c,s',s'') in delta(s_i)
                      c <s'',s_j> q_(n_i+n_j)(s') M-{i,j}
                  + n_i(n_i-1)/2 k_i q_(n_i)(t_i) M-{i} ],

where M-{i} is M without its i-th factor and K.s_i = k_i t_i.  The cut,
join and K coefficients are tabulated once per engine as integers over one
model denominator, the lcm of the denominators of c/2, c <s'',t> and k/2,
so D is filled in integers.

L_n(a) is the normal-ordered pair sum of c q_(n-mu)(s') q_mu(s'') over
(c, s', s'') in delta(a) and mu <= n/2 with mu, n-mu != 0, halved when
mu = n-mu.  The truncated quadratic operator e_n is minus its pairs with
mu < 0, the ones that hold an annihilator.

An :class:`OperatorEngine` instance owns per-model memoization caches: the
oscillators, Virasoro operators and first derivatives are memoized monomial
by monomial over ``Fraction``, the boundary operator as integer vectors over
the model denominator.  The higher derivatives ad^nu(q_n) and the Chern class
operators act on whole vectors through one integer kernel,
:meth:`OperatorEngine._ad_series`, which can form the part of one degree
alone; the top Segre numbers use that for the last weight step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import groupby
from math import comb, factorial, inf, lcm
from typing import Callable, Dict, List, Optional, Tuple

from .fock import (
    FockVector,
    Monomial,
    mono_degree,
    mono_insert,
    mono_weight,
    q_mono,
    vacuum,
)
from .linear import IntVec, axpy, frac_vec, int_combine, int_reduce, int_vec
from .surface import CohClass, KClassSpec, SurfaceModel

Q = Fraction

Vec = Dict[Monomial, Q]


def gen_binomial(x: int, nu: int) -> Q:
    """Generalized binomial coefficient: falling factorial over nu factorial."""
    num = Q(1)
    for j in range(nu):
        num *= x - j
    return num / factorial(nu)


def _without(M: Monomial, f) -> Monomial:
    """M with one copy of the factor f removed."""
    i = M.index(f)
    return M[:i] + M[i + 1:]


def _boundary_tables(model: SurfaceModel):
    """The cut, join and K tables of D, as integers over one denominator.

    ``cut[s]`` holds (c/2, s', s'') for (c, s', s'') in delta(s),
    ``join[s, t]`` holds (x, s') with x the sum of c <s'', t> over delta(s),
    and ``kterm[s]`` holds (k/2, t) for K.s = k t.  The model denominator is
    the lcm of the denominators of all these entries; each entry is stored as
    its numerator over it.
    """
    syms = model.symbols
    cut = {s: [(c / 2, s1, s2) for c, s1, s2 in model.delta_triples(s)] for s in syms}
    join = {}
    for s in syms:
        for t in syms:
            row: Dict[str, Q] = {}
            for c, s1, s2 in model.delta_triples(s):
                row[s1] = row.get(s1, 0) + c * model.pair_sym(s2, t)
            join[s, t] = [(x, s1) for s1, x in row.items() if x]
    kterm = {}
    for s in syms:
        p = model.prod_sym("k", s)
        kterm[s] = [(p[0] / 2, p[1])] if p is not None and p[0] else []
    tables = (cut, join, kterm)
    den = lcm(*(e[0].denominator for t in tables for row in t.values() for e in row))

    def scaled(row):
        out = []
        for x, *labels in row:
            y = x * den
            if y.denominator != 1:
                raise ArithmeticError("%s is not a multiple of 1/%d" % (x, den))
            out.append((y.numerator, *labels))
        return out

    return den, *({k: scaled(row) for k, row in t.items()} for t in tables)


class OperatorEngine:
    """Memoizing calculator for the operator calculus over one surface model."""

    def __init__(self, model: SurfaceModel):
        self.model = model
        self._q_cache: Dict[Tuple[int, str, Monomial], Vec] = {}
        self._L_cache: Dict[Tuple[int, str, Monomial], Vec] = {}
        self._qp_cache: Dict[Tuple[int, str, Monomial], Vec] = {}
        self._b_cache: Dict[Monomial, IntVec] = {}
        # Always empty: higher derivatives are not memoized per monomial. It
        # stays because perfbench/probes.py reads every cache attribute.
        self._qd_cache: Dict[Tuple[int, int, str, Monomial], Vec] = {}
        self._den, self._cut, self._join, self._kterm = _boundary_tables(model)

    def _apply(self, mono: Callable, m: int, a: CohClass, v: FockVector) -> FockVector:
        """The monomial operator ``mono(m, sym, M)``, extended bilinearly."""
        out: Vec = {}
        for sym, ca in a.terms.items():
            for M, c in v.terms.items():
                axpy(out, mono(m, sym, M), c * ca)
        return FockVector(out)

    # -- oscillators -------------------------------------------------------

    def _q_mono(self, m: int, sym: str, M: Monomial) -> Vec:
        key = (m, sym, M)
        out = self._q_cache.get(key)
        if out is None:
            out = self._q_cache[key] = q_mono(m, sym, M, self.model)
        return out

    def _q_vec(self, m: int, sym: str, v: Vec) -> Vec:
        out: Vec = {}
        for M, c in v.items():
            axpy(out, self._q_mono(m, sym, M), c)
        return out

    def q(self, m: int, a: CohClass, v: FockVector) -> FockVector:
        return self._apply(self._q_mono, m, a, v)

    def _q_int(self, m: int, sym: str, v: IntVec) -> IntVec:
        """q_m(sym) on an integer vector: for m >= 1 a relabelling."""
        num, den = v
        if m > 0:
            return {mono_insert(M, m, sym): c for M, c in num.items()}, den
        return int_vec(self._q_vec(m, sym, frac_vec(v)))

    # -- Virasoro operators ------------------------------------------------

    def _pairs(self, m: int, sym: str, M: Monomial, top: int) -> Vec:
        """The pairs q_(m-mu)(s') q_mu(s'') M of L_m(sym) M with mu <= ``top``;
        for top <= m // 2 each unordered pair once, as delta is symmetric."""
        out: Vec = {}
        for c, s1, s2 in self.model.delta_triples(sym):
            for mu in range(-mono_weight(M), top + 1):
                nu = m - mu
                if mu and nu:
                    t = self._q_mono(mu, s2, M)
                    if t:
                        axpy(out, self._q_vec(nu, s1, t), c if nu != mu else c / 2)
        return out

    def _L_mono(self, m: int, sym: str, M: Monomial) -> Vec:
        key = (m, sym, M)
        out = self._L_cache.get(key)
        if out is None:
            out = self._L_cache[key] = self._pairs(m, sym, M, m // 2)
        return out

    def virasoro(self, m: int, a: CohClass, v: FockVector) -> FockVector:
        return self._apply(self._L_mono, m, a, v)

    def e_op(self, n: int, a: CohClass, v: FockVector) -> FockVector:
        """Minus the pairs of L_n that hold an annihilator."""
        return -self._apply(partial(self._pairs, top=min(-1, n // 2)), n, a, v)

    # -- boundary operator and derivatives ---------------------------------

    def _qprime_mono(self, n: int, sym: str, M: Monomial) -> Vec:
        key = (n, sym, M)
        out = self._qp_cache.get(key)
        if out is not None:
            return out
        out = {}
        axpy(out, self._L_mono(n, sym, M), Q(n))
        coeff = Q(n * (abs(n) - 1), 2)
        if coeff:
            p = self.model.prod_sym("k", sym)
            if p is not None and p[0]:
                axpy(out, self._q_mono(n, p[1], M), coeff * p[0])
        self._qp_cache[key] = out
        return out

    def _boundary_mono(self, M: Monomial) -> IntVec:
        """D on one monomial by the cut-and-join formula of the module
        docstring, as integer numerators over the model denominator.

        Equal factors are taken together: a factor q_n(s) of multiplicity m
        cuts into q_nu(s') q_(n-nu)(s'') with weight m * n * c/2 for each
        (c, s', s'') in delta(s) and 0 < nu < n, turns into q_n(t) with
        weight m * n(n-1)/2 * k for K.s = k t, and joins each later factor
        q_n2(s2), and each other copy of itself, into q_(n+n2)(s') with
        weight -n * n2 * c <s'', s2>.  No other memo is read.
        """
        out = self._b_cache.get(M)
        if out is not None:
            return out
        groups = [(f, len(list(copies))) for f, copies in groupby(M)]
        num: Dict[Monomial, int] = {}
        get = num.get
        for a, (f, m) in enumerate(groups):
            n, s = f
            rest = _without(M, f)
            w = m * n
            for c, s1, s2 in self._cut[s]:
                for nu in range(1, n):
                    N = mono_insert(mono_insert(rest, nu, s1), n - nu, s2)
                    num[N] = get(N, 0) + w * c
            if n > 1:
                for c, t in self._kterm[s]:
                    N = mono_insert(rest, n, t)
                    num[N] = get(N, 0) + w * (n - 1) * c
            joins = [(f, m * (m - 1) // 2)] if m > 1 else []
            joins += [(g, m * m2) for g, m2 in groups[a + 1:]]
            for (n2, s2), pairs in joins:
                rest2 = _without(rest, (n2, s2))
                w2 = -pairs * n * n2
                for c, s1 in self._join[s, s2]:
                    N = mono_insert(rest2, n + n2, s1)
                    num[N] = get(N, 0) + w2 * c
        out = self._b_cache[M] = ({N: x for N, x in num.items() if x}, self._den)
        return out

    def _boundary_int(self, v: IntVec) -> IntVec:
        """The boundary operator on an integer vector, exactly."""
        num, den = v
        out: Dict[Monomial, int] = {}
        get = out.get
        for M, c in num.items():
            for N, x in self._boundary_mono(M)[0].items():
                out[N] = get(N, 0) + c * x
        return int_reduce(out, den * self._den)

    def boundary(self, v: FockVector) -> FockVector:
        images = ((c, self._boundary_mono(M)) for M, c in v.terms.items())
        return FockVector(frac_vec(int_combine(images)))

    # -- derivatives: one whole-vector kernel ------------------------------

    def _ad_series(
        self,
        n: int,
        series: List[Tuple[Callable[[int], Q], Dict[str, Q]]],
        v: Vec,
        degree: Optional[int] = None,
    ) -> Vec:
        """The sum over ``(b, c)`` in ``series`` and over nu of
        ``b(nu) * ad^nu(q_n(c)) v``, where ad is the commutator with the
        boundary operator D; with ``degree``, only its degree-``degree`` part.

        Expanding ad^nu(X) = sum over i + j = nu of
        binomial(nu, i) (-1)^j D^i X D^j gives the exact identity

            sum_nu b_nu ad^nu(X) v
                = sum_i D^i X [ sum_j b_(i+j) binomial(i+j, i) (-1)^j D^j v ],

        so the powers ``D^j v`` are formed once and shared by every class,
        and the sum over i is taken by Horner's rule, acc <- D acc + y_i.
        nu stops at the last nonzero b_nu, and j where ``D^j v`` vanishes.
        On a vector of weight at most w, nu <= 2w + n + 1 suffices:
        ad^nu(q_n(c)) raises the degree by 2(n + nu - 1) + deg c, and its
        result, of weight w + n, has degree at most 4(w + n).

        The powers are kept split by degree.  D raises the degree by 2 and
        q_n(sym) by 2n - 2 + deg sym, so for a target degree the parts of
        ``D^j v`` above ``degree - (2n - 2)`` are dropped, and at Horner
        index i only the terms q_n(sym) D^j v of degree ``degree - 2i`` are
        kept.  Nothing else reaches the target degree, so the result is its
        exact degree-``degree`` part.

        Inside, vectors are integer numerators over one common denominator
        each (:data:`IntVec`), and D is read from the integer boundary memo;
        the result is converted back to Fractions.
        """
        if not v:
            return {}
        top = 2 * max(mono_weight(M) for M in v) + n + 1
        rows = []
        for b, cls in series:
            row = [b(nu) for nu in range(top + 1)]
            while row and not row[-1]:
                row.pop()
            if row and cls:
                rows.append((row, cls))
        nu_last = max((len(row) for row, _ in rows), default=0) - 1
        cap = inf if degree is None else degree - (2 * n - 2)
        # powers[j][e] is the degree-e part of D^j v
        split: Dict[int, Vec] = {}
        for M, c in v.items():
            e = mono_degree(M, self.model)
            if e <= cap:
                split.setdefault(e, {})[M] = c
        powers = [{e: int_vec(part) for e, part in split.items()}]
        while len(powers) <= nu_last:
            nxt = {}
            for e, part in powers[-1].items():
                if e + 2 <= cap:
                    p = self._boundary_int(part)
                    if p[0]:
                        nxt[e + 2] = p
            if not nxt:
                break
            powers.append(nxt)
        shift = {sym: 2 * n - 2 + d for sym, d in self.model.degree.items()}
        # q_n(sym) applied to the degree-e part of D^j v, shared by every i
        created: Dict[Tuple[str, int, int], IntVec] = {}
        acc: IntVec = ({}, 1)
        for i in range(nu_last, -1, -1):
            # y_i as coefficients of q_n(sym) D^j v, keyed by (sym, j)
            coeffs: Dict[Tuple[str, int], Q] = {}
            for row, cls in rows:
                for j in range(min(len(powers), len(row) - i)):
                    if not row[i + j]:
                        continue
                    f = row[i + j] * comb(i + j, i)
                    if j % 2:
                        f = -f
                    for sym, cc in cls.items():
                        key = (sym, j)
                        coeffs[key] = coeffs.get(key, 0) + f * cc
            parts = [(Q(1), self._boundary_int(acc))]
            for (sym, j), f in coeffs.items():
                if degree is None:
                    degs = powers[j]
                else:
                    degs = (degree - 2 * i - shift[sym],)
                for e in degs:
                    if e in powers[j]:
                        key = (sym, j, e)
                        if key not in created:
                            created[key] = self._q_int(n, sym, powers[j][e])
                        parts.append((f, created[key]))
            acc = int_combine(parts)
        return frac_vec(acc)

    def q_derivative(
        self, n: int, order: int, a: CohClass, v: FockVector
    ) -> FockVector:
        """The order-th derivative of q_n(a): iterated boundary commutator.

        Order 1 is Lehn's commutator rule, memoized per monomial; higher
        orders are the kernel :meth:`_ad_series` with b_nu = [nu == order].
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order == 0:
            return self._apply(self._q_mono, n, a, v)
        if order == 1:
            return self._apply(self._qprime_mono, n, a, v)
        series = [(lambda nu: int(nu == order), a.terms)]
        return FockVector(self._ad_series(n, series, v.terms))

    # -- Chern class operators ---------------------------------------------

    def big_c_apply(
        self, u: KClassSpec, v: FockVector, degree: Optional[int] = None
    ) -> FockVector:
        """Apply the total Chern class operator of the tautological sheaf of u.

        The operator is the sum over nu and k = 0, 1, 2 of
        ``binomial(rank - k, nu) * ad^nu(q_1(c_k(u)))``, where ad is the
        commutator with the boundary operator.  It is evaluated by the
        kernel :meth:`_ad_series` with X = q_1(c), so the boundary powers of
        v are shared by the three classes and nu <= 2(w + 1) on a vector of
        weight at most w.  With ``degree``, only the degree-``degree`` part
        of the result is formed.  The result is exact.
        """
        series = [
            (partial(gen_binomial, u.rank - k), cls)
            for k, cls in ((0, {"1": Q(1)}), (1, u.c1.terms), (2, u.c2.terms))
        ]
        return FockVector(self._ad_series(1, series, v.terms, degree))

    def total_chern_classes(self, u: KClassSpec, n_max: int) -> List[FockVector]:
        """Total Chern classes of the tautological sheaves for 0 <= n <= n_max.

        Computed as the exponential of the total Chern class operator applied
        to the vacuum; the weight-n component is the n-fold application
        divided by n factorial.
        """
        comps = [vacuum()]
        v = vacuum()
        for j in range(1, n_max + 1):
            v = self.big_c_apply(u, v).scale(Q(1, j))
            comps.append(v)
        return comps

    def chern_char_class(self, u: KClassSpec, n: int) -> FockVector:
        """Chern character of the tautological sheaf on the weight-n space.

        Uses the commutator expansion of the Chern character operator with
        q_1(1) to peel the fundamental class q_1(1)^n / n! of the weight-n
        space one factor at a time.  The commutator is
        ``sum over nu of ad^nu(q_1(ch(u))) / nu!``, i.e.
        ``exp(D) q_1(ch(u)) exp(-D)`` with D the boundary operator.
        """
        series = [
            (lambda nu: Q(1, factorial(nu)), u.chern_character(self.model).terms)
        ]
        g: Vec = {}
        w: Vec = {(): Q(1)}
        for _ in range(n):
            g = self._q_vec(1, "1", g)
            axpy(g, self._ad_series(1, series, w), Q(1))
            w = self._q_vec(1, "1", w)
        return FockVector(g).scale(Q(1, factorial(n)))

    # -- vertex operator ---------------------------------------------------

    def vertex(self, gamma: CohClass, n_max: int) -> List[FockVector]:
        """Components of exp(sum over n of (-1)^(n-1)/n q_n(gamma)) applied
        to the vacuum, for weights 0 .. n_max."""
        comps: List[Vec] = [{(): Q(1)}]
        for m in range(1, n_max + 1):
            acc: Vec = {}
            for j in range(1, m + 1):
                for sym, cg in gamma.terms.items():
                    axpy(acc, self._q_vec(j, sym, comps[m - j]), (-1) ** (j - 1) * cg)
            comps.append({M: c / m for M, c in acc.items()})
        return [FockVector(c) for c in comps]
