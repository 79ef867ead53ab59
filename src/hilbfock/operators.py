"""Operators on the Fock space: boundary, Virasoro, and Chern class operators.

All operators are assembled from the oscillators.  The boundary operator is
characterized by annihilating the vacuum together with the commutation rule

    [boundary, q_n(a)] = n * L_n(a) + n*(|n|-1)/2 * q_n(K.a),

where L_n is the Virasoro operator built from the diagonal class and K is
the canonical class of the surface.  Higher derivatives of operators are
iterated commutators with the boundary.

An :class:`OperatorEngine` instance owns per-model memoization caches; all
heavy computations are performed monomial-by-monomial through these caches.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, List, Tuple

from .fock import (
    FockVector,
    Monomial,
    mono_degree,
    mono_weight,
    q_mono,
    vacuum,
)
from .linear import axpy
from .surface import CohClass, KClassSpec, SurfaceModel

Q = Fraction

Vec = Dict[Monomial, Q]


def gen_binomial(x: int, nu: int) -> Q:
    """Generalized binomial coefficient: falling factorial over nu factorial."""
    num = Q(1)
    for j in range(nu):
        num *= x - j
    return num / factorial(nu)


class OperatorEngine:
    """Memoizing calculator for the operator calculus over one surface model."""

    def __init__(self, model: SurfaceModel):
        self.model = model
        self._q_cache: Dict[Tuple[int, str, Monomial], Vec] = {}
        self._L_cache: Dict[Tuple[int, str, Monomial], Vec] = {}
        self._qp_cache: Dict[Tuple[int, str, Monomial], Vec] = {}
        self._b_cache: Dict[Monomial, Vec] = {}
        self._qd_cache: Dict[Tuple[int, int, str, Monomial], Vec] = {}

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
        out: Vec = {}
        for sym, ca in a.terms.items():
            for M, c in v.terms.items():
                axpy(out, self._q_mono(m, sym, M), c * ca)
        return FockVector(out)

    # -- Virasoro operators ------------------------------------------------

    def _L_mono(self, m: int, sym: str, M: Monomial) -> Vec:
        key = (m, sym, M)
        out = self._L_cache.get(key)
        if out is not None:
            return out
        W = mono_weight(M)
        out = {}
        half = Q(1, 2)
        for c, s1, s2 in self.model.delta_triples(sym):
            if m == 0:
                for nu in range(1, W + 1):
                    t = self._q_mono(-nu, s2, M)
                    if t:
                        axpy(out, self._q_vec(nu, s1, t), c)
            elif m > 0:
                for nu in range(1, m):
                    t = self._q_mono(m - nu, s2, M)
                    axpy(out, self._q_vec(nu, s1, t), c * half)
                for nu in range(1, W + 1):
                    t = self._q_mono(-nu, s2, M)
                    if t:
                        axpy(out, self._q_vec(m + nu, s1, t), c)
            else:
                for nu in range(1, -m):
                    t = self._q_mono(m + nu, s2, M)
                    if t:
                        axpy(out, self._q_vec(-nu, s1, t), c * half)
                for p in range(1, W + m + 1):
                    t = self._q_mono(m - p, s2, M)
                    if t:
                        axpy(out, self._q_vec(p, s1, t), c)
        self._L_cache[key] = out
        return out

    def virasoro(self, m: int, a: CohClass, v: FockVector) -> FockVector:
        out: Vec = {}
        for sym, ca in a.terms.items():
            for M, c in v.terms.items():
                axpy(out, self._L_mono(m, sym, M), c * ca)
        return FockVector(out)

    def e_op(self, n: int, a: CohClass, v: FockVector) -> FockVector:
        """The operator with e_n + L_n equal to the truncated quadratic sum."""
        out: Vec = {}
        half = Q(1, 2)
        for sym, ca in a.terms.items():
            for M, c in v.terms.items():
                axpy(out, self._L_mono(n, sym, M), -c * ca)
                if n > 0:
                    for cc, s1, s2 in self.model.delta_triples(sym):
                        for nu in range(1, n):
                            t = self._q_mono(n - nu, s2, M)
                            axpy(
                                out,
                                self._q_vec(nu, s1, t),
                                c * ca * cc * half,
                            )
        return FockVector(out)

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

    def _boundary_mono(self, M: Monomial) -> Vec:
        out = self._b_cache.get(M)
        if out is not None:
            return out
        if not M:
            out = {}
        else:
            (n, s), rest = M[0], M[1:]
            out = dict(self._qprime_mono(n, s, rest))
            for M2, c in self._boundary_mono(rest).items():
                axpy(out, self._q_mono(n, s, M2), c)
        self._b_cache[M] = out
        return out

    def boundary(self, v: FockVector) -> FockVector:
        out: Vec = {}
        for M, c in v.terms.items():
            axpy(out, self._boundary_mono(M), c)
        return FockVector(out)

    def _qderiv_mono(self, n: int, nu: int, sym: str, M: Monomial) -> Vec:
        if nu == 0:
            return self._q_mono(n, sym, M)
        if nu == 1:
            return self._qprime_mono(n, sym, M)
        key = (n, nu, sym, M)
        out = self._qd_cache.get(key)
        if out is not None:
            return out
        out = {}
        for M2, c in self._qderiv_mono(n, nu - 1, sym, M).items():
            axpy(out, self._boundary_mono(M2), c)
        for M2, c in self._boundary_mono(M).items():
            axpy(out, self._qderiv_mono(n, nu - 1, sym, M2), -c)
        self._qd_cache[key] = out
        return out

    def q_derivative(
        self, n: int, order: int, a: CohClass, v: FockVector
    ) -> FockVector:
        """The order-th derivative of q_n(a): iterated boundary commutator."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        out: Vec = {}
        for sym, ca in a.terms.items():
            for M, c in v.terms.items():
                axpy(out, self._qderiv_mono(n, order, sym, M), c * ca)
        return FockVector(out)

    # -- Chern class operators ---------------------------------------------

    def big_c_apply(
        self, u: KClassSpec, v: FockVector, degree_budget: int
    ) -> FockVector:
        """Apply the total Chern class operator of the tautological sheaf of u.

        The operator is the sum over nu, k of
        ``binomial(rank - k, nu) * q_1^(nu)(c_k(u))``.  Terms whose image
        would exceed the degree budget are skipped; within the budget the
        result is exact.
        """
        model = self.model
        components = [
            (0, {"1": Q(1)}),
            (1, u.c1.terms),
            (2, u.c2.terms),
        ]
        out: Vec = {}
        for M, cv in v.terms.items():
            g = mono_degree(M, model)
            nu_max = (degree_budget - g) // 2
            for nu in range(0, nu_max + 1):
                for k, cls in components:
                    b = gen_binomial(u.rank - k, nu)
                    if not b:
                        continue
                    for sym, cc in cls.items():
                        if g + 2 * nu + model.degree[sym] > degree_budget:
                            continue
                        axpy(
                            out,
                            self._qderiv_mono(1, nu, sym, M),
                            cv * b * cc,
                        )
        return FockVector(out)

    def total_chern_classes(self, u: KClassSpec, n_max: int) -> List[FockVector]:
        """Total Chern classes of the tautological sheaves for 0 <= n <= n_max.

        Computed as the exponential of the total Chern class operator applied
        to the vacuum; the weight-n component is the n-fold application
        divided by n factorial.
        """
        comps = [vacuum()]
        v = vacuum()
        for j in range(1, n_max + 1):
            v = self.big_c_apply(u, v, 4 * j).scale(Q(1, j))
            comps.append(v)
        return comps

    def chern_char_class(self, u: KClassSpec, n: int) -> FockVector:
        """Chern character of the tautological sheaf on the weight-n space.

        Uses the commutator expansion of the Chern character operator with
        q_1(1) to peel the fundamental class q_1(1)^n / n! of the weight-n
        space one factor at a time.
        """
        model = self.model
        ch = u.chern_character(model)
        g: Vec = {}
        w: Vec = {(): Q(1)}
        unit = "1"
        for j in range(1, n + 1):
            g2 = self._q_vec(1, unit, g)
            for M, c in w.items():
                gdeg = mono_degree(M, model)
                nu = 0
                while gdeg + 2 * nu <= 4 * n:
                    f = Q(1, factorial(nu))
                    for sym, cc in ch.terms.items():
                        if gdeg + 2 * nu + model.degree[sym] > 4 * n:
                            continue
                        axpy(g2, self._qderiv_mono(1, nu, sym, M), c * cc * f)
                    nu += 1
            g = g2
            w = self._q_vec(1, unit, w)
        return FockVector(g).scale(Q(1, factorial(n)))

    # -- vertex operator ---------------------------------------------------

    def vertex(self, gamma: CohClass, n_max: int) -> List[FockVector]:
        """Components of exp(sum over n of (-1)^(n-1)/n q_n(gamma)) applied
        to the vacuum, for weights 0 .. n_max."""
        comps: List[Vec] = [{(): Q(1)}]
        for m in range(1, n_max + 1):
            acc: Vec = {}
            for j in range(1, m + 1):
                sign = Q(1) if j % 2 == 1 else Q(-1)
                for sym, cg in gamma.terms.items():
                    for M, c in comps[m - j].items():
                        axpy(
                            acc,
                            self._q_mono(j, sym, M),
                            sign * cg * c,
                        )
            comps.append({M: c / m for M, c in acc.items()})
        return [FockVector(c) for c in comps]
