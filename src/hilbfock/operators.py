"""Operators on the Fock space: boundary, Virasoro, and Chern class operators.

All operators are assembled from the oscillators.  The boundary operator is
characterized by annihilating the vacuum together with the commutation rule

    [boundary, q_n(a)] = n * L_n(a) + n*(|n|-1)/2 * q_n(K.a),

where L_n is the Virasoro operator built from the diagonal class and K is
the canonical class of the surface.  Higher derivatives of operators are
iterated commutators with the boundary.

An :class:`OperatorEngine` instance owns per-model memoization caches: the
oscillators, Virasoro operators and first derivatives are memoized monomial
by monomial over ``Fraction``, the boundary operator as integer vectors.
The higher derivatives ad^nu(q_n) and the Chern class operators act on whole
vectors through one integer kernel, :meth:`OperatorEngine._ad_series`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, factorial
from typing import Callable, Dict, List, Tuple

from .fock import (
    FockVector,
    Monomial,
    mono_insert,
    mono_weight,
    q_mono,
    vacuum,
)
from .linear import IntVec, axpy, frac_vec, int_combine, int_vec
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
        self._b_cache: Dict[Monomial, IntVec] = {}
        # Always empty: higher derivatives are not memoized per monomial.
        # It stays because the traced benchmark run (perfbench/probes.py)
        # reads the size of every cache attribute.
        self._qd_cache: Dict[Tuple[int, int, str, Monomial], Vec] = {}

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
        return self._apply(self._L_mono, m, a, v)

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

    def _boundary_mono(self, M: Monomial) -> IntVec:
        out = self._b_cache.get(M)
        if out is None:
            if not M:
                out = ({}, 1)
            else:
                # D q_n(s) rest = q_n'(s) rest + q_n(s) D rest
                (n, s), rest = M[0], M[1:]
                head = int_vec(self._qprime_mono(n, s, rest))
                tail = self._q_int(n, s, self._boundary_mono(rest))
                out = int_combine([(1, head), (1, tail)])
            self._b_cache[M] = out
        return out

    def _boundary_int(self, v: IntVec) -> IntVec:
        """The boundary operator on an integer vector, exactly."""
        num, den = v
        parts = []
        for M, c in num.items():
            bnum, bden = self._boundary_mono(M)
            parts.append((c, (bnum, bden * den)))
        return int_combine(parts)

    def boundary(self, v: FockVector) -> FockVector:
        images = ((c, self._boundary_mono(M)) for M, c in v.terms.items())
        return FockVector(frac_vec(int_combine(images)))

    # -- derivatives: one whole-vector kernel ------------------------------

    def _ad_series(
        self,
        n: int,
        series: List[Tuple[Callable[[int], Q], Dict[str, Q]]],
        v: Vec,
    ) -> Vec:
        """The sum over ``(b, c)`` in ``series`` and over nu of
        ``b(nu) * ad^nu(q_n(c)) v``, where ad is the commutator with the
        boundary operator D.

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
        powers = [int_vec(v)]
        while len(powers) <= nu_last:
            p = self._boundary_int(powers[-1])
            if not p[0]:
                break
            powers.append(p)
        # q_n(sym) D^j v, shared by every i
        created: Dict[Tuple[str, int], IntVec] = {}
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
                x = created.get((sym, j))
                if x is None:
                    x = created[sym, j] = self._q_int(n, sym, powers[j])
                parts.append((f, x))
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

    def big_c_apply(self, u: KClassSpec, v: FockVector) -> FockVector:
        """Apply the total Chern class operator of the tautological sheaf of u.

        The operator is the sum over nu and k = 0, 1, 2 of
        ``binomial(rank - k, nu) * ad^nu(q_1(c_k(u)))``, where ad is the
        commutator with the boundary operator.  It is evaluated by the
        kernel :meth:`_ad_series` with X = q_1(c), so the boundary powers of
        v are shared by the three classes and nu <= 2(w + 1) on a vector of
        weight at most w.  The result is exact.
        """
        series = [
            (partial(gen_binomial, u.rank - k), cls)
            for k, cls in ((0, {"1": Q(1)}), (1, u.c1.terms), (2, u.c2.terms))
        ]
        return FockVector(self._ad_series(1, series, v.terms))

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
