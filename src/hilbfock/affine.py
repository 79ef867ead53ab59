"""Operator calculus for the Hilbert schemes of points of the affine plane.

Here the Fock space is the polynomial ring in variables q_1, q_2, ...,
graded by weight(q_m) = m.  The scaled partial derivative del_m is m times
the derivative in q_m, and the basic operators are

    D(n, nu) = sum over ordered nu-tuples (n_1, .., n_nu) of positive
               integers of q_{n + n_1 + .. + n_nu} del_{n_1} .. del_{n_nu},

less the terms whose index n + n_1 + .. + n_nu is below 1.  On a monomial
M = prod q_i^(p_i), the nu!/prod s_i! orders that take s_i factors q_i
out of M each weigh prod i^(s_i) p_i!/(p_i - s_i)!, so

    D(n, nu) M = nu! sum over 0 <= s_i <= p_i with sum s_i = nu of
                 prod C(p_i, s_i) i^(s_i) q_{n + sum i s_i} prod q_i^(p_i - s_i).

D(n, 0) is multiplication by q_n for n >= 1, and D(0, 0) = 0.  The boundary
operator is -D(0, 2)/2, the iterated boundary derivative q_n^(nu) is
(-n)^nu D(n, nu), and the degree-nu component of the Chern character
operator of the rank-one tautological sheaf is (-1)^nu D(0, nu+1) / (nu+1)!.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Dict, Optional, Tuple

from .linear import Combination, axpy, rat, render_sum

Q = Fraction

# monomial: tuple of (index, exponent), sorted by index, exponents positive
Mono = Tuple[Tuple[int, int], ...]


def render_mono(M: Mono) -> str:
    return "*".join("q%d" % i if p == 1 else "q%d^%d" % (i, p) for i, p in M) or "1"


class WeightedPoly(Combination):
    """A polynomial in the variables q_m with rational coefficients."""

    __slots__ = ()

    def __init__(self, terms: Optional[Dict[Mono, object]] = None):
        # sort each key into a monomial; keys naming the same one are summed
        data: Dict[Mono, Q] = {}
        for M, c in (terms or {}).items():
            M = tuple(sorted(M))
            data[M] = data.get(M, 0) + rat(c)
        super().__init__(data)

    @classmethod
    def variable(cls, m: int, power: int = 1) -> "WeightedPoly":
        if m < 1 or power < 1:
            raise ValueError("need m >= 1 and power >= 1")
        return cls({((m, power),): 1})

    @classmethod
    def one(cls) -> "WeightedPoly":
        return cls({(): 1})

    def render(self) -> str:
        return render_sum(
            ((self.terms[M], render_mono(M)) for M in sorted(self.terms)), " "
        )


def mono_mul_var(M: Mono, m: int) -> Mono:
    out = dict(M)
    out[m] = out.get(m, 0) + 1
    return tuple(sorted(out.items()))


def mul_var(m: int, p: WeightedPoly) -> WeightedPoly:
    """Multiplication by the variable q_m."""
    return WeightedPoly(
        {mono_mul_var(M, m): c for M, c in p.terms.items()}
    )


def _takes(M: Mono, nu: int):
    """Each way of taking nu factors out of M, s_i of them from q_i^(p_i),
    as (sum of i s_i, nu! prod of C(p_i, s_i) i^(s_i), the rest of M)."""
    ways = [(0, 0, factorial(nu), ())]
    for i, p in M:
        ways = [
            (k + s, w + i * s, c * comb(p, s) * i**s, rest + (((i, p - s),) if s < p else ()))
            for k, w, c, rest in ways
            for s in range(min(p, nu - k) + 1)
        ]
    return [(w, c, rest) for k, w, c, rest in ways if k == nu]


def d_op(n: int, nu: int, p: WeightedPoly) -> WeightedPoly:
    """Apply D(n, nu) by its closed formula on each monomial."""
    if nu < 0 or (n + nu) < 0:
        raise ValueError("need nu >= 0 and n + nu >= 0")
    out: Dict[Mono, Q] = {}
    for M, c in p.terms.items():
        for w, f, rest in _takes(M, nu):
            if n + w >= 1:
                N = mono_mul_var(rest, n + w)
                out[N] = out.get(N, 0) + c * f
    return WeightedPoly(out)


def boundary(p: WeightedPoly) -> WeightedPoly:
    """The boundary operator -D(0, 2)/2."""
    return d_op(0, 2, p).scale(Q(-1, 2))


def q_derivative(n: int, order: int, p: WeightedPoly) -> WeightedPoly:
    """The iterated boundary derivative of q_n, equal to (-n)^order D(n, order)."""
    return d_op(n, order, p).scale(Q(-n) ** order)


def ch_op(nu: int, p: WeightedPoly) -> WeightedPoly:
    """Degree-nu part of the Chern character operator of the tautological sheaf."""
    sign = Q(-1) ** nu
    return d_op(0, nu + 1, p).scale(sign / factorial(nu + 1))


def npartitions(n: int) -> int:
    """Number of partitions of n."""
    dp = [1] + [0] * n
    for m in range(1, n + 1):
        for w in range(m, n + 1):
            dp[w] += dp[w - m]
    return dp[n]


def _reduce(vec: Dict[Mono, Q], basis: Dict[Mono, Dict[Mono, Q]]):
    vec = dict(vec)
    while vec:
        piv = max(vec)
        b = basis.get(piv)
        if b is None:
            c = vec[piv]
            return {M: x / c for M, x in vec.items()}, piv
        axpy(vec, b, -vec[piv])
    return None, None


def generation_check(n: int) -> Tuple[int, bool]:
    """Span closure of q_1^n under the Chern character components.

    Returns the dimension of the subspace of the weight-n space generated
    from q_1^n by the operators ch_0 .. ch_{n-1}, and whether it equals the
    number of partitions of n (the full dimension).
    """
    if n < 1:
        return (1, True)
    start = WeightedPoly.variable(1, n)
    basis: Dict[Mono, Dict[Mono, Q]] = {}
    red, piv = _reduce(start.terms, basis)
    basis[piv] = red
    frontier = [WeightedPoly(red)]
    for _ in range(n):
        new_frontier = []
        for v in frontier:
            for nu in range(n):
                w = ch_op(nu, v)
                if w.is_zero():
                    continue
                red, piv = _reduce(w.terms, basis)
                if red is not None:
                    basis[piv] = red
                    new_frontier.append(WeightedPoly(red))
        if not new_frontier:
            break
        frontier = new_frontier
    rank = len(basis)
    return rank, rank == npartitions(n)
