"""Operator calculus for the Hilbert schemes of points of the affine plane.

Here the Fock space is the polynomial ring in variables q_1, q_2, ...,
graded by weight(q_m) = m.  The scaled partial derivative del_m is m times
the derivative in q_m, and for n + nu >= 1 the basic operators are

    D(n, nu) = sum over ordered nu-tuples (n_1, .., n_nu) of positive
               integers of q_{n + n_1 + .. + n_nu} del_{n_1} .. del_{n_nu},

with D(n, 0) = multiplication by q_n (n >= 1) and D(0, 0) = 0.  The
boundary operator is -D(0, 2)/2, and the degree-nu component of the Chern
character operator of the rank-one tautological sheaf is
(-1)^nu D(0, nu+1) / (nu+1)!.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
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


def mono_weight(M: Mono) -> int:
    return sum(i * p for i, p in M)


def mono_mul_var(M: Mono, m: int) -> Mono:
    out = []
    done = False
    for i, p in M:
        if i == m:
            out.append((i, p + 1))
            done = True
        else:
            out.append((i, p))
    if not done:
        out.append((m, 1))
    return tuple(sorted(out))


def mul_var(m: int, p: WeightedPoly) -> WeightedPoly:
    """Multiplication by the variable q_m."""
    return WeightedPoly(
        {mono_mul_var(M, m): c for M, c in p.terms.items()}
    )


def partial(m: int, terms: Dict[Mono, Q]) -> Dict[Mono, Q]:
    """The scaled derivative del_m = m * d/dq_m on a term dictionary."""
    out: Dict[Mono, Q] = {}
    for M, c in terms.items():
        for j, (i, p) in enumerate(M):
            if i != m:
                continue
            if p == 1:
                M2 = M[:j] + M[j + 1:]
            else:
                M2 = M[:j] + ((i, p - 1),) + M[j + 1:]
            out[M2] = out.get(M2, Q(0)) + c * m * p
    return {M: c for M, c in out.items() if c}


def d_op(n: int, nu: int, p: WeightedPoly) -> WeightedPoly:
    """Apply D(n, nu)."""
    if nu < 0 or (n + nu) < 0:
        raise ValueError("need nu >= 0 and n + nu >= 0")
    if nu == 0:
        if n == 0:
            return WeightedPoly()
        if n < 0:
            raise ValueError("D(n, 0) needs n >= 1")
        return mul_var(n, p)
    # layer s -> result of removing total weight s with nu derivatives
    layers: Dict[int, Dict[Mono, Q]] = {0: dict(p.terms)}
    for _ in range(nu):
        new: Dict[int, Dict[Mono, Q]] = {}
        for s, terms in layers.items():
            indices = set()
            for M in terms:
                for i, _ in M:
                    indices.add(i)
            for m in indices:
                part = partial(m, terms)
                if part:
                    tgt = new.setdefault(s + m, {})
                    for M, c in part.items():
                        tgt[M] = tgt.get(M, Q(0)) + c
        layers = {
            s: {M: c for M, c in terms.items() if c}
            for s, terms in new.items()
        }
    out = WeightedPoly()
    for s, terms in layers.items():
        if n + s >= 1:
            out = out + mul_var(n + s, WeightedPoly(terms))
        # n + s == 0 would need the (undefined) variable q_0; with nu >= 1
        # and positive derivative indices this happens only for n < 0.
    return out


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
    start = WeightedPoly.variable(1) if n == 1 else WeightedPoly(
        {((1, n),): 1}
    )
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
