"""Fock space model for the direct sum of cohomologies of Hilbert schemes.

Vectors are rational linear combinations of normal-ordered monomials in
creation operators applied to the vacuum.  A monomial is a tuple of factors
``(index, symbol)`` with positive indices, sorted by descending index and,
for equal indices, by the symbol order ``1 < h < k < u1 < ... < pt``.
The bidegree of a factor is ``(index, 2*index - 2 + deg(symbol))``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from typing import Dict, List, Mapping, Tuple

from .linear import Combination, axpy, render_sum
from .surface import CohClass, SurfaceModel, _sym_rank

Q = Fraction

Factor = Tuple[int, str]
Monomial = Tuple[Factor, ...]


@cache
def _factor_key(f: Factor):
    return (-f[0], _sym_rank(f[1]))


def mono_weight(M: Monomial) -> int:
    return sum(i for i, _ in M)


def mono_degree(M: Monomial, model: SurfaceModel) -> int:
    return sum(2 * i - 2 + model.degree[s] for i, s in M)


def mono_insert(M: Monomial, n: int, sym: str) -> Monomial:
    """Insert a creation factor, keeping the canonical order."""
    f = (n, sym)
    at = bisect_right(M, _factor_key(f), key=_factor_key)
    return M[:at] + (f,) + M[at:]


def render_monomial(M: Monomial) -> str:
    if not M:
        return "1"
    return "*".join("q%d[%s]" % (i, s) for i, s in M)


def render_vector(v: FockVector) -> str:
    keys = sorted(
        v.terms,
        key=lambda M: (mono_weight(M), tuple(_factor_key(f) for f in M)),
    )
    return render_sum(((v.terms[M], render_monomial(M)) for M in keys), " ")


class FockVector(Combination):
    """A finite rational combination of canonical monomials."""

    __slots__ = ()

    # An entry of this class's own dict: the traced benchmark run counts the
    # vectors built by replacing FockVector.__dict__["__init__"].
    __init__ = Combination.__init__

    render = render_vector

    def coefficient(self, M: Monomial) -> Q:
        return self.terms.get(M, Q(0))

    def max_weight(self) -> int:
        return max((mono_weight(M) for M in self.terms), default=0)


def vacuum() -> FockVector:
    return FockVector({(): 1})


def q_mono(m: int, sym: str, M: Monomial, model: SurfaceModel) -> Dict[Monomial, Q]:
    """The oscillator q_m(sym) on one monomial, as ``{monomial: coefficient}``.

    For m > 0 it inserts a creation factor.  For m = -n < 0, removing a
    factor q_n(s) contributes the contraction coefficient
    ``-n * (sym.s integrated over the surface)``.  q_0 is zero.
    """
    if m > 0:
        return {mono_insert(M, m, sym): Q(1)}
    out: Dict[Monomial, Q] = {}
    n = -m
    for j, (i, s) in enumerate(M):
        if i != n:
            continue
        c = model.pair_sym(sym, s)
        if c:
            M2 = M[:j] + M[j + 1:]
            out[M2] = out.get(M2, Q(0)) - n * c
    return out


def _q_terms(
    m: int, a: CohClass, terms: Mapping[Monomial, Q], model: SurfaceModel
) -> Dict[Monomial, Q]:
    data: Dict[Monomial, Q] = {}
    for sym, ca in a.terms.items():
        for M, c in terms.items():
            axpy(data, q_mono(m, sym, M, model), c * ca)
    return data


def create(n: int, a: CohClass, v: FockVector, model: SurfaceModel) -> FockVector:
    """Apply the creation operator q_n(a), n >= 1."""
    if n < 1:
        raise ValueError("creation index must be positive")
    return q_op(n, a, v, model)


def annihilate(n: int, a: CohClass, v: FockVector, model: SurfaceModel) -> FockVector:
    """Apply the annihilation operator q_{-n}(a), n >= 1."""
    if n < 1:
        raise ValueError("annihilation index must be positive")
    return q_op(-n, a, v, model)


def q_op(m: int, a: CohClass, v: FockVector, model: SurfaceModel) -> FockVector:
    """The signed oscillator q_m(a); q_0 = 0 by convention."""
    return FockVector(_q_terms(m, a, v.terms, model))


def pairing(v: FockVector, w: FockVector, model: SurfaceModel) -> Q:
    """The graded intersection pairing.

    Computed by fully annihilating the monomials of ``v`` against ``w`` and
    reading off the vacuum coefficient, with the sign (-1)**weight.
    """
    total = Q(0)
    for M, c in v.terms.items():
        wt = mono_weight(M)
        cur = {N: x for N, x in w.terms.items() if mono_weight(N) == wt}
        for n, s in M:
            if not cur:
                break
            cur = _q_terms(-n, CohClass({s: 1}), cur, model)
        vac = cur.get((), Q(0))
        if vac:
            total += (Q(-1) ** wt) * c * vac
    return total


def integrate_hilb(v: FockVector, n: int, model: SurfaceModel) -> Q:
    """Evaluate the weight-n component against the fundamental class.

    Equals the pairing with q_1(1)^n / n! applied to the vacuum; only the
    monomial q_1(pt)^n survives the contraction.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    M = ((1, "pt"),) * n
    return v.terms.get(M, Q(0))


def monomials(model: SurfaceModel, max_weight: int) -> List[Monomial]:
    """All canonical monomials of weight up to max_weight.

    Depth-first: each monomial is followed by its extensions, which append
    factors no earlier than its last one in the canonical factor order.
    """
    factors = sorted(
        ((m, s) for m in range(1, max_weight + 1) for s in model.symbols),
        key=_factor_key,
    )
    out: List[Monomial] = [()]

    def extend(M: Monomial, w: int, start: int) -> None:
        for idx in range(start, len(factors)):
            f = factors[idx]
            if w + f[0] <= max_weight:
                M2 = M + (f,)
                out.append(M2)
                extend(M2, w + f[0], idx)

    extend((), 0, 0)
    return out


def dimension(n: int, i: int, model: SurfaceModel) -> int:
    """Number of canonical monomials of weight n and cohomological degree i."""
    if n < 0:
        return 0
    return sum(
        1
        for M in monomials(model, n)
        if mono_weight(M) == n and mono_degree(M, model) == i
    )
