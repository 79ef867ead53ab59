"""Fock space model for the direct sum of cohomologies of Hilbert schemes.

Vectors are rational linear combinations of normal-ordered monomials in
creation operators applied to the vacuum.  A monomial is a tuple of factors
``(index, symbol)`` with positive indices, sorted by descending index and,
for equal indices, by the symbol order ``1 < h < k < u1 < ... < pt``.
The bidegree of a factor is ``(index, 2*index - 2 + deg(symbol))``.

The oscillators q_n(a) live in :meth:`hilbfock.operators.OperatorEngine.q`;
the pairing here reads only the surface pairing, so it checks them
independently.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import prod
from typing import Dict, List, Tuple

from .linear import Combination, render_sum
from .surface import SurfaceModel, _sym_rank

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


def vacuum() -> FockVector:
    return FockVector({(): 1})


def pairing(v: FockVector, w: FockVector, model: SurfaceModel) -> Q:
    """The graded intersection pairing, from the surface pairing alone.

    Two monomials pair to the sum, over the ways to contract each factor
    q_n(s) of the first with a factor q_n(t) of the second, of the products
    of ``(-1)**(n-1) * n * <s, t>``; so monomials of different weights pair
    to zero.  Equal remainders are merged after each contraction.  This is
    (-1)**weight times the vacuum coefficient of the annihilators q_(-n)(s)
    applied in turn.
    """
    total = Q(0)
    for M, c in v.terms.items():
        cur = {N: x for N, x in w.terms.items() if len(N) == len(M)}
        for n, s in M:
            nxt: Dict[Monomial, Q] = {}
            for N, x in cur.items():
                for j, (i, t) in enumerate(N):
                    p = model.pair_sym(s, t) if i == n else 0
                    if p:
                        N2 = N[:j] + N[j + 1:]
                        nxt[N2] = nxt.get(N2, 0) + p * x
            cur = nxt
        vac = cur.get(())
        if vac:
            total += c * vac * prod((-1) ** (n - 1) * n for n, _ in M)
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
