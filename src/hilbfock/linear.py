"""Sparse rational linear combinations, shared by every space of the calculus.

Surface classes, Fock vectors and the polynomial models are all finite
combinations of basis keys with ``Fraction`` coefficients.  The
constructor of :class:`Combination` normalises them, so a ``terms`` dict
never holds a zero value.  Hot loops may instead hold a combination as an
:data:`IntVec`, integer numerators over one common denominator, which
avoids a ``Fraction`` gcd per operation.  :func:`solve_overdetermined`
is the package's one exact linear solver.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

Q = Fraction

#: Integer numerators over one common denominator: ``num[k] / den``.
IntVec = Tuple[Dict[Hashable, int], int]


def rat(x) -> Q:
    return x if isinstance(x, Q) else Q(x)


def q_str(x: Q) -> str:
    """A rational as its canonical ``p/q`` string."""
    return "%d/%d" % (x.numerator, x.denominator)


def axpy(acc: Dict[Hashable, Q], v: Mapping[Hashable, Q], c: Q) -> None:
    """``acc += c * v`` on term dicts, deleting the keys that cancel."""
    for k, x in v.items():
        y = acc.get(k)
        if y is None:
            acc[k] = x * c
        else:
            y = y + x * c
            if y:
                acc[k] = y
            else:
                del acc[k]


def int_vec(v: Mapping[Hashable, Q]) -> IntVec:
    """A rational term dict as integer numerators over their lcm."""
    den = lcm(*(x.denominator for x in v.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in v.items()}, den


def int_reduce(num: Dict[Hashable, int], den: int) -> IntVec:
    """Drop the zero numerators and divide out the common content."""
    num = {k: x for k, x in num.items() if x}
    g = gcd(den, *num.values())
    if g > 1:
        num = {k: x // g for k, x in num.items()}
        den //= g
    return num, den


def int_apply(
    out: Dict[Hashable, int],
    column: Callable[[Hashable], Mapping[Hashable, int]],
    num: Mapping[Hashable, int],
    f: int = 1,
) -> Dict[Hashable, int]:
    """``out += f * A num`` for the integer matrix A whose column at key k
    is ``column(k)``; returns ``out``, which may hold zeros."""
    get = out.get
    for k, c in num.items():
        c *= f
        for j, x in column(k).items():
            out[j] = get(j, 0) + c * x
    return out


class InconsistentSamples(ValueError):
    """Sampled values do not lie on any polynomial with the allowed support."""


def solve_overdetermined(rows: List[List[Q]], rhs: List[Q]) -> List[Q]:
    """Exact solution of a consistent overdetermined linear system, by
    Gauss-Jordan elimination over the rationals.  Raises ValueError on an
    empty system, InconsistentSamples when a row reduces to zero with a
    nonzero right-hand side, and else ValueError ("rank deficient") when a
    column has no pivot."""
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    rank = 0
    for col in range(ncols):
        sel = next((i for i in range(rank, len(aug)) if aug[i][col]), None)
        if sel is None:
            continue
        p = Q(aug[sel][col])
        top = [x / p for x in aug[sel]]
        aug[sel], aug[rank] = aug[rank], top
        for i, row in enumerate(aug):
            c = row[col]
            if c and i != rank:  # skip zeros of top: a Gram matrix is mostly zeros
                aug[i] = [x - c * y if y else x for x, y in zip(row, top)]
        rank += 1
    if any(row[-1] for row in aug[rank:]):
        raise InconsistentSamples("samples are not consistent with the model")
    if rank < ncols:
        raise ValueError("sample matrix is rank deficient; add more points")
    return [row[-1] for row in aug[:ncols]]


def render_sum(items: Iterable[Tuple[Q, str]], sep: str = "") -> str:
    """Render ``(coefficient, monomial)`` pairs as a signed sum.

    ``sep`` surrounds each sign after the first, so ``""`` gives
    ``1-h+1/2*pt`` and ``" "`` gives ``q1[h] - 2*q1[pt]``.  The monomial
    ``"1"`` prints as its bare coefficient; the empty sum prints as ``0``.
    """
    out = ""
    for c, mono in items:
        mag = abs(c)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        if not out:
            out = body if c > 0 else "-" + body
        else:
            out += sep + ("+" if c > 0 else "-") + sep + body
    return out or "0"


class Combination:
    """A finite rational combination of hashable keys.

    Subclasses fix the meaning of the keys and provide ``render()``.
    Objects of different subclasses never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Hashable, object]] = None):
        data: Dict[Hashable, Q] = {}
        if terms:
            for k, c in terms.items():
                c = rat(c)
                if c:
                    data[k] = c
        self.terms = data

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        data = dict(self.terms)
        for k, c in other.terms.items():
            y = data.get(k)
            data[k] = c if y is None else y + c
        return type(self)(data)

    def __sub__(self, other):
        data = dict(self.terms)
        for k, c in other.terms.items():
            y = data.get(k)
            data[k] = -c if y is None else y - c
        return type(self)(data)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = rat(c)
        return type(self)({k: c * x for k, x in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.render())
