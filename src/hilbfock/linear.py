"""Sparse rational linear combinations, shared by every space of the calculus.

Surface classes, Fock vectors and the polynomial models are all finite
combinations of basis keys with ``Fraction`` coefficients.  The
constructor of :class:`Combination` normalises them, so a ``terms`` dict
never holds a zero value.  Hot loops may instead hold a combination as an
:data:`IntVec`, integer numerators over one common denominator, which
avoids a ``Fraction`` gcd per operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

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


def frac_vec(v: IntVec) -> Dict[Hashable, Q]:
    """An integer vector as a rational term dict; the inverse of :func:`int_vec`."""
    num, den = v
    return {k: Q(x, den) for k, x in num.items()}


def int_reduce(num: Dict[Hashable, int], den: int) -> IntVec:
    """Drop the zero numerators and divide out the common content."""
    num = {k: x for k, x in num.items() if x}
    g = gcd(den, *num.values())
    if g > 1:
        num = {k: x // g for k, x in num.items()}
        den //= g
    return num, den


def int_combine(parts: Iterable[Tuple[Q, IntVec]]) -> IntVec:
    """``sum of c * v`` over ``(c, v)`` in ``parts``, with c rational."""
    scaled = [(c.numerator, num, den * c.denominator) for c, (num, den) in parts]
    den = lcm(*(d for c, num, d in scaled if c and num))
    out: Dict[Hashable, int] = {}
    get = out.get
    for c, num, d in scaled:
        if c and num:
            f = c * (den // d)
            for k, x in num.items():
                out[k] = get(k, 0) + f * x
    return int_reduce(out, den)


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
