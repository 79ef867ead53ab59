"""Parametric model of the even rational cohomology ring of a polarized surface.

The ring has basis ``1``, ``h`` (a polarization class), ``k`` (the canonical
class), optional extra middle classes ``u1 .. ub``, and the point class
``pt``.  Products of degree-2 classes are determined by the intersection
numbers ``h.h = d``, ``h.k = pi``, ``k.k = kappa`` and ``ui.ui = 1``; all
cross products with the ``ui`` vanish, as do products of degree above four.
The topological Euler number is ``e = 4 + b2_extra``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .linear import Combination, rat, render_sum

Q = Fraction


class DegeneratePairing(ValueError):
    """The degree-2 intersection form is singular: d*kappa == pi**2."""


def _sym_rank(sym: str) -> Tuple[int, int]:
    # Global ordering of basis symbols: 1 < h < k < u1 < u2 < ... < pt.
    if sym == "1":
        return (0, 0)
    if sym == "h":
        return (1, 0)
    if sym == "k":
        return (2, 0)
    if sym == "pt":
        return (4, 0)
    return (3, int(sym[1:]))


def render_class(a: CohClass) -> str:
    """Render a class as e.g. ``1-h+1/2*pt``."""
    return render_sum((a.terms[s], s) for s in sorted(a.terms, key=_sym_rank))


class CohClass(Combination):
    """A sparse rational linear combination of the basis symbols."""

    __slots__ = ()

    render = render_class


_SYM = r"1|h|k|pt|u\d+"

# a ``*`` needs a coefficient before it and a symbol after it
_TERM_RE = re.compile(
    r"([+-]?)\s*(?:(\d+(?:/\d+)?)(\s*\*(?=\s*(?:%s)))?)?\s*(%s)?\s*" % (_SYM, _SYM)
)


def parse_class(text: str, model: "SurfaceModel") -> CohClass:
    """Parse a class expression such as ``2h-k`` or ``1-h+1/2*pt``.

    Every term after the first needs its sign: ``hk`` and ``2 3`` are
    malformed, not sums.  The symbol ``1`` after a coefficient needs a
    ``*``: ``2*1`` is 2, ``21`` is 21 and ``2 1`` is malformed.
    """
    data: Dict[str, Q] = {}
    pos = 0
    text = text.strip()
    if not text:
        raise ValueError("empty class expression")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)  # every part is optional: it always matches
        sign, num, star, sym = m.groups()
        if (num is None and sym is None) or (pos and not sign) or (num and sym == "1" and not star):
            raise ValueError("malformed class expression: %r" % text)
        try:
            coeff = Q(num) if num else Q(1)
        except ZeroDivisionError:
            raise ValueError(
                "zero denominator in class expression: %r" % text
            ) from None
        sym = sym or "1"
        if sym not in model.symbols:
            raise ValueError("unknown symbol %r for this model" % sym)
        data[sym] = data.get(sym, Q(0)) + (-coeff if sign == "-" else coeff)
        pos = m.end()
    return CohClass(data)


class SurfaceModel:
    """Intersection theory of a polarized surface with parameters (d, pi, kappa, e).

    Raises :class:`DegeneratePairing` when ``d*kappa == pi**2``, since the
    diagonal class (and hence every operator built from it) needs the
    degree-2 intersection form to be invertible.
    """

    def __init__(self, d, pi, kappa, b2_extra: int = 0):
        self.d = rat(d)
        self.pi = rat(pi)
        self.kappa = rat(kappa)
        if not isinstance(b2_extra, int) or b2_extra < 0:
            raise ValueError("b2_extra must be a nonnegative integer")
        self.b2_extra = b2_extra
        self.det = self.d * self.kappa - self.pi * self.pi
        if self.det == 0:
            raise DegeneratePairing(
                "d*kappa - pi^2 = 0: degree-2 intersection form is singular"
            )
        self.e = 4 + b2_extra

        extras = tuple("u%d" % (i + 1) for i in range(b2_extra))
        self.symbols: Tuple[str, ...] = ("1", "h", "k") + extras + ("pt",)
        self.degree = {"1": 0, "h": 2, "k": 2, "pt": 4}
        for u in extras:
            self.degree[u] = 2

        # Product table on basis symbols: (s, t) -> (coefficient, symbol).
        prod: Dict[Tuple[str, str], Tuple[Q, str]] = {}
        for s in self.symbols:
            prod[("1", s)] = (Q(1), s)
            prod[(s, "1")] = (Q(1), s)
        prod[("h", "h")] = (self.d, "pt")
        prod[("h", "k")] = (self.pi, "pt")
        prod[("k", "h")] = (self.pi, "pt")
        prod[("k", "k")] = (self.kappa, "pt")
        for u in extras:
            prod[(u, u)] = (Q(1), "pt")
        self._prod = prod

        # Intersection numbers of pairs of basis symbols.
        pair: Dict[Tuple[str, str], Q] = {}
        for s in self.symbols:
            for t in self.symbols:
                p = prod.get((s, t))
                pair[(s, t)] = p[0] if p and p[1] == "pt" else Q(0)
        self._pair = pair

        # Dual basis with respect to the intersection form.
        dual: Dict[str, CohClass] = {
            "1": CohClass({"pt": 1}),
            "pt": CohClass({"1": 1}),
            "h": CohClass({"h": self.kappa / self.det, "k": -self.pi / self.det}),
            "k": CohClass({"h": -self.pi / self.det, "k": self.d / self.det}),
        }
        for u in extras:
            dual[u] = CohClass({u: 1})
        self._dual = dual

        # Diagonal class of each basis symbol, expanded into symbol pairs:
        # delta(s) = sum of c * (s1 tensor s2).
        delta: Dict[str, Tuple[Tuple[Q, str, str], ...]] = {}
        for s in self.symbols:
            triples: Dict[Tuple[str, str], Q] = {}
            for b in self.symbols:
                p = prod.get((s, b))
                if p is None:
                    continue
                c0, left = p
                if not c0:
                    continue
                for s2, c2 in dual[b].terms.items():
                    key = (left, s2)
                    triples[key] = triples.get(key, Q(0)) + c0 * c2
            delta[s] = tuple(
                (c, s1, s2) for (s1, s2), c in triples.items() if c
            )
        self._delta = delta

    # -- ring operations ---------------------------------------------------

    def prod_sym(self, s: str, t: str) -> Optional[Tuple[Q, str]]:
        """Product of two basis symbols as (coefficient, symbol), or None."""
        return self._prod.get((s, t))

    def mul(self, a: CohClass, b: CohClass) -> CohClass:
        data: Dict[str, Q] = {}
        for s, cs in a.terms.items():
            for t, ct in b.terms.items():
                p = self._prod.get((s, t))
                if p is None:
                    continue
                c, sym = p
                if c:
                    data[sym] = data.get(sym, Q(0)) + cs * ct * c
        return CohClass(data)

    def integrate(self, a: CohClass) -> Q:
        """Evaluate against the fundamental class: the coefficient of pt."""
        return a.terms.get("pt", Q(0))

    def pair(self, a: CohClass, b: CohClass) -> Q:
        return self.integrate(self.mul(a, b))

    def pair_sym(self, s: str, t: str) -> Q:
        return self._pair[(s, t)]

    def dual_basis(self, s: str) -> CohClass:
        return self._dual[s]

    def diagonal(self, a: CohClass) -> List[Tuple[CohClass, CohClass]]:
        """Push-forward of ``a`` along the diagonal, as tensor factors.

        Returns pairs (x_i, y_i) with delta(a) = sum of x_i tensor y_i,
        one pair per basis symbol b of the model: (a*b, dual(b)).
        """
        out = []
        for b in self.symbols:
            left = self.mul(a, CohClass({b: 1}))
            if not left.is_zero():
                out.append((left, self._dual[b]))
        return out

    def delta_triples(self, s: str) -> Tuple[Tuple[Q, str, str], ...]:
        """delta(s) fully expanded into (coefficient, symbol, symbol)."""
        return self._delta[s]

    # -- distinguished classes ---------------------------------------------

    def unit(self) -> CohClass:
        return CohClass({"1": 1})

    def point(self) -> CohClass:
        return CohClass({"pt": 1})

    def h_class(self) -> CohClass:
        return CohClass({"h": 1})

    def canonical_class(self) -> CohClass:
        return CohClass({"k": 1})

    def c2_class(self) -> CohClass:
        """Second Chern class of the tangent bundle: e * pt."""
        return CohClass({"pt": self.e})

    def __repr__(self) -> str:
        return "SurfaceModel(d=%s, pi=%s, kappa=%s, b2_extra=%d)" % (
            self.d,
            self.pi,
            self.kappa,
            self.b2_extra,
        )


def new_model(d, pi, kappa, b2_extra: int = 0) -> SurfaceModel:
    """Construct a surface model; raises DegeneratePairing if d*kappa == pi^2."""
    return SurfaceModel(d, pi, kappa, b2_extra)


class KClassSpec:
    """A K-theory class given by rank and the first two Chern classes."""

    __slots__ = ("rank", "c1", "c2")

    def __init__(self, rank: int, c1: CohClass, c2: CohClass):
        for sym in c1.terms:
            if sym in ("1", "pt"):
                raise ValueError("c1 must be a degree-2 class")
        for sym in c2.terms:
            if sym != "pt":
                raise ValueError("c2 must be a degree-4 class")
        self.rank = rank
        self.c1 = c1
        self.c2 = c2

    @classmethod
    def line_bundle(cls, c1: CohClass) -> "KClassSpec":
        return cls(1, c1, CohClass())

    def negate(self, model: SurfaceModel) -> "KClassSpec":
        # Chern classes of -u: c1 -> -c1, c2 -> c1^2 - c2.
        return KClassSpec(
            -self.rank, -self.c1, model.mul(self.c1, self.c1) - self.c2
        )

    def add(self, model: SurfaceModel, other: "KClassSpec") -> "KClassSpec":
        return KClassSpec(
            self.rank + other.rank,
            self.c1 + other.c1,
            self.c2 + other.c2 + model.mul(self.c1, other.c1),
        )

    def total_chern(self, model: SurfaceModel) -> CohClass:
        return model.unit() + self.c1 + self.c2

    def chern_character(self, model: SurfaceModel) -> CohClass:
        sq = model.mul(self.c1, self.c1)
        ch2 = Q(1, 2) * (sq - self.c2.scale(2))
        return CohClass({"1": self.rank}) + self.c1 + ch2

    def __repr__(self) -> str:
        return "KClassSpec(rank=%d, c1=%s, c2=%s)" % (
            self.rank,
            render_class(self.c1),
            render_class(self.c2),
        )
