"""The even rational cohomology ring of a polarized surface, from its lattice.

The ring has basis ``1``, named degree-2 classes (``h``, the polarization,
then any of ``k``, ``u1``, ``u2`` ...) and the point class ``pt``.  A
model is built from the Gram matrix of the degree-2 classes and the
canonical class K, a combination of them: the product of two degree-2
classes is their Gram entry times ``pt``, products of degree above four
vanish, the dual basis is the Gram inverse and the Euler number is
e = 2 + rank.  :func:`new_model` is the case of the parameters (d, pi,
kappa, b2): the classes h, k, u1 .. ub with h.h = d, h.k = pi, k.k = kappa,
ui.ui = 1, no other products, and K = k.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linear  # through the module, so perfbench's segre.solve probe times only fits
from .linear import Combination, rat, render_sum

Q = Fraction


class DegeneratePairing(ValueError):
    """The degree-2 intersection form (the Gram matrix) is singular."""


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
    """Intersection theory of a surface, built from its degree-2 lattice.

    ``names`` are the degree-2 basis classes (``h``, ``k``, ``u1`` ...;
    the polarization ``h`` is required), ``gram`` is their intersection
    matrix and ``canonical`` is the canonical class K, a combination of
    them.  ``d``, ``pi`` and ``kappa`` are h.h, h.K and K.K, and e is
    2 + rank.  Raises :class:`DegeneratePairing` on a singular Gram matrix,
    since the diagonal class (and hence every operator built from it) needs
    the degree-2 intersection form to be invertible.
    """

    def __init__(self, names: Sequence[str], gram: Sequence[Sequence], canonical: CohClass):
        names, r = tuple(names), len(names)
        self.gram = G = tuple(tuple(rat(x) for x in row) for row in gram)
        if not all(re.fullmatch(r"h|k|u\d+", s) for s in names) or len(set(names)) < r:
            raise ValueError("degree-2 classes need distinct names h, k or u<i>: %r" % (names,))
        if "h" not in names:
            raise ValueError("a surface model needs the polarization class h")
        if len(G) != r or any(len(row) != r for row in G) or tuple(zip(*G)) != G:
            raise ValueError("the Gram matrix must be square, symmetric and of size %d" % r)
        if not set(canonical.terms) <= set(names):
            raise ValueError("K must be a combination of %s" % ", ".join(names))
        try:  # the columns of the Gram inverse, which is symmetric
            inv = [linear.solve_overdetermined(G, [Q(i == j) for i in range(r)]) for j in range(r)]
        except ValueError:
            raise DegeneratePairing("the degree-2 intersection form is singular") from None
        self._K = canonical
        self.e = 2 + r
        self.symbols: Tuple[str, ...] = ("1",) + names + ("pt",)
        self.degree = {"1": 0, **dict.fromkeys(names, 2), "pt": 4}

        # Product table on basis symbols: (s, t) -> (coefficient, symbol).
        prod: Dict[Tuple[str, str], Tuple[Q, str]] = {}
        for s in self.symbols:
            prod[("1", s)] = prod[(s, "1")] = (Q(1), s)
        for i, s in enumerate(names):
            for j, t in enumerate(names):
                if G[i][j]:
                    prod[(s, t)] = (G[i][j], "pt")
        self._prod = prod

        # Intersection numbers of pairs of basis symbols.
        self._pair = {
            (s, t): p[0] if (p := prod.get((s, t))) and p[1] == "pt" else Q(0)
            for s in self.symbols for t in self.symbols
        }

        # Dual basis with respect to the intersection form.
        dual = {s: CohClass(dict(zip(names, col))) for s, col in zip(names, inv)}
        dual["1"], dual["pt"] = CohClass({"pt": 1}), CohClass({"1": 1})
        self._dual = dual
        h, K = self.h_class(), canonical
        self.d, self.pi, self.kappa = self.pair(h, h), self.pair(h, K), self.pair(K, K)

        # Diagonal class of each basis symbol, expanded into symbol pairs:
        # delta(s) = sum of c * (s1 tensor s2).
        delta: Dict[str, Tuple[Tuple[Q, str, str], ...]] = {}
        for s in self.symbols:
            triples: Dict[Tuple[str, str], Q] = {}
            for b in self.symbols:
                if (s, b) in prod:
                    c0, left = prod[(s, b)]
                    for s2, c2 in dual[b].terms.items():
                        key = (left, s2)
                        triples[key] = triples.get(key, Q(0)) + c0 * c2
            delta[s] = tuple((c, s1, s2) for (s1, s2), c in triples.items() if c)
        self._delta = delta

    # -- ring operations ---------------------------------------------------

    def prod_sym(self, s: str, t: str) -> Optional[Tuple[Q, str]]:
        """Product of two basis symbols as (coefficient, symbol), or None
        when it vanishes: the coefficient is never zero."""
        return self._prod.get((s, t))

    def mul(self, a: CohClass, b: CohClass) -> CohClass:
        data: Dict[str, Q] = {}
        for s, cs in a.terms.items():
            for t, ct in b.terms.items():
                p = self._prod.get((s, t))  # None when s.t vanishes
                if p is not None:
                    c, sym = p
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
        pairs = ((self.mul(a, CohClass({b: 1})), self._dual[b]) for b in self.symbols)
        return [(x, y) for x, y in pairs if not x.is_zero()]

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
        return self._K

    def c2_class(self) -> CohClass:
        """Second Chern class of the tangent bundle: e * pt."""
        return CohClass({"pt": self.e})

    def __repr__(self) -> str:
        gram = [[str(x) for x in row] for row in self.gram]
        return "SurfaceModel(%r, %s, K=%s)" % (self.symbols[1:-1], gram, render_class(self._K))


def new_model(d, pi, kappa, b2_extra: int = 0) -> SurfaceModel:
    """The model on h, k, u1 .. ub with Gram matrix [[d, pi], [pi, kappa]]
    plus the identity of size b = ``b2_extra``, and K = k; raises
    DegeneratePairing if d*kappa == pi^2."""
    if not isinstance(b2_extra, int) or b2_extra < 0:
        raise ValueError("b2_extra must be a nonnegative integer")
    gram = [[d, pi] + [0] * b2_extra, [pi, kappa] + [0] * b2_extra]
    gram += [[0, 0] + [int(i == j) for j in range(b2_extra)] for i in range(b2_extra)]
    names = ("h", "k") + tuple("u%d" % (i + 1) for i in range(b2_extra))
    return SurfaceModel(names, gram, CohClass({"k": 1}))


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
