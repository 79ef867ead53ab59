"""Operators on the Fock space: boundary, Virasoro, and Chern class operators.

All operators are assembled from the oscillators.  The boundary operator is
characterized by annihilating the vacuum together with the commutation rule

    [boundary, q_n(a)] = n * L_n(a) + n*(|n|-1)/2 * q_n(K.a),

where L_n is the Virasoro operator built from the diagonal class and K is
the canonical class of the surface.  Higher derivatives of operators are
iterated commutators with the boundary.

D is filled from that characterization alone: for n >= 1 the rule is a cut
and join of the new factor q_n(a) (:func:`_new_factor`), and D q_n(s) M' is
q_n(s) D M' plus that term.  The cut, join and K coefficients are tabulated
once per engine as integers over one model denominator, the lcm of the
denominators of c/2, of the products s.t and of x/2 for each term x t of
K.s, so D is filled in integers.  The canonical class K is read from the
model, so no basis symbol is named here.

L_n(a) is the normal-ordered pair sum of c q_(n-mu)(s') q_mu(s'') over
(c, s', s'') in delta(a) and mu <= n/2 with mu, n-mu != 0, halved when
mu = n-mu.  The truncated quadratic operator e_n is minus its pairs with
mu < 0, the ones that hold an annihilator.

An :class:`OperatorEngine` instance owns one monomial table and the column
tables of the operators.  The monomial table gives each monomial it meets a
small integer id, once, and keeps the reverse lists id -> monomial and id ->
degree; a creation factor q_m(sym) is an id -> id table filled on demand,
so no monomial tuple is hashed or rebuilt twice.  The oscillators q,
Virasoro operators L, truncated operators e and first derivatives q' are
families of tables, and ``fam[m, sym][i]`` is the image of the monomial of
id i, an integer column keyed by ids that a module fill function computes
on the first lookup (or, for q_m, m >= 1, a relabel formed on lookup and
not stored); the boundary columns D are one table keyed by id.  A column
holds numerators over the one denominator its formula implies.  With
``_qden`` the lcm of the denominators of the pairings <s, t> and ``_den``
the model denominator of D, a q column is over ``_qden``, the L and e
columns, built from a cut-table entry c/2 and two oscillators, are over
``_Lden = _den * _qden**2``, and a q' column, [D, q_n(s)], is over
``_den * _qden``.  Monomial tuples and ``Fraction``s
appear only at the public operators, which convert a :class:`FockVector`
in and out once per call; ``vertex`` and ``chern_char_class`` are sums
of the vectors that ``q`` and the kernel return.
The derivatives ad^nu(q_n) and the Chern class operators act on
whole vectors through one integer kernel, :meth:`OperatorEngine._ad_series`,
which sums Horner's rule into one integer accumulator over a denominator
fixed before its loop and can form the part of one degree alone; the top
Segre numbers use that for the last weight step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import groupby
from math import comb, factorial, inf, lcm
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Tuple

from .fock import FockVector, Monomial, mono_degree, mono_insert, mono_weight, vacuum
from .linear import IntVec, int_apply, int_reduce, int_vec
from .surface import CohClass, KClassSpec, SurfaceModel

Q = Fraction

#: A column of a memoized operator: integer numerators over its family
#: denominator, keyed by monomial id.
Column = Dict[int, int]


def gen_binomial(x: int, nu: int) -> Q:
    """Generalized binomial coefficient: falling factorial over nu factorial."""
    num = Q(1)
    for j in range(nu):
        num *= x - j
    return num / factorial(nu)


def _scaled(x: Q, den: int) -> int:
    """x * den, which must be an integer."""
    y = x * den
    if y.denominator != 1:
        raise ArithmeticError("%s is not a multiple of 1/%d" % (x, den))
    return y.numerator


def _without(M: Monomial, f) -> Monomial:
    """M with one copy of the factor f removed."""
    i = M.index(f)
    return M[:i] + M[i + 1:]


class _Table(dict):
    """A dict that fills a missing key k with ``fill(k)`` and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        self.fill = fill

    def __missing__(self, k):
        v = self[k] = self.fill(k)
        return v


class _Relabel(dict):
    """The column table of a creation oscillator q_m(sym), k = (m, sym),
    m >= 1: the column of id i is ``{ins[k][i]: den}``, formed on each
    lookup and never stored, so the table stays empty."""

    __slots__ = ("up", "den")

    def __init__(self, ins: _Table, k, den: int):
        self.up, self.den = ins[k], den

    def __getitem__(self, i: int) -> Column:
        return {self.up[i]: self.den}


class _Family(_Table):
    """One table per (index, symbol): ``fam[m, sym][i]`` over ``den`` is
    ``fill(m, sym, i)``, kept, or for m >= 1 and insertion tables
    ``created`` a :class:`_Relabel` column.  len() counts columns held."""

    __slots__ = ("den",)

    def __init__(self, fill: Callable, den: int, created: Optional[_Table] = None):
        def table(k):
            if created is not None and k[0] > 0:
                return _Relabel(created, k, den)
            return _Table(partial(fill, *k))

        super().__init__(table)
        self.den = den

    def __len__(self):
        return sum(map(len, self.values()))


class _SelfTable(_Table):
    """A :class:`_Table` whose fill takes the table: ``fill(table, k)``."""

    __slots__ = ()

    def __missing__(self, k):
        v = self[k] = self.fill(self, k)
        return v


def _boundary_tables(model: SurfaceModel):
    """The cut, join and K tables of D, as integers over one denominator.

    ``cut[s]`` holds (c/2, s', s'') for (c, s', s'') in delta(s),
    ``join[s, t]`` holds (x, u) for the product s.t = x u, which is delta(s)
    contracted with t, and ``kterm[s]`` holds (x/2, t) for each term x t of
    K.s, K the model's canonical class.  The model denominator is the lcm
    of the denominators of all these entries; each entry is stored as its
    numerator over it.
    """

    syms, K = model.symbols, model.canonical_class()
    cut = {s: [(c / 2, s1, s2) for c, s1, s2 in model.delta_triples(s)] for s in syms}
    join = {(s, t): [p] if (p := model.prod_sym(s, t)) else [] for s in syms for t in syms}
    kterm = {s: [(x / 2, t) for t, x in model.mul(K, CohClass({s: 1})).terms.items()] for s in syms}
    tables = (cut, join, kterm)
    den = lcm(*(e[0].denominator for t in tables for row in t.values() for e in row))

    def scaled(row):
        return [(_scaled(x, den), *labels) for x, *labels in row]

    return den, *({k: scaled(row) for k, row in t.items()} for t in tables)


# -- column fills: the engine binds the tables, then (index, symbol), id ----

#: The one read-only column of every vanishing column.
_EMPTY: Column = MappingProxyType({})


def _q_column(ids, monos, pair, m: int, sym: str, i: int) -> Column:
    """q_m(sym), m <= 0, on the monomial of id i, over _qden: removing a
    factor q_(-m)(s) contributes m <sym, s>; q_0 is zero."""
    M = monos[i]
    out: Column = {}
    for j, (k, s) in enumerate(M):
        c = pair[sym, s]
        if k == -m and c:
            N = ids[M[:j] + M[j + 1:]]
            out[N] = out.get(N, 0) + m * c
    return out or _EMPTY


def _pairs(q: _Family, cut, monos, sign: int, m: int, sym: str, i: int) -> Column:
    """L_m(sym) M for sign 1, or e_m(sym) M for sign -1, over _Lden, for M
    of id i: the pairs q_(m-mu)(s') q_mu(s'') M with mu <= m // 2, each
    unordered pair once as delta is symmetric, or minus those with mu < 0,
    the ones that hold an annihilator, of an index -mu that M has.  The cut
    table holds c/2 over _den, and each oscillator is over _qden."""
    raw: Column = {}
    top = m // 2 if sign > 0 else min(-1, m // 2)
    mus = sorted({-k for k, _ in monos[i] if -k <= top}) + list(range(1, top + 1))
    for c, s1, s2 in cut[sym]:
        for mu in mus:
            nu = m - mu
            if nu:
                t = q[mu, s2][i]
                if t:
                    int_apply(raw, q[nu, s1].__getitem__, t, sign * (c if nu == mu else 2 * c))
    return {N: x for N, x in raw.items() if x}


def _new_factor(ids, monos, ins, cut, join, kterm, n: int, s: str, i: int) -> Column:
    """[D, q_n(s)] = n L_n(s) + n(n-1)/2 q_n(K.s), n >= 1, on the monomial
    M of id i, over _den; the one place the rule lives.  q_n(s) cuts into
    q_nu(s') q_(n-nu)(s'') with weight n c/2 for (c, s', s'') in delta(s)
    and 0 < nu < n, turns into q_n(t) with weight n(n-1)/2 x for each term
    x t of K.s, and joins each factor q_n2(s2) of M into q_(n+n2)(u) with
    weight -n n2 x for the product s.s2 = x u."""
    M = monos[i]
    num: Column = {}
    for c, s1, s2 in cut[s]:
        for nu in range(1, n):
            N = ins[n - nu, s2][ins[nu, s1][i]]
            num[N] = num.get(N, 0) + n * c
    for c, t in kterm[s] if n > 1 else ():
        N = ins[n, t][i]
        num[N] = num.get(N, 0) + n * (n - 1) * c
    for f, copies in groupby(M):
        r = ids[_without(M, f)]
        w = -n * f[0] * len(list(copies))
        for c, s1 in join[s, f[1]]:
            N = ins[n + f[0], s1][r]
            num[N] = num.get(N, 0) + w * c
    return {N: x for N, x in num.items() if x}


def _commutator_column(q: _Family, b: _Table, new, qden: int, n: int, sym: str, i: int) -> Column:
    """q'_n(sym) = [D, q_n(sym)] on the monomial M of id i, over _den *
    _qden: ``new(n, sym, i)`` times _qden for n >= 1, else
    D q_n(sym) M - q_n(sym) D M from the q and D tables."""
    if n > 0:
        return {N: qden * x for N, x in new(n, sym, i).items()}
    col = q[n, sym]
    raw = int_apply({}, b.__getitem__, col[i])
    int_apply(raw, col.__getitem__, b[i], -1)
    return {N: x for N, x in raw.items() if x}


def _boundary_column(ids, monos, ins, new, b: _Table, i: int) -> Column:
    """D on the monomial M of id i, over _den: D|0> = 0 and, for the first
    factor q_n(s) of M, D q_n(s) M' = q_n(s) D M' + [D, q_n(s)] M', the
    column of M' in the D table ``b`` relabelled plus ``new(n, s, id of M')``."""
    M = monos[i]
    if not M:
        return _EMPTY
    r, up = ids[M[1:]], ins[M[0]]
    num = {up[k]: x for k, x in b[r].items()}
    for N, x in new(*M[0], r).items():
        num[N] = num.get(N, 0) + x
    return {N: x for N, x in num.items() if x}


class OperatorEngine:
    """Memoizing calculator for the operator calculus over one surface model."""

    def __init__(self, model: SurfaceModel):
        self.model = model
        # the monomial table: _ids[M] is the id of M, interned on first
        # lookup, and _monos[i], _degs[i] the monomial and degree of id i;
        # _ins[m, sym][i] is the id of q_m(sym) M_i for m >= 1.  The tables
        # and the column fills hold the lists and each other, never the
        # engine, so an engine is freed on its last reference.
        monos: List[Monomial] = []
        degs: List[int] = []

        def intern(M: Monomial) -> int:
            monos.append(M)
            degs.append(mono_degree(M, model))
            return len(monos) - 1

        ids = self._ids = _Table(intern)
        self._monos, self._degs = monos, degs
        ins = self._ins = _Table(lambda f: _Table(lambda i: ids[mono_insert(monos[i], *f)]))
        self._den, self._cut, self._join, self._kterm = _boundary_tables(model)
        syms = model.symbols
        self._pair, qden = int_vec(
            {(s, t): model.pair_sym(s, t) for s in syms for t in syms}
        )
        self._qden, self._Lden = qden, self._den * qden**2
        # the column tables, over _qden (q), _Lden (L, e), _den (D), _den * _qden (q')
        cut, join, kterm = self._cut, self._join, self._kterm
        new = partial(_new_factor, ids, monos, ins, cut, join, kterm)
        q = self._q_cache = _Family(partial(_q_column, ids, monos, self._pair), qden, ins)
        self._L_cache = _Family(partial(_pairs, q, cut, monos, 1), self._Lden)
        self._e_cache = _Family(partial(_pairs, q, cut, monos, -1), self._Lden)
        b = self._b_cache = _SelfTable(partial(_boundary_column, ids, monos, ins, new))
        self._qp_cache = _Family(partial(_commutator_column, q, b, new, qden), self._den * qden)
        # Always empty: higher derivatives are not memoized per monomial. It
        # stays because perfbench/probes.py reads every cache attribute.
        self._qd_cache: Dict[Tuple[int, int, str, int], Column] = {}

    # -- conversion at the public operators --------------------------------

    def _in(self, v: FockVector) -> IntVec:
        """v as an integer vector keyed by ids."""
        ids = self._ids
        return int_vec({ids[M]: c for M, c in v.terms.items()})

    def _out(self, v: IntVec) -> FockVector:
        """An integer vector keyed by ids as a Fock vector."""
        num, den = v
        monos = self._monos
        return FockVector({monos[i]: Q(x, den) for i, x in num.items()})

    def _apply(self, fam: _Family, m: int, a: CohClass, v: FockVector) -> FockVector:
        """The column family ``fam[m, sym]``, extended bilinearly: one
        integer sum over ``den(v) * den(a) * fam.den``, reduced once."""
        (num, den), (cs, cden) = self._in(v), int_vec(a.terms)
        out: Column = {}
        for sym, c in cs.items():
            int_apply(out, fam[m, sym].__getitem__, num, c)
        return self._out(int_reduce(out, den * cden * fam.den))

    # -- the column operators ---------------------------------------------

    def q(self, m: int, a: CohClass, v: FockVector) -> FockVector:
        return self._apply(self._q_cache, m, a, v)

    def virasoro(self, m: int, a: CohClass, v: FockVector) -> FockVector:
        return self._apply(self._L_cache, m, a, v)

    def e_op(self, n: int, a: CohClass, v: FockVector) -> FockVector:
        return self._apply(self._e_cache, n, a, v)

    def boundary(self, v: FockVector) -> FockVector:
        num, den = self._in(v)
        return self._out(int_reduce(int_apply({}, self._b_cache.__getitem__, num), den * self._den))

    # -- derivatives: one whole-vector kernel ------------------------------

    def _ad_series(
        self,
        n: int,
        series: List[Tuple[Callable[[int], Q], Dict[str, Q]]],
        v: IntVec,
        degree: Optional[int] = None,
    ) -> IntVec:
        """The sum over ``(b, c)`` in ``series`` and over nu of
        ``b(nu) * ad^nu(q_n(c)) v``, where ad is the commutator with the
        boundary operator D; with ``degree``, only its degree-``degree`` part.
        :meth:`q_derivative` of any order is one call on the one-entry
        series b_nu = [nu = order], and the Chern class operators one call
        per weight step.

        Expanding ad^nu(X) = sum over i + j = nu of
        binomial(nu, i) (-1)^j D^i X D^j gives the exact identity

            sum_nu b_nu ad^nu(X) v
                = sum_i D^i X [ sum_j b_(i+j) binomial(i+j, i) (-1)^j D^j v ],

        so the powers ``D^j v`` are formed once and shared by every class,
        and the sum over i is taken by Horner's rule, acc <- D acc + y_i.
        The series is folded into one row per basis class,
        ``coef[sym][nu] = sum of b(nu) c[sym]``; nu stops at nu_last, the
        last nonzero entry, and j where ``D^j v`` vanishes.  On a vector of
        weight at most w, nu <= 2w + n + 1 suffices: ad^nu(q_n(c)) raises
        the degree by 2(n + nu - 1) + deg c, and its result, of weight
        w + n, has degree at most 4(w + n).

        Every denominator is fixed before the loop.  With F the lcm of the
        denominators of coef, ``D^j v`` is over ``den * _den**j`` and acc at
        index i over ``den * _qden * F * _den**(nu_last - i)``, so D acc needs
        no rescale and each q_n(sym) D^j v is summed into acc in place with an
        integer multiplier; acc is reduced once, at the end.

        The powers are kept split by degree.  D raises the degree by 2 and
        q_n(sym) by 2n - 2 + deg sym, so for a target degree the parts of
        ``D^j v`` above ``degree - (2n - 2)`` are dropped, and at Horner
        index i only the terms q_n(sym) D^j v of degree ``degree - 2i`` are
        kept.  Nothing else reaches the target degree, so the result is its
        exact degree-``degree`` part.  A truncated step is the last of a
        chain, so the D columns of the accumulator, of weight w + n, are
        then not memoized: nothing reads them again.  v and the result are
        integer vectors keyed by monomial ids.
        """
        num, den = v
        monos, degs = self._monos, self._degs
        top = 2 * max((mono_weight(monos[i]) for i in num), default=0) + n + 1
        if not num or top < 0:
            return {}, 1
        coef: Dict[str, List[Q]] = {}
        for b, cls in series:
            for sym, c in cls.items():
                row = coef.get(sym, [0] * (top + 1))
                coef[sym] = [x + b(nu) * c for nu, x in enumerate(row)]
        F = lcm(*(x.denominator for row in coef.values() for x in row))
        rows = {sym: [_scaled(x, F) for x in row] for sym, row in coef.items()}
        nu_last = max((nu for row in rows.values() for nu, x in enumerate(row) if x), default=0)
        cap = inf if degree is None else degree - (2 * n - 2)
        b = self._b_cache
        # powers[j][e] is the degree-e part of D^j v, over den * _den**j
        powers: List[Dict[int, Column]] = [{}]
        for i, c in num.items():
            if degs[i] <= cap:
                powers[0].setdefault(degs[i], {})[i] = c
        while len(powers) <= nu_last:
            nxt = {}
            for e, part in powers[-1].items():
                if e + 2 <= cap:
                    p = {k: x for k, x in int_apply({}, b.__getitem__, part).items() if x}
                    if p:
                        nxt[e + 2] = p
            if not nxt:
                break
            powers.append(nxt)
        shift = {sym: 2 * n - 2 + d for sym, d in self.model.degree.items()}
        last = b.__getitem__ if degree is None else partial(b.fill, b)
        dpow = [self._den**k for k in range(nu_last + 1)]
        lift = self._qden if n > 0 else 1  # q_n(sym), n > 0: ins[n, sym] times _qden
        acc: Column = {}
        for i in range(nu_last, -1, -1):
            # a cancelled entry would fill a D column for nothing
            acc = int_apply({}, last, {k: x for k, x in acc.items() if x})
            get = acc.get
            for sym, row in rows.items():
                create = self._ins[n, sym] if n > 0 else self._q_cache[n, sym]
                e = None if degree is None else degree - 2 * i - shift[sym]
                for j in range(min(len(powers), nu_last + 1 - i)):
                    f = (-1) ** j * row[i + j] * comb(i + j, i) * dpow[nu_last - i - j] * lift
                    if not f:
                        continue
                    for part in powers[j].values() if e is None else [powers[j].get(e, {})]:
                        if n <= 0:
                            int_apply(acc, create.__getitem__, part, f)
                            continue
                        for k, x in part.items():
                            t = create[k]
                            acc[t] = get(t, 0) + f * x
        return int_reduce(acc, den * self._qden * F * dpow[-1])

    def q_derivative(
        self, n: int, order: int, a: CohClass, v: FockVector
    ) -> FockVector:
        """The order-th derivative ad^order(q_n(a)) v, ad the commutator
        with the boundary operator D.

        Every order is one :meth:`_ad_series` pass on the one-entry series
        b_nu = [nu = order], so order 1 derives [D, q_n(a)] v apart from
        the memoized q' columns that :func:`verify.suite_derivative` reads.
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        series = [(lambda nu: int(nu == order), a.terms)]
        return self._out(self._ad_series(n, series, self._in(v)))

    # -- Chern class operators ---------------------------------------------

    def big_c_apply(
        self, u: KClassSpec, v: FockVector, degree: Optional[int] = None
    ) -> FockVector:
        """Apply the total Chern class operator of the tautological sheaf of u.

        The operator is the sum over nu and k = 0, 1, 2 of
        ``binomial(rank - k, nu) * ad^nu(q_1(c_k(u)))``, where ad is the
        commutator with the boundary operator.  It is evaluated by the
        kernel :meth:`_ad_series` with X = q_1(c), so the boundary powers of
        v are shared by the three classes and nu <= 2(w + 1) on a vector of
        weight at most w.  With ``degree``, only the degree-``degree`` part
        of the result is formed.  The result is exact.
        """
        series = [
            (partial(gen_binomial, u.rank - k), cls)
            for k, cls in ((0, self.model.unit().terms), (1, u.c1.terms), (2, u.c2.terms))
        ]
        return self._out(self._ad_series(1, series, self._in(v), degree))

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
        ``exp(D) q_1(ch(u)) exp(-D)`` with D the boundary operator, one
        :meth:`_ad_series` pass on w = q_1(1)^j |0> per factor.
        """
        series = [(lambda nu: Q(1, factorial(nu)), u.chern_character(self.model).terms)]
        unit = self.model.unit()
        g, w = FockVector(), vacuum()
        for _ in range(n):
            g = self.q(1, unit, g) + self._out(self._ad_series(1, series, self._in(w)))
            w = self.q(1, unit, w)
        return g.scale(Q(1, factorial(n)))

    # -- vertex operator ---------------------------------------------------

    def vertex(self, gamma: CohClass, n_max: int) -> List[FockVector]:
        """Components S_0 .. S_n_max of exp(sum over n of (-1)^(n-1)/n
        q_n(gamma)) applied to the vacuum, by the recursion S_m = sum over
        j of (-1)^(j-1)/m q_j(gamma) S_(m-j); D is never read."""
        comps = [vacuum()]
        for m in range(1, n_max + 1):
            terms = (self.q(j, gamma, comps[m - j]).scale(Q((-1) ** (j - 1), m))
                     for j in range(1, m + 1))
            comps.append(sum(terms, FockVector()))
        return comps
