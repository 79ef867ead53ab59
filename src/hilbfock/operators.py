"""Operators on the Fock space: boundary, Virasoro, and Chern class operators.

All operators are assembled from the oscillators.  The boundary operator is
characterized by annihilating the vacuum together with the commutation rule

    [boundary, q_n(a)] = n * L_n(a) + n*(|n|-1)/2 * q_n(K.a),

where L_n is the Virasoro operator built from the diagonal class and K is
the canonical class of the surface.  Higher derivatives of operators are
iterated commutators with the boundary.

Unrolling that rule over a canonical monomial M = prod_i q_(n_i)(s_i)|0>
gives the closed cut-and-join form

    D M = sum_i [ n_i/2 sum_(c,s',s'') in delta(s_i) sum_(nu=1)^(n_i-1)
                      c q_nu(s') q_(n_i-nu)(s'') M-{i}
                  - sum_(j>i) n_i n_j sum_(c,s',s'') in delta(s_i)
                      c <s'',s_j> q_(n_i+n_j)(s') M-{i,j}
                  + n_i(n_i-1)/2 k_i q_(n_i)(t_i) M-{i} ],

where M-{i} is M without its i-th factor and K.s_i = k_i t_i.  The cut,
join and K coefficients are tabulated once per engine as integers over one
model denominator, the lcm of the denominators of c/2, c <s'',t> and k/2,
so D is filled in integers.

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
on the first lookup; the boundary columns D are one table keyed by id.  A
column holds numerators over the one denominator its formula implies.
With ``_qden`` the lcm of the denominators of the pairings <s, t> and
``_den`` the model denominator of D, a q column is over ``_qden``, and the
L, e and q' columns, built from a cut-table entry c/2 and two oscillators,
are over ``_Lden = _den * _qden**2``.  Monomial tuples and ``Fraction``s
appear only at the public operators, which convert a :class:`FockVector`
in and out once per call.
The higher derivatives ad^nu(q_n) and the Chern class operators act on
whole vectors through one integer kernel, :meth:`OperatorEngine._ad_series`,
which can form the part of one degree alone; the top Segre numbers use
that for the last weight step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import groupby
from math import comb, factorial, inf, lcm
from typing import Callable, Dict, List, Optional, Tuple

from .fock import FockVector, Monomial, mono_degree, mono_insert, mono_weight, vacuum
from .linear import IntVec, axpy, int_apply, int_combine, int_reduce, int_vec
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
        super().__init__()
        self.fill = fill

    def __missing__(self, k):
        v = self[k] = self.fill(k)
        return v


class _Family(_Table):
    """One column table per (index, symbol): ``fam[m, sym][i]`` is
    ``fill(m, sym, i)``, filled on the first lookup and kept.  Its len() is
    the number of columns held."""

    __slots__ = ()

    def __init__(self, fill: Callable):
        super().__init__(lambda k: _Table(partial(fill, *k)))

    def __len__(self):
        return sum(map(len, self.values()))


def _boundary_tables(model: SurfaceModel):
    """The cut, join and K tables of D, as integers over one denominator.

    ``cut[s]`` holds (c/2, s', s'') for (c, s', s'') in delta(s),
    ``join[s, t]`` holds (x, s') with x the sum of c <s'', t> over delta(s),
    and ``kterm[s]`` holds (k/2, t) for K.s = k t.  The model denominator is
    the lcm of the denominators of all these entries; each entry is stored as
    its numerator over it.
    """
    syms = model.symbols
    cut = {s: [(c / 2, s1, s2) for c, s1, s2 in model.delta_triples(s)] for s in syms}
    join = {}
    for s in syms:
        for t in syms:
            row: Dict[str, Q] = {}
            for c, s1, s2 in model.delta_triples(s):
                row[s1] = row.get(s1, 0) + c * model.pair_sym(s2, t)
            join[s, t] = [(x, s1) for s1, x in row.items() if x]
    kterm = {}
    for s in syms:
        p = model.prod_sym("k", s)
        kterm[s] = [(p[0] / 2, p[1])] if p is not None and p[0] else []
    tables = (cut, join, kterm)
    den = lcm(*(e[0].denominator for t in tables for row in t.values() for e in row))

    def scaled(row):
        return [(_scaled(x, den), *labels) for x, *labels in row]

    return den, *({k: scaled(row) for k, row in t.items()} for t in tables)


# -- column fills: the engine binds the tables, then (index, symbol), id ----

def _q_column(ids, monos, ins, pair, qden, m: int, sym: str, i: int) -> Column:
    """q_m(sym) on the monomial of id i, over qden: for m = -n < 0,
    removing a factor q_n(s) contributes -n <sym, s>; q_0 is zero."""
    if m > 0:
        return {ins[m, sym][i]: qden}
    M = monos[i]
    out: Column = {}
    for j, (k, s) in enumerate(M):
        c = pair[sym, s]
        if k == -m and c:
            N = ids[M[:j] + M[j + 1:]]
            out[N] = out.get(N, 0) + m * c
    return out


def _pairs(q: _Family, cut, monos, sign: int, m: int, sym: str, i: int) -> Column:
    """L_m(sym) M for sign 1, or e_m(sym) M for sign -1, over _Lden, for M
    of id i: the pairs q_(m-mu)(s') q_mu(s'') M with mu <= m // 2, each
    unordered pair once as delta is symmetric, or minus those with mu < 0,
    the ones that hold an annihilator.  The cut table of D holds c/2 for
    (c, s', s'') in delta over _den, and each oscillator is over _qden."""
    raw: Column = {}
    low = -mono_weight(monos[i])
    top = m // 2 if sign > 0 else min(-1, m // 2)
    for c, s1, s2 in cut[sym]:
        for mu in range(low, top + 1):
            nu = m - mu
            if mu and nu:
                t = q[mu, s2][i]
                if t:
                    int_apply(raw, q[nu, s1].__getitem__, t, sign * (c if nu == mu else 2 * c))
    return {N: x for N, x in raw.items() if x}


def _qprime_column(q, L, kterm, qden, n: int, sym: str, i: int) -> Column:
    """q'_n(sym) M = n L_n(sym) M + n(|n|-1)/2 k q_n(t) M, K.sym = k t,
    over _Lden; the K table of D holds k/2 over _den."""
    raw = {N: n * x for N, x in L[n, sym][i].items()}
    for k, t in kterm[sym] if abs(n) > 1 else ():
        f = n * (abs(n) - 1) * k * qden
        for N, y in q[n, t][i].items():
            raw[N] = raw.get(N, 0) + f * y
    return {N: x for N, x in raw.items() if x}


def _boundary_column(ids, monos, ins, cut, join, kterm, i: int) -> Column:
    """D on the monomial of id i by the cut-and-join formula of the module
    docstring, as integer numerators over the model denominator.

    Equal factors are taken together: a factor q_n(s) of multiplicity m
    cuts into q_nu(s') q_(n-nu)(s'') with weight m * n * c/2 for each
    (c, s', s'') in delta(s) and 0 < nu < n, turns into q_n(t) with weight
    m * n(n-1)/2 * k for K.s = k t, and joins each later factor q_n2(s2),
    and each other copy of itself, into q_(n+n2)(s') with weight
    -n * n2 * c <s'', s2>.  Each image is an insertion into the monomial
    without the factors used up.  No other column family is read.
    """
    M = monos[i]
    groups = [(f, len(list(copies))) for f, copies in groupby(M)]
    num: Column = {}
    get = num.get
    for a, (f, m) in enumerate(groups):
        n, s = f
        rest = _without(M, f)
        r = ids[rest]
        w = m * n
        for c, s1, s2 in cut[s]:
            for nu in range(1, n):
                N = ins[n - nu, s2][ins[nu, s1][r]]
                num[N] = get(N, 0) + w * c
        if n > 1:
            for c, t in kterm[s]:
                N = ins[n, t][r]
                num[N] = get(N, 0) + w * (n - 1) * c
        joins = [(f, m * (m - 1) // 2)] if m > 1 else []
        joins += [(g, m * m2) for g, m2 in groups[a + 1:]]
        for (n2, s2), pairs in joins:
            r2 = ids[_without(rest, (n2, s2))]
            w2 = -pairs * n * n2
            for c, s1 in join[s, s2]:
                N = ins[n + n2, s1][r2]
                num[N] = get(N, 0) + w2 * c
    return {N: x for N, x in num.items() if x}


def _mat_vec(column: Callable[[int], Column], den: int, v: IntVec) -> IntVec:
    """The operator with the given integer columns over ``den`` on v."""
    num, vden = v
    return int_reduce(int_apply({}, column, num), vden * den)


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
        self._pair, self._qden = int_vec(
            {(s, t): model.pair_sym(s, t) for s in syms for t in syms}
        )
        self._Lden = self._den * self._qden**2
        # the column tables, over _qden (q), _Lden (L, e, q') and _den (D)
        cut, kterm = self._cut, self._kterm
        q = self._q_cache = _Family(partial(_q_column, ids, monos, ins, self._pair, self._qden))
        L = self._L_cache = _Family(partial(_pairs, q, cut, monos, 1))
        self._e_cache = _Family(partial(_pairs, q, cut, monos, -1))
        self._qp_cache = _Family(partial(_qprime_column, q, L, kterm, self._qden))
        self._b_cache = _Table(partial(_boundary_column, ids, monos, ins, cut, self._join, kterm))
        # Always empty: higher derivatives are not memoized per monomial. It
        # stays because perfbench/probes.py reads every cache attribute.
        self._qd_cache: Dict[Tuple[int, int, str, int], Column] = {}

    # -- conversion at the public operators --------------------------------

    def _terms(self, v: FockVector) -> List[Tuple[int, Q]]:
        """The terms of v as (id, coefficient) pairs."""
        ids = self._ids
        return [(ids[M], c) for M, c in v.terms.items()]

    def _in(self, v: FockVector) -> IntVec:
        """v as an integer vector keyed by ids."""
        return int_vec(dict(self._terms(v)))

    def _out(self, v: IntVec) -> FockVector:
        """An integer vector keyed by ids as a Fock vector."""
        num, den = v
        monos = self._monos
        return FockVector({monos[i]: Q(x, den) for i, x in num.items()})

    def _apply(self, fam: _Family, den: int, m: int, a: CohClass, v: FockVector) -> FockVector:
        """The column family ``fam[m, sym] / den``, extended bilinearly."""
        w = self._in(v)
        return self._out(
            int_combine((c, _mat_vec(fam[m, sym].__getitem__, den, w)) for sym, c in a.terms.items())
        )

    # -- the column operators ---------------------------------------------

    def q(self, m: int, a: CohClass, v: FockVector) -> FockVector:
        return self._apply(self._q_cache, self._qden, m, a, v)

    def _q_int(self, m: int, sym: str, v: IntVec) -> IntVec:
        """q_m(sym) on an integer vector: for m >= 1 a relabelling."""
        num, den = v
        if m > 0:
            ins = self._ins[m, sym]
            return {ins[i]: c for i, c in num.items()}, den
        return _mat_vec(self._q_cache[m, sym].__getitem__, self._qden, v)

    def virasoro(self, m: int, a: CohClass, v: FockVector) -> FockVector:
        return self._apply(self._L_cache, self._Lden, m, a, v)

    def e_op(self, n: int, a: CohClass, v: FockVector) -> FockVector:
        return self._apply(self._e_cache, self._Lden, n, a, v)

    def boundary(self, v: FockVector) -> FockVector:
        return self._out(_mat_vec(self._b_cache.__getitem__, self._den, self._in(v)))

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

        The powers are kept split by degree.  D raises the degree by 2 and
        q_n(sym) by 2n - 2 + deg sym, so for a target degree the parts of
        ``D^j v`` above ``degree - (2n - 2)`` are dropped, and at Horner
        index i only the terms q_n(sym) D^j v of degree ``degree - 2i`` are
        kept.  Nothing else reaches the target degree, so the result is its
        exact degree-``degree`` part.  A truncated step is the last of a
        chain, so the D columns of the accumulator, of weight w + n, are
        then not memoized: nothing reads them again.

        v and the result are integer vectors keyed by monomial ids, and D
        is read from the integer boundary memo.
        """
        num, den = v
        if not num:
            return {}, 1
        monos, degs = self._monos, self._degs
        top = 2 * max(mono_weight(monos[i]) for i in num) + n + 1
        rows = []
        for b, cls in series:
            row = [b(nu) for nu in range(top + 1)]
            while row and not row[-1]:
                row.pop()
            if row and cls:
                rows.append((row, cls))
        nu_last = max((len(row) for row, _ in rows), default=0) - 1
        cap = inf if degree is None else degree - (2 * n - 2)
        b = self._b_cache
        last = b.__getitem__ if degree is None else b.fill
        # powers[j][e] is the degree-e part of D^j v
        split: Dict[int, Column] = {}
        for i, c in num.items():
            e = degs[i]
            if e <= cap:
                split.setdefault(e, {})[i] = c
        powers = [{e: int_reduce(part, den) for e, part in split.items()}]
        while len(powers) <= nu_last:
            nxt = {}
            for e, part in powers[-1].items():
                if e + 2 <= cap:
                    p = _mat_vec(b.__getitem__, self._den, part)
                    if p[0]:
                        nxt[e + 2] = p
            if not nxt:
                break
            powers.append(nxt)
        shift = {sym: 2 * n - 2 + d for sym, d in self.model.degree.items()}
        # q_n(sym) applied to the degree-e part of D^j v, shared by every i
        created: Dict[Tuple[str, int, int], IntVec] = {}
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
            parts = [(Q(1), _mat_vec(last, self._den, acc))]
            for (sym, j), f in coeffs.items():
                if degree is None:
                    ds = powers[j]
                else:
                    ds = (degree - 2 * i - shift[sym],)
                for e in ds:
                    if e in powers[j]:
                        key = (sym, j, e)
                        if key not in created:
                            created[key] = self._q_int(n, sym, powers[j][e])
                        parts.append((f, created[key]))
            acc = int_combine(parts)
        return acc

    def q_derivatives(
        self, n: int, order: int, a: CohClass, v: FockVector
    ) -> List[FockVector]:
        """The derivatives q_n^(nu)(a) v for nu = 0 .. order: iterated
        boundary commutators, every order from one kernel pass.

        ad^nu(q_n(s)) raises the degree by 2(n + nu - 1) + deg s.  So on the
        degree-e part of v and the classes s of one degree, the kernel
        :meth:`_ad_series` with b_nu = 1 for nu <= order returns the sum of
        the orders, each in its own degree, and the orders are read off by
        degree: one pass per such pair of parts.
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        degs = self._degs
        parts: Dict[int, Dict[int, Q]] = {}
        for i, c in self._terms(v):
            parts.setdefault(degs[i], {})[i] = c
        classes: Dict[int, Dict[str, Q]] = {}
        for sym, c in a.terms.items():
            classes.setdefault(self.model.degree[sym], {})[sym] = c

        def upto(nu: int) -> int:
            return int(nu <= order)

        by_order: List[List[Tuple[Q, IntVec]]] = [[] for _ in range(order + 1)]
        for e, part in parts.items():
            for ds, cls in classes.items():
                num, den = self._ad_series(n, [(upto, cls)], int_vec(part))
                split: List[Column] = [{} for _ in range(order + 1)]
                base = e + ds + 2 * n - 2
                for i, x in num.items():
                    split[(degs[i] - base) // 2][i] = x
                for nu, vec in enumerate(split):
                    by_order[nu].append((Q(1), (vec, den)))
        return [self._out(int_combine(vecs)) for vecs in by_order]

    def q_derivative(
        self, n: int, order: int, a: CohClass, v: FockVector
    ) -> FockVector:
        """The order-th derivative of q_n(a): iterated boundary commutator.

        Order 1 is Lehn's commutator rule, memoized per monomial; higher
        orders come from :meth:`q_derivatives`.
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order == 0:
            return self.q(n, a, v)
        if order == 1:
            return self._apply(self._qp_cache, self._Lden, n, a, v)
        return self.q_derivatives(n, order, a, v)[order]

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
            for k, cls in ((0, {"1": Q(1)}), (1, u.c1.terms), (2, u.c2.terms))
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
        ``exp(D) q_1(ch(u)) exp(-D)`` with D the boundary operator.
        """
        series = [
            (lambda nu: Q(1, factorial(nu)), u.chern_character(self.model).terms)
        ]
        g: IntVec = ({}, 1)
        w: IntVec = ({self._ids[()]: 1}, 1)
        for _ in range(n):
            g = int_combine(
                [(Q(1), self._q_int(1, "1", g)), (Q(1), self._ad_series(1, series, w))]
            )
            w = self._q_int(1, "1", w)
        return self._out(g).scale(Q(1, factorial(n)))

    # -- vertex operator ---------------------------------------------------

    def vertex(self, gamma: CohClass, n_max: int) -> List[FockVector]:
        """Components of exp(sum over n of (-1)^(n-1)/n q_n(gamma)) applied
        to the vacuum, for weights 0 .. n_max."""
        comps: List[Dict[int, Q]] = [{self._ids[()]: Q(1)}]
        for m in range(1, n_max + 1):
            acc: Dict[int, Q] = {}
            for j in range(1, m + 1):
                for sym, cg in gamma.terms.items():
                    ins = self._ins[j, sym]
                    created = {ins[i]: c for i, c in comps[m - j].items()}
                    axpy(acc, created, (-1) ** (j - 1) * cg)
            comps.append({i: c / m for i, c in acc.items()})
        monos = self._monos
        return [FockVector({monos[i]: c for i, c in comp.items()}) for comp in comps]
