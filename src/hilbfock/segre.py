"""Top Segre numbers of tautological bundles and their universal polynomials.

For a polarized surface model the number ``N_n`` is the degree of the top
Segre class of the rank-n tautological bundle of the dual polarization on
the weight-n space.  As a function of the surface it is a universal
polynomial with rational coefficients in the intersection numbers
``d, pi, kappa`` and the Euler number ``e``; the monomial
``d^a pi^b kappa^c e^f`` can occur only when ``a+b+c+f <= n`` and
``b+c+f <= n//2``.  The logarithm of the generating series has linear
coefficients ``d_m`` in the four parameters.
"""

from __future__ import annotations

import fcntl
import itertools
import json
import os
import random
from fractions import Fraction
from math import factorial, lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple

from . import ENGINE_VERSION
from .fock import integrate_hilb
from .linear import Combination, InconsistentSamples, q_str, rat, render_sum, solve_overdetermined
from .operators import OperatorEngine
from .series import PowerSeries, conjecture_series, log_coefficients
from .surface import KClassSpec, SurfaceModel, new_model

Q = Fraction

Expo = Tuple[int, int, int, int]  # exponents of d, pi, kappa, e
Params = Tuple[Q, Q, Q, int]  # (d, pi, kappa, b2_extra); an int serves as a Q


# -- universal polynomials -------------------------------------------------

_VARS = ("d", "pi", "kappa", "e")

#: The exponents of d, pi, kappa and e, the support of each d_m.
_LINEAR: Tuple[Expo, ...] = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class UnivPoly(Combination):
    """Polynomial in d, pi, kappa, e with rational coefficients."""

    __slots__ = ()

    def __mul__(self, other: "UnivPoly") -> "UnivPoly":
        data: Dict[Expo, Q] = {}
        for ex1, c1 in self.terms.items():
            for ex2, c2 in other.terms.items():
                ex = tuple(a + b for a, b in zip(ex1, ex2))
                data[ex] = data.get(ex, Q(0)) + c1 * c2
        return UnivPoly(data)

    def evaluate(self, d, pi, kappa, e) -> Q:
        """The value at a point of exact numbers; a float is refused.

        The point is put over one denominator b and the coefficients over
        their lcm, so each term is an int times b^(top - degree), from
        integer power tables, and only the sum becomes a Fraction.
        """
        vals = [rat(x) for x in (d, pi, kappa, e)]
        if not self.terms:
            return Q(0)
        b = lcm(*(x.denominator for x in vals))
        t_d, t_pi, t_kappa, t_e = (
            [(x.numerator * (b // x.denominator)) ** k for k in range(top_x + 1)]
            for x, top_x in zip(vals, map(max, zip(*self.terms)))
        )
        top = max(map(sum, self.terms))
        b_pow = [b**k for k in range(top + 1)]
        den = lcm(*(c.denominator for c in self.terms.values()))
        total = sum(
            c.numerator * (den // c.denominator) * b_pow[top - i - j - k - m]
            * t_d[i] * t_pi[j] * t_kappa[k] * t_e[m]
            for (i, j, k, m), c in self.terms.items()
        )
        return Q(total, den * b_pow[top])

    def is_linear(self) -> bool:
        return all(sum(ex) <= 1 for ex in self.terms)

    @staticmethod
    def _mono_key(ex: Expo) -> str:
        parts = []
        for v, p in zip(_VARS, ex):
            if p == 1:
                parts.append(v)
            elif p > 1:
                parts.append("%s^%d" % (v, p))
        return "*".join(parts) if parts else "1"

    def json_map(self) -> Dict[str, str]:
        out = {}
        for ex in sorted(self.terms, reverse=True):
            out[self._mono_key(ex)] = q_str(self.terms[ex])
        return out

    def render(self) -> str:
        return render_sum(
            (
                (self.terms[ex], self._mono_key(ex))
                for ex in sorted(self.terms, reverse=True)
            ),
            " ",
        )


def support_monomials(n: int) -> List[Expo]:
    """Allowed exponent patterns for the universal polynomial of N_n."""
    out = []
    half = n // 2
    for a in range(n + 1):
        for b in range(half + 1):
            for c in range(half + 1):
                for f in range(half + 1):
                    if a + b + c + f <= n and b + c + f <= half:
                        out.append((a, b, c, f))
    out.sort(reverse=True)
    return out


# -- direct computation ----------------------------------------------------

def minus_polarization(model: SurfaceModel) -> KClassSpec:
    """The K-class -[O(H)] whose tautological sheaf carries the Segre data."""
    return KClassSpec.line_bundle(model.h_class()).negate(model)


def segre_series(n_max: int, model: SurfaceModel) -> List[Q]:
    """The numbers N_0 .. N_{n_max} for one surface model.

    ``integrate_hilb`` reads only q_1(pt)^n, of degree 4n, so the last
    weight step forms only the degree-4n part.
    """
    engine, u = OperatorEngine(model), minus_polarization(model)
    comps = engine.total_chern_classes(u, max(n_max - 1, 0))
    if n_max > 0:
        comps.append(engine.big_c_apply(u, comps[-1], 4 * n_max).scale(Q(1, n_max)))
    return [integrate_hilb(v, j, model) for j, v in enumerate(comps)]


# -- sample cache ----------------------------------------------------------

def _is_header(line: str) -> bool:
    """Whether a cache line is the header of this engine version."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError:
        return False
    return isinstance(header, dict) and header.get("engine_version") == ENGINE_VERSION


def _coordinate(text: str) -> Q:
    """A cached ``p/q`` coordinate, as an int when it is integral."""
    x = Q(text)
    return x.numerator if x.denominator == 1 else x


class Sampler:
    """Computes and caches the numbers N_n over many surface models.

    The optional cache file is append-only JSON lines; the first line is a
    header recording the engine version, and each record stores one value
    with all rationals as canonical ``p/q`` strings; a load reads an
    integral coordinate as an int and any other as a Fraction, so a point
    of ints finds its records by int hashes and compares.  A file whose
    header is unreadable or names another engine version is not loaded,
    and is rewritten with a fresh header before the first new record, so
    that new records are not appended below the stale header and lost on
    reload.
    Record lines that do not decode to a complete record, with JSON
    integers for ``n`` and ``b2_extra`` and JSON strings for the rationals,
    are skipped and counted in ``corrupt_lines``; a byte that is not UTF-8
    spoils only its own line.  Each append, of one point's new records,
    holds an exclusive ``flock`` on the file and checks the header under
    it, so several processes may share one cache file.  The sampler reads
    no environment variable.  A path that is a directory, or whose
    directory does not exist, is refused with ValueError before anything
    is sampled.  ``jobs`` bounds the number of worker processes of
    :meth:`fill`.
    """

    def __init__(self, cache_path: Optional[str] = None, jobs: int = 1):
        self.cache_path = cache_path
        self.jobs = jobs
        self._mem: Dict[Tuple[int, Params], Q] = {}
        #: record lines of the cache file that could not be decoded
        self.corrupt_lines = 0
        if cache_path:
            if os.path.isdir(cache_path):
                raise ValueError("cache path %r is a directory" % cache_path)
            if not os.path.isdir(os.path.dirname(cache_path) or "."):
                raise ValueError("the directory of cache path %r does not exist" % cache_path)
            self._load()

    def _load(self) -> None:
        path = self.cache_path
        if not path or not os.path.exists(path):
            return
        with open(path, errors="replace") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            # not splitlines(): it also breaks at U+2028, U+0085 and the like,
            # which a record may hold unescaped
            lines = fh.read().split("\n")
        if not lines or not _is_header(lines[0]):
            return
        # each point is stored once per n; its strings are parsed once
        parsed: Dict[tuple, Params] = {}
        for ln in filter(str.strip, lines[1:]):
            try:
                rec = json.loads(ln)
                n, b2, value = rec["n"], rec["b2_extra"], rec["value"]
                raw = (rec["d"], rec["pi"], rec["kappa"], b2)
                # not int() or Q(): they would read 2.7, true or 0.1 as numbers
                t_d, t_pi, t_kappa = map(type, raw[:3])
                if not (type(n) is type(b2) is int and t_d is t_pi is t_kappa is type(value) is str):
                    raise TypeError("need JSON integers n and b2_extra, and strings")
                params = parsed.get(raw)
                if params is None:
                    params = parsed[raw] = (*map(_coordinate, raw[:3]), b2)
                self._mem[(n, params)] = Q(value)
            except (KeyError, TypeError, ValueError, ArithmeticError):
                self.corrupt_lines += 1

    def _append(self, params: Params, records: Sequence[Tuple[int, Q]]) -> None:
        """Append the records (n, N_n) of one point under one lock."""
        path = self.cache_path
        if not path or not records:
            return
        with open(path, "a+", errors="replace") as fh:
            # the header is read under the lock, so that of two processes
            # appending to one new or stale file only the first rewrites it
            fcntl.flock(fh, fcntl.LOCK_EX)
            fh.seek(0)
            if not _is_header(fh.readline()):
                fh.truncate(0)
                fh.write(json.dumps({"engine_version": ENGINE_VERSION}) + "\n")
            fh.seek(0, os.SEEK_END)
            (d, pi, kappa), b2 = map(q_str, params[:3]), params[3]
            for n, value in records:
                rec = {"n": n, "d": d, "pi": pi, "kappa": kappa, "b2_extra": b2, "value": q_str(value)}
                fh.write(json.dumps(rec) + "\n")

    def store(self, n: int, params: Params, value: Q) -> None:
        key = (n, params)
        if key not in self._mem:
            self._mem[key] = value
            self._append(params, ((n, value),))

    def fill(self, n_max: int, points: Sequence[Params]) -> None:
        """Compute and store N_0 .. N_{n_max} at each point missing one.

        With ``self.jobs > 1`` and more than one point to compute, the
        chains run in a pool of at most one worker per point; else serially.
        A point's new records are appended to the cache under one lock; the
        orders it already held keep their values.
        """
        tasks = [(n_max, p) for p in points if not self._holds(n_max, p)]
        if self.jobs > 1 and len(tasks) > 1:
            import multiprocessing

            with multiprocessing.Pool(min(self.jobs, len(tasks))) as pool:
                results = pool.map(_series_worker, tasks)
        else:
            results = map(_series_worker, tasks)
        for params, values in results:
            new = [(j, v) for j, v in enumerate(values) if (j, params) not in self._mem]
            self._mem.update(((j, params), v) for j, v in new)
            self._append(params, new)

    def _holds(self, n_max: int, p: Params) -> bool:
        """Whether N_0 .. N_n_max are all held at p."""
        return all((k, p) in self._mem for k in range(n_max + 1))

    def series(self, n_max: int, params: Params) -> List[Q]:
        self.fill(n_max, [params])
        return [self._mem[(j, params)] for j in range(n_max + 1)]

    def value(self, n: int, params: Params) -> Q:
        got = self._mem.get((n, params))
        return got if got is not None else self.series(n, params)[n]


def _series_worker(args) -> Tuple[Params, List[Q]]:
    n_max, params = args
    return params, segre_series(n_max, new_model(*params))


# -- interpolation ---------------------------------------------------------

#: Exponent k of each variable sits at origin + step * k on the lattice of
#: N_n, so (a, b, c, f) sits at (d, pi, kappa, e) = (1 + a, b, -1 - c, 4 + f).
_ORIGIN, _STEP = (1, 0, -1, 4), (1, 1, -1, 1)


#: The seed of the surplus points of :func:`sample_grid`.
_GRID_SEED = 20260826


def sample_grid(n: int, count: int) -> List[Params]:
    """The lattice point (d, pi, kappa, b2_extra) = (1 + a, b, -1 - c, f)
    of each exponent (a, b, c, f) of ``support_monomials(n)``, in that
    order, then ``count - |support|`` distinct nondegenerate models off the
    lattice from ``_GRID_SEED``: d in 1..9, pi and kappa in -4..4,
    ``b2_extra`` cycling through 0..n//2.  The points are tuples of ints.
    As d kappa < 0 <= pi^2 no lattice model is degenerate, and the lattice
    of n lies in that of n + 1.
    """
    lattice = []
    for ex in support_monomials(n):
        d, pi, kappa, e = (o + s * k for o, s, k in zip(_ORIGIN, _STEP, ex))
        lattice.append((d, pi, kappa, e - 4))
    out, seen = lattice[:count], set(lattice)
    rng = random.Random(_GRID_SEED)
    b2_cycle = itertools.cycle(range(n // 2 + 1))
    while len(out) < count:
        d, pi, kappa = rng.randint(1, 9), rng.randint(-4, 4), rng.randint(-4, 4)
        if d * kappa != pi * pi and (key := (d, pi, kappa, next(b2_cycle))) not in seen:
            seen.add(key)
            out.append(key)
    return out


def _divided_differences(v: List[int], t: Sequence[int]) -> None:
    """Integer values v_k = f(t_k) to the Newton coefficients f[t_0..t_k],
    in place.  Each division must be exact: a nonzero remainder raises
    ArithmeticError rather than being floored away.  ``t`` may hold more
    nodes than ``v`` has values.
    """
    for k in range(1, len(v)):
        for j in range(len(v) - 1, k - 1, -1):
            q, r = divmod(v[j] - v[j - 1], t[j] - t[j - k])
            if r:
                raise ArithmeticError("inexact divided difference at order %d" % k)
            v[j] = q


def _newton_to_monomial(c: List[int], t: Sequence[int]) -> None:
    """sum_k c_k prod_(j<k) (x - t_j) to its coefficients of x^k, in place."""
    for k in range(len(c) - 2, -1, -1):
        for j in range(k, len(c) - 1):
            c[j] -= t[k] * c[j + 1]


def _lattice_interpolate(support: Sequence[Expo], values: Sequence[Q]) -> UnivPoly:
    """The polynomial over the lower set ``support`` that takes ``values``,
    in support order, at its lattice points (:func:`sample_grid`).  Each
    line of a lower set along a variable holds its exponents 0..m, so the
    interpolation is unisolvent and solved line by line, one variable at a
    time (Dyn-Floater, J. Approx. Theory 177, 2014): divided differences
    give the coefficients of the Newton basis prod_i prod_(j < k_i) (x_i -
    t_ij), then Horner's rule the monomial coefficients.

    Both steps run on integer numerators over one denominator M, the lcm
    of the value denominators times prod_i m_i!, m_i the largest exponent
    of variable i in the support.  Lattice nodes are one step apart, so a
    divided difference of order k divides by +-k, and the k! of each
    variable divides M: every division is exact.  Each coefficient becomes
    one Fraction(x, M) at the end.
    """
    top = [max(ex[var] for ex in support) for var in range(4)]
    scale = lcm(*(x.denominator for x in values)) * prod(map(factorial, top))
    coef = [x.numerator * (scale // x.denominator) for x in values]
    # the lines of each variable, as indices into coef in increasing exponent
    index = {ex: i for i, ex in enumerate(support)}
    ordered = sorted(support)
    lines = []
    for var, (origin, stride) in enumerate(zip(_ORIGIN, _STEP)):
        by_rest: Dict[tuple, List[int]] = {}
        for ex in ordered:
            by_rest.setdefault(ex[:var] + ex[var + 1:], []).append(index[ex])
        nodes = [origin + stride * k for k in range(top[var] + 1)]
        lines.append((list(by_rest.values()), nodes))
    for step in (_divided_differences, _newton_to_monomial):
        for var_lines, nodes in lines:
            for line in var_lines:
                v = [coef[i] for i in line]
                step(v, nodes)
                for i, x in zip(line, v):
                    coef[i] = x
    return UnivPoly({ex: Q(x, scale) for ex, x in zip(support, coef) if x})


#: Sample points beyond the support size: their equations certify the bound.
EXTRA_POINTS = 3


def segre_polynomial(n: int, sampler: Optional[Sampler] = None) -> UnivPoly:
    """The universal polynomial for N_n, by exact interpolation on its
    lattice: the lattice values of ``sample_grid(n, |support| +
    EXTRA_POINTS)`` give the one polynomial over the support
    (:func:`_lattice_interpolate`), and it must take the sampled value at
    each surplus point, which certifies the support bound, or
    :class:`InconsistentSamples` is raised.
    """
    if sampler is None:
        sampler = Sampler()
    monos = support_monomials(n)
    grid = sample_grid(n, len(monos) + EXTRA_POINTS)
    sampler.fill(n, grid)
    values = [sampler.value(n, p) for p in grid]
    poly = _lattice_interpolate(monos, values)
    for (d, pi, kappa, b2), value in zip(grid[len(monos):], values[len(monos):]):
        if poly.evaluate(d, pi, kappa, 4 + b2) != value:
            raise InconsistentSamples("N_%d misses a surplus sample" % n)
    return poly


# -- log-series coefficients ----------------------------------------------

def dm_coefficients(polys: Sequence[UnivPoly]) -> List[UnivPoly]:
    """Coefficients d_m from universal polynomials N_0 .. N_max.

    Defined through log(sum N_n z^n) = sum of (-1)^(m-1) d_m z^m / m; each
    d_m must come out linear in (d, pi, kappa, e), which is asserted.
    """
    if polys[0] != UnivPoly({(0, 0, 0, 0): 1}):
        raise ValueError("N_0 must be 1")
    L = log_coefficients(polys)
    out = [UnivPoly()]
    for m in range(1, len(polys)):
        dm = L[m].scale(Q((-1) ** (m - 1)) * m)
        if not dm.is_linear():
            raise InconsistentSamples(
                "d_%d is not linear in (d, pi, kappa, e)" % m
            )
        out.append(dm)
    return out


_FIT_TUPLES: Tuple[Params, ...] = (
    (1, 0, -1, 0),
    (2, 1, -1, 0),
    (3, -1, 2, 0),
    (1, 1, 2, 0),
    (2, -1, 1, 1),
    (3, 2, 2, 1),
)


def fit_dm_linear(m_max: int, sampler: Optional[Sampler] = None) -> List[UnivPoly]:
    """The coefficients d_1 .. d_{m_max} by an exact linear fit.

    Each d_m is linear in (d, pi, kappa, e), so numeric log-series samples
    at the overdetermined set ``_FIT_TUPLES`` pin it down; all m are fitted
    by one :func:`solve_overdetermined`.  Nonzero residuals or a nonzero
    constant term raise InconsistentSamples.
    """
    if sampler is None:
        sampler = Sampler()
    sampler.fill(m_max, _FIT_TUPLES)
    logs = [
        PowerSeries([sampler.value(j, p) for j in range(m_max + 1)]).log()
        for p in _FIT_TUPLES
    ]
    # one column per monomial of _LINEAR, then the constant term
    rows = [[d, pi, kappa, 4 + b2, 1] for d, pi, kappa, b2 in _FIT_TUPLES]
    values = [
        [Q((-1) ** (m - 1)) * m * s.coefficient(m) for s in logs] for m in range(1, m_max + 1)
    ]
    out = [UnivPoly()]
    for m, coeffs in enumerate(solve_overdetermined(rows, values), 1):
        dm = UnivPoly(dict(zip(_LINEAR + ((0, 0, 0, 0),), coeffs)))
        if (0, 0, 0, 0) in dm.terms:
            raise InconsistentSamples("d_%d has a nonzero constant term" % m)
        out.append(dm)
    return out


# -- published coefficient table ------------------------------------------

def _lin(*coeffs) -> UnivPoly:
    return UnivPoly(dict(zip(_LINEAR, coeffs)))


#: Known values of the log-series coefficients, for cross-checking.
#: The kappa coefficient of d_7 is sometimes printed as 2326192; the value
#: below is certified by the closed-form generating series at several
#: independent parameter tuples (the printed figure transposes two digits).
KNOWN_DM: Dict[int, UnivPoly] = {
    1: _lin(1, 0, 0, 0),
    2: _lin(10, 5, 1, -1),
    3: _lin(112, 96, 28, -20),
    4: _lin(1320, 1507, 550, -324),
    5: _lin(16016, 22120, 9440, -4880),
    6: _lin(198016, 314738, 151260, -70976),
    7: _lin(2480640, 4402720, 2326912, -1012032),
    # d_8..d_10 are past the published table: computed by ``dm --max-m 10``
    # (operator calculus and interpolation) and equal to the log
    # coefficients of the closed-form series, which is a theorem
    # (Marian-Oprea-Pandharipande), at several rational parameter tuples.
    8: _lin(31380096, 60954531, 34858362, -14251584),
    9: _lin(399942400, 838236984, 512645008, -199010816),
    10: _lin(5127682560, 11474150150, 7438370036, -2762424576),
}


# -- conjectural closed form ----------------------------------------------

def check_conjecture(
    n_max: int, params: Params, sampler: Optional[Sampler] = None
) -> List[dict]:
    """Compare computed N_n against the closed-form candidate series."""
    if sampler is None:
        sampler = Sampler()
    d, pi, kappa, b2 = params
    computed = sampler.series(n_max, params)
    predicted = conjecture_series(d, pi, kappa, 4 + b2, n_max)
    rows = []
    for n in range(n_max + 1):
        lhs = computed[n]
        rhs = predicted.coefficient(n)
        rows.append(
            {
                "n": n,
                "computed": q_str(lhs),
                "predicted": q_str(rhs),
                "match": lhs == rhs,
            }
        )
    return rows
