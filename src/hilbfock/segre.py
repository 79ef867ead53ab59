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
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .fock import integrate_hilb
from .linear import Combination, q_str, rat, render_sum
from .operators import OperatorEngine
from .series import PowerSeries
from .surface import CohClass, KClassSpec, SurfaceModel, new_model

Q = Fraction

Expo = Tuple[int, int, int, int]  # exponents of d, pi, kappa, e
Params = Tuple[Q, Q, Q, int]  # (d, pi, kappa, b2_extra)


class InconsistentSamples(ValueError):
    """Sampled values do not lie on any polynomial with the allowed support."""


# -- universal polynomials -------------------------------------------------

_VARS = ("d", "pi", "kappa", "e")


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
        vals = tuple(rat(x) for x in (d, pi, kappa, e))
        total = Q(0)
        for ex, c in self.terms.items():
            t = c
            for v, p in zip(vals, ex):
                t *= v**p
            total += t
        return total

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

def _alpha_class(model: SurfaceModel) -> CohClass:
    # Total Chern class of -O(H): 1 - h + d*pt.
    return CohClass({"1": 1, "h": -1, "pt": model.d})


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


def segre_number(n: int, model: SurfaceModel) -> Q:
    return segre_series(n, model)[n]


# -- sample cache ----------------------------------------------------------

def _is_header(line: str) -> bool:
    """Whether a cache line is the header of this engine version."""
    from . import ENGINE_VERSION

    try:
        header = json.loads(line)
    except json.JSONDecodeError:
        return False
    return isinstance(header, dict) and header.get("engine_version") == ENGINE_VERSION


class Sampler:
    """Computes and caches the numbers N_n over many surface models.

    The optional cache file is append-only JSON lines; the first line is a
    header recording the engine version, and each record stores one value
    with all rationals as canonical ``p/q`` strings.  A file whose header
    is unreadable or names another engine version is not loaded, and is
    rewritten with a fresh header before the first new record, so that new
    records are not appended below the stale header and lost on reload.
    Record lines that do not decode to a complete record are skipped and
    counted in ``corrupt_lines``.  Each append holds an exclusive
    ``flock`` on the file and checks the header under it, so several
    processes may share one cache file.
    The path may also come from the ``HILB_CACHE`` environment variable.
    """

    def __init__(self, cache_path: Optional[str] = None):
        if cache_path is None:
            cache_path = os.environ.get("HILB_CACHE") or None
        self.cache_path = cache_path
        self._mem: Dict[Tuple[int, Params], Q] = {}
        #: record lines of the cache file that could not be decoded
        self.corrupt_lines = 0
        if cache_path:
            self._load()

    def _load(self) -> None:
        path = self.cache_path
        if not path or not os.path.exists(path):
            return
        with open(path) as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            lines = fh.read().splitlines()
        if not lines or not _is_header(lines[0]):
            return
        for ln in filter(str.strip, lines[1:]):
            try:
                rec = json.loads(ln)
                params = (
                    Q(rec["d"]),
                    Q(rec["pi"]),
                    Q(rec["kappa"]),
                    int(rec["b2_extra"]),
                )
                self._mem[(int(rec["n"]), params)] = Q(rec["value"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                self.corrupt_lines += 1

    def _append(self, n: int, params: Params, value: Q) -> None:
        from . import ENGINE_VERSION

        path = self.cache_path
        if not path:
            return
        with open(path, "a+") as fh:
            # the header is read under the lock, so that of two processes
            # appending to one new or stale file only the first rewrites it
            fcntl.flock(fh, fcntl.LOCK_EX)
            fh.seek(0)
            if not _is_header(fh.readline()):
                fh.truncate(0)
                fh.write(json.dumps({"engine_version": ENGINE_VERSION}) + "\n")
            fh.seek(0, os.SEEK_END)
            d, pi, kappa, b2 = params
            fh.write(
                json.dumps(
                    {
                        "n": n,
                        "d": q_str(d),
                        "pi": q_str(pi),
                        "kappa": q_str(kappa),
                        "b2_extra": b2,
                        "value": q_str(value),
                    }
                )
                + "\n"
            )

    def store(self, n: int, params: Params, value: Q) -> None:
        key = (n, params)
        if key not in self._mem:
            self._mem[key] = value
            self._append(n, params, value)

    def series(self, n_max: int, params: Params) -> List[Q]:
        if all((j, params) in self._mem for j in range(n_max + 1)):
            return [self._mem[(j, params)] for j in range(n_max + 1)]
        d, pi, kappa, b2 = params
        values = segre_series(n_max, new_model(d, pi, kappa, b2))
        for j, v in enumerate(values):
            self.store(j, params, v)
        return values

    def value(self, n: int, params: Params) -> Q:
        got = self._mem.get((n, params))
        if got is not None:
            return got
        return self.series(n, params)[n]


def _series_worker(args) -> Tuple[Params, List[Q]]:
    n_max, params = args
    return params, segre_series(n_max, new_model(*params))


# -- interpolation ---------------------------------------------------------

def sample_grid(n: int, count: int, seed: int = 20260826) -> List[Params]:
    """Deterministic nondegenerate parameter tuples for interpolation.

    ``b2_extra`` cycles through 0..n//2, as many values of ``e`` as the
    support of N_n needs; ``d`` takes only the 9 values 1..9, so the
    system for N_n is rank deficient from n = 9 on.
    """
    rng = random.Random(seed)
    emax = n // 2
    seen = set()
    out: List[Params] = []
    b2_cycle = itertools.cycle(range(emax + 1))
    while len(out) < count:
        d = Q(rng.randint(1, 9))
        pi = Q(rng.randint(-4, 4))
        kappa = Q(rng.randint(-4, 4))
        if d * kappa == pi * pi:
            continue
        b2 = next(b2_cycle)
        key = (d, pi, kappa, b2)
        if key in seen:
            continue
        seen.add(key)
        out.append(key)
    return out


def solve_overdetermined(
    rows: List[List[Q]], rhs: List[Q]
) -> List[Q]:
    """Exact solution of a consistent overdetermined linear system.

    Fraction-free (Bareiss) elimination: each row is scaled to integers,
    and after k pivots every entry below them is a (k+1)-minor of the
    scaled system, so each update ``(p*x - f*y) // prev`` divides exactly
    and no gcd is taken until back-substitution.

    Raises ValueError when the matrix is rank-deficient and
    InconsistentSamples when no exact solution exists.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("empty system")
    ncols = len(rows[0])
    aug = []
    for row, b in zip(rows, rhs):
        row = list(row) + [b]
        den = lcm(*(x.denominator for x in row))
        aug.append([x.numerator * (den // x.denominator) for x in row])
    prev = 1
    piv_cols = []
    r = 0
    for col in range(ncols):
        live = [i for i in range(r, m) if aug[i][col]]
        if not live:
            continue
        # the smallest pivot tends to keep the later minors small
        sel = min(live, key=lambda i: abs(aug[i][col]))
        aug[r], aug[sel] = aug[sel], aug[r]
        top = aug[r]
        p = top[col]
        for i in range(r + 1, m):
            row = aug[i]
            f = row[col]
            # columns up to col are zero below the pivot from here on
            aug[i] = [0] * (col + 1) + [
                (p * x - f * y) // prev
                for x, y in zip(row[col + 1:], top[col + 1:])
            ]
        prev = p
        piv_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][ncols]:
            raise InconsistentSamples("samples are not consistent with the model")
    if len(piv_cols) < ncols:
        raise ValueError("sample matrix is rank deficient; add more points")
    # full column rank: rows 0..ncols-1 are upper triangular
    sol = [Q(0)] * ncols
    for k in range(ncols - 1, -1, -1):
        row = aug[k]
        acc = Q(row[ncols])
        for j in range(k + 1, ncols):
            if row[j]:
                acc -= row[j] * sol[j]
        sol[k] = acc / row[k]
    return sol


#: Sample points beyond the support size: their equations certify the bound.
EXTRA_POINTS = 3


def segre_polynomial(
    n: int, sampler: Optional[Sampler] = None, jobs: int = 1
) -> UnivPoly:
    """The universal polynomial for N_n, by exact interpolation.

    Solves an overdetermined linear system over the allowed monomial
    support; the surplus equations certify the support bound, and any
    residual raises :class:`InconsistentSamples`.  A grid with too few
    distinct values of some variable is refused with ValueError before
    any value is sampled.
    """
    if sampler is None:
        sampler = Sampler()
    monos = support_monomials(n)
    grid = sample_grid(n, len(monos) + EXTRA_POINTS)
    for i, var in enumerate(_VARS):
        # on k distinct values of a variable its powers up to k are dependent;
        # b2_extra takes as many values as e = 4 + b2_extra
        top = max(ex[i] for ex in monos)
        if len({params[i] for params in grid}) <= top:
            raise ValueError(
                "sample matrix is rank deficient: %s^%d needs more grid values of %s"
                % (var, top, var)
            )
    _fill_values(sampler, n, grid, jobs)
    rows = []
    rhs = []
    for params in grid:
        d, pi, kappa, b2 = params
        e = Q(4 + b2)
        rows.append(
            [d**a * pi**b * kappa**c * e**f for (a, b, c, f) in monos]
        )
        rhs.append(sampler.value(n, params))
    sol = solve_overdetermined(rows, rhs)
    return UnivPoly({ex: c for ex, c in zip(monos, sol)})


def _fill_values(
    sampler: Sampler, n_max: int, grid: Sequence[Params], jobs: int
) -> None:
    tasks = [
        (n_max, p)
        for p in grid
        if any((j, p) not in sampler._mem for j in range(n_max + 1))
    ]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            results = pool.map(_series_worker, tasks)
    else:
        results = map(_series_worker, tasks)
    for params, values in results:
        for j, v in enumerate(values):
            sampler.store(j, params, v)


# -- log-series coefficients ----------------------------------------------

def dm_coefficients(polys: Sequence[UnivPoly]) -> List[UnivPoly]:
    """Coefficients d_m from universal polynomials N_0 .. N_max.

    Defined through log(sum N_n z^n) = sum of (-1)^(m-1) d_m z^m / m; each
    d_m must come out linear in (d, pi, kappa, e), which is asserted.
    """
    n_max = len(polys) - 1
    if polys[0] != UnivPoly({(0, 0, 0, 0): 1}):
        raise ValueError("N_0 must be 1")
    # formal log via the derivative recurrence, with UnivPoly coefficients
    L: List[UnivPoly] = [UnivPoly() for _ in range(n_max + 1)]
    for n in range(1, n_max + 1):
        acc = polys[n].scale(n)
        for k in range(1, n):
            if not L[k].is_zero():
                acc = acc - L[k].scale(k) * polys[n - k]
        L[n] = acc.scale(Q(1, n))
    out = [UnivPoly()]
    for m in range(1, n_max + 1):
        dm = L[m].scale(Q((-1) ** (m - 1)) * m)
        if not dm.is_linear():
            raise InconsistentSamples(
                "d_%d is not linear in (d, pi, kappa, e)" % m
            )
        out.append(dm)
    return out


_FIT_TUPLES: Tuple[Params, ...] = (
    (Q(1), Q(0), Q(-1), 0),
    (Q(2), Q(1), Q(-1), 0),
    (Q(3), Q(-1), Q(2), 0),
    (Q(1), Q(1), Q(2), 0),
    (Q(2), Q(-1), Q(1), 1),
    (Q(3), Q(2), Q(2), 1),
)


def fit_dm_linear(
    m_max: int,
    sampler: Optional[Sampler] = None,
    tuples: Sequence[Params] = _FIT_TUPLES,
    jobs: int = 1,
) -> List[UnivPoly]:
    """The coefficients d_1 .. d_{m_max} by an exact linear fit.

    Each d_m is linear in (d, pi, kappa, e), so numeric log-series samples
    at an overdetermined set of parameter tuples pin it down; nonzero
    residuals or a nonzero constant term raise InconsistentSamples.
    """
    if sampler is None:
        sampler = Sampler()
    _fill_values(sampler, m_max, tuples, jobs)
    samples = []
    for params in tuples:
        values = [sampler.value(j, params) for j in range(m_max + 1)]
        logs = PowerSeries(values).log()
        samples.append(
            [Q((-1) ** (m - 1)) * m * logs.coefficient(m) for m in range(m_max + 1)]
        )
    rows = [
        [d, pi, kappa, Q(4 + b2), Q(1)] for (d, pi, kappa, b2) in tuples
    ]
    out = [UnivPoly()]
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    for m in range(1, m_max + 1):
        rhs = [s[m] for s in samples]
        sol = solve_overdetermined(rows, rhs)
        if sol[4] != 0:
            raise InconsistentSamples("d_%d has a nonzero constant term" % m)
        out.append(UnivPoly({ex: c for ex, c in zip(basis, sol[:4])}))
    return out


# -- published coefficient table ------------------------------------------

def _lin(cd, cpi, ckap, ce) -> UnivPoly:
    return UnivPoly(
        {
            (1, 0, 0, 0): cd,
            (0, 1, 0, 0): cpi,
            (0, 0, 1, 0): ckap,
            (0, 0, 0, 1): ce,
        }
    )


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
    n_max: int,
    params: Params,
    sampler: Optional[Sampler] = None,
) -> List[dict]:
    """Compare computed N_n against the closed-form candidate series."""
    from .series import conjecture_series

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
