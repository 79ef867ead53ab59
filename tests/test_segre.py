import hashlib
import json
import multiprocessing
import os
import random
import time
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hilbfock import ENGINE_VERSION, integrate_hilb, new_model, segre
from hilbfock.operators import OperatorEngine
from hilbfock.segre import (
    KNOWN_DM,
    InconsistentSamples,
    Sampler,
    UnivPoly,
    check_conjecture,
    dm_coefficients,
    minus_polarization,
    sample_grid,
    segre_polynomial,
    segre_series,
    solve_overdetermined,
    support_monomials,
)
from hilbfock.series import PowerSeries, conjecture_series


def n2_poly():
    return UnivPoly(
        {
            (2, 0, 0, 0): Q(1, 2),
            (1, 0, 0, 0): Q(-5),
            (0, 1, 0, 0): Q(-5, 2),
            (0, 0, 1, 0): Q(-1, 2),
            (0, 0, 0, 1): Q(1, 2),
        }
    )


def n3_poly():
    # 6 N_3 = d^3 - 30 d^2 + 224 d - 3 d (5 pi + kappa - e)
    #         + 192 pi + 56 kappa - 40 e
    return UnivPoly(
        {
            (3, 0, 0, 0): 1,
            (2, 0, 0, 0): -30,
            (1, 0, 0, 0): 224,
            (1, 1, 0, 0): -15,
            (1, 0, 1, 0): -3,
            (1, 0, 0, 1): 3,
            (0, 1, 0, 0): 192,
            (0, 0, 1, 0): 56,
            (0, 0, 0, 1): -40,
        }
    ).scale(Q(1, 6))


def test_segre_numbers_small(model):
    assert segre_series(3, model) == [Q(1), Q(1), Q(-2), Q(-1)]
    assert segre_series(2, new_model(2, 1, -1, 1))[2] == n2_poly().evaluate(
        2, 1, -1, 5
    )


_params = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=20, deadline=None)
@given(_params, _params, _params, st.integers(0, 2))
def test_segre_series_is_the_closed_form(d, pi, kappa, b2):
    # the closed-form generating series is a theorem (Marian-Oprea-
    # Pandharipande), so it is an exact oracle on any nondegenerate model
    assume(d * kappa != pi * pi)
    want = conjecture_series(d, pi, kappa, 4 + b2, 5).coeffs
    assert segre_series(5, new_model(d, pi, kappa, b2)) == list(want)


@pytest.mark.parametrize(
    "params", [(Q(3, 2), Q(1, 3), -2, 1), (Q(-5, 3), Q(2, 7), 3, 2)]
)
def test_segre_series_top_step_is_the_full_step(params):
    # the last step forms only the degree-4n part; integrating the whole
    # weight-n class gives the same numbers
    model = new_model(*params)
    comps = OperatorEngine(model).total_chern_classes(minus_polarization(model), 6)
    want = [integrate_hilb(v, n, model) for n, v in enumerate(comps)]
    for n in range(7):
        assert segre_series(n, model) == want[: n + 1]


def _off_grid_models(rng, count, b2):
    grid = {p for n in range(6) for p in sample_grid(n, len(support_monomials(n)) + 3)}
    out = []
    while len(out) < count:
        d, pi, kappa = (Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        if d * kappa != pi * pi and (d, pi, kappa, b2) not in grid:
            out.append((d, pi, kappa, b2))
    return out


def test_interpolated_polynomial_is_the_direct_value(sampler):
    # segre_polynomial(n) at models off its sample grid equals N_n computed
    # there directly
    rng = random.Random(41)
    polys = [segre_polynomial(n, sampler) for n in range(6)]
    for b2 in (0, 1, 2):
        for params in _off_grid_models(rng, 5, b2):
            direct = segre_series(5, new_model(*params))
            d, pi, kappa, _ = params
            for n, poly in enumerate(polys):
                assert poly.evaluate(d, pi, kappa, 4 + b2) == direct[n], (params, n)


def test_disjoint_grid_gives_the_same_polynomial(sampler):
    # the support bound and the surplus equations pin N_n down, so a grid
    # of another seed, sharing no point with the default one, agrees
    for n in range(6):
        support = support_monomials(n)
        count = len(support) + segre.EXTRA_POINTS
        grid = sample_grid(n, count, seed=3)
        assert not set(grid) & set(sample_grid(n, count))
        values = [sampler.value(n, p) for p in grid]
        assert segre._interpolate(support, grid, values) == segre_polynomial(n, sampler)


def test_interpolate_at_rational_points():
    # the sample grid and the fit tuples are integer points, so only here
    # are the rows scaled by the denominators of the point
    rng = random.Random(13)
    support = support_monomials(3)
    poly = UnivPoly({ex: Q(rng.randint(-50, 50), rng.randint(1, 9)) for ex in support})
    points = set()
    while len(points) < len(support) + segre.EXTRA_POINTS:
        d, pi, kappa = (Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        points.add((d, pi, kappa, rng.randint(0, 2)))
    points = sorted(points)
    assert {b2 for *_, b2 in points} == {0, 1, 2}
    values = [poly.evaluate(d, pi, kappa, 4 + b2) for d, pi, kappa, b2 in points]
    assert segre._interpolate(support, points, values) == poly


def test_support_monomials():
    monos = support_monomials(2)
    assert len(monos) == 9
    assert all(a + b + c + f <= 2 and b + c + f <= 1 for a, b, c, f in monos)
    assert len(support_monomials(5)) == 45


def test_segre_polynomial_n2(sampler):
    assert segre_polynomial(2, sampler) == n2_poly()


def test_segre_polynomial_n3(sampler):
    assert segre_polynomial(3, sampler) == n3_poly()


def test_univpoly_render_and_json():
    p = n2_poly()
    assert p.render() == "1/2*d^2 - 5*d - 5/2*pi - 1/2*kappa + 1/2*e"
    jm = p.json_map()
    assert jm["d^2"] == "1/2"
    assert jm["pi"] == "-5/2"


def test_solver_flags_inconsistency():
    rows = [[Q(1)], [Q(1)]]
    with pytest.raises(InconsistentSamples):
        solve_overdetermined(rows, [Q(1), Q(2)])
    with pytest.raises(ValueError):
        solve_overdetermined([[Q(0), Q(1)], [Q(0), Q(2)]], [Q(0), Q(0)])


def test_dm_coefficients_match_known(sampler):
    polys = [segre_polynomial(n, sampler) for n in range(4)]
    dms = dm_coefficients(polys)
    assert dms[1] == KNOWN_DM[1]
    assert dms[2] == KNOWN_DM[2]
    assert dms[3] == KNOWN_DM[3]


@pytest.mark.parametrize(
    "point",
    [
        (Q(3, 2), Q(1, 3), Q(-2), Q(5)),
        (Q(7), Q(-2), Q(5, 4), Q(9)),
        (Q(1), Q(0), Q(-1), Q(4)),
        (Q(-5, 3), Q(2, 7), Q(3), Q(11, 2)),
    ],
)
def test_known_dm_are_the_closed_form_log_coefficients(point):
    # log sum N_n z^n = sum (-1)^(m-1) d_m z^m / m, with the closed form
    # (a theorem) as the generating series; checks d_1..d_10
    log = conjecture_series(*point, max(KNOWN_DM)).log()
    for m, dm in KNOWN_DM.items():
        assert (-1) ** (m - 1) * m * log.coefficient(m) == dm.evaluate(*point), m


#: (d, pi, kappa, e) of real surfaces with a line bundle H: d = H^2,
#: pi = H.K, kappa = K^2 and e the Euler number
REAL_SURFACES = {
    "P2, O(1)": (1, -3, 9, 3),
    "P2, O(2)": (4, -6, 9, 3),
    "P1xP1, O(1,1)": (2, -4, 8, 4),
    "Bl_pt P2, H": (1, -3, 8, 4),
    "K3, d = 2": (2, 0, 0, 24),
}


@pytest.mark.parametrize("point", REAL_SURFACES.values(), ids=REAL_SURFACES.keys())
def test_known_dm_give_integral_segre_numbers(point):
    # on a real surface N_n is an intersection number, so an integer: the
    # N_0..N_10 that KNOWN_DM gives through sum N_n z^n =
    # exp(sum (-1)^(m-1) d_m z^m / m) must all be integers
    log = [0] + [Q((-1) ** (m - 1), m) * KNOWN_DM[m].evaluate(*point) for m in range(1, 11)]
    values = PowerSeries(log).exp().coeffs
    assert [n for n, x in enumerate(values) if x.denominator != 1] == []


def test_dm_rejects_nonlinear():
    one = UnivPoly({(0, 0, 0, 0): 1})
    bad = [one, UnivPoly({(1, 0, 0, 0): 1}), UnivPoly({(2, 0, 0, 0): 1})]
    with pytest.raises(InconsistentSamples):
        dm_coefficients(bad)


def test_check_conjecture_small(sampler):
    rows = check_conjecture(3, (Q(2), Q(1), Q(-1), 0), sampler)
    assert all(r["match"] for r in rows)


def test_cache_file_round_trip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    s1 = Sampler(path)
    v = s1.value(2, (Q(1), Q(0), Q(-1), 0))
    assert v == Q(-2)
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    assert "engine_version" in header
    rec = json.loads(lines[1])
    assert set(rec) == {"n", "d", "pi", "kappa", "b2_extra", "value"}
    assert rec["d"] == "1/1"
    # a fresh sampler reads the values back without recomputation
    s2 = Sampler(path)
    assert s2._mem[(2, (Q(1), Q(0), Q(-1), 0))] == Q(-2)


def test_fill_computes_only_the_points_missing_an_order(tmp_path, monkeypatch):
    # a point holding N_0..N_2 is complete up to 2 and one with a gap at
    # N_1 is not, whether the sampler stored them or loaded them from a file
    path = str(tmp_path / "cache.jsonl")
    full, gap = (Q(1), Q(0), Q(-1), 0), (Q(2), Q(1), Q(-1), 0)
    s1 = Sampler(path)
    for n in range(3):
        s1.store(n, full, Q(n))
    for n in (0, 2):
        s1.store(n, gap, Q(n))
    computed = []

    def worker(args):
        computed.append(args)
        return args[1], [Q(7)] * (args[0] + 1)

    monkeypatch.setattr(segre, "_series_worker", worker)
    for s in (s1, Sampler(path)):
        computed.clear()
        s.fill(2, [full, gap])
        assert computed == [(2, gap)]
        assert s.series(2, gap) == [Q(0), Q(7), Q(2)]
        s.fill(2, [full, gap])
        s.fill(1, [full, gap])
        assert computed == [(2, gap)]
        s.fill(3, [full])
        assert computed == [(2, gap), (3, full)]
        assert s.series(3, full) == [Q(0), Q(1), Q(2), Q(7)]


def test_cache_version_mismatch_ignored(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"engine_version": "0.0.0"}) + "\n")
        fh.write(
            json.dumps(
                {
                    "n": 2,
                    "d": "1/1",
                    "pi": "0/1",
                    "kappa": "-1/1",
                    "b2_extra": 0,
                    "value": "99/1",
                }
            )
            + "\n"
        )
    s = Sampler(path)
    assert s.value(2, (Q(1), Q(0), Q(-1), 0)) == Q(-2)


def test_cache_env_var(tmp_path, monkeypatch):
    path = str(tmp_path / "env_cache.jsonl")
    monkeypatch.setenv("HILB_CACHE", path)
    s = Sampler()
    s.value(1, (Q(1), Q(0), Q(-1), 0))
    assert os.path.exists(path)


@pytest.mark.parametrize(
    "header",
    [json.dumps({"engine_version": "0.0.0"}), "not json"],
    ids=["other-version", "unreadable"],
)
def test_stale_cache_is_rewritten(tmp_path, header):
    path = str(tmp_path / "cache.jsonl")
    with open(path, "w") as fh:
        fh.write(header + "\n")
    s1 = Sampler(path)
    assert not s1._mem
    points = [
        (Q(1), Q(0), Q(-1), 0),
        (Q(2), Q(1), Q(-1), 0),
        (Q(3), Q(-1), Q(2), 1),
    ]
    for j, params in enumerate(points):
        s1.store(2, params, Q(j))
    s2 = Sampler(path)
    assert len(s2._mem) == 3
    assert s2._mem[(2, points[2])] == Q(2)
    with open(path) as fh:
        assert json.loads(fh.readline()) == {"engine_version": ENGINE_VERSION}


def test_cache_counts_corrupt_lines(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    good = {"n": 2, "d": "1/1", "pi": "0/1", "kappa": "-1/1", "b2_extra": 0}
    with open(path, "w") as fh:
        fh.write(json.dumps({"engine_version": ENGINE_VERSION}) + "\n")
        fh.write(json.dumps(dict(good, value="-2/1")) + "\n")
        fh.write(json.dumps(dict(good, value="-2/1"))[:25] + "\n")  # truncated
        fh.write(json.dumps(good) + "\n")  # no value
        fh.write("[2, 1]\n")  # not a record
    s = Sampler(path)
    assert s.corrupt_lines == 3
    assert s._mem == {(2, (Q(1), Q(0), Q(-1), 0)): Q(-2)}


def test_cache_load_counts_every_bad_line_of_a_point(tmp_path):
    # a point's strings are parsed once, but a bad one fails on every line
    path = str(tmp_path / "cache.jsonl")
    good = {"d": "1/1", "pi": "0/1", "kappa": "-1/1", "b2_extra": 0}
    with open(path, "w") as fh:
        fh.write(json.dumps({"engine_version": ENGINE_VERSION}) + "\n")
        for n in range(3):
            fh.write(json.dumps(dict(good, n=n, value="%d/1" % n)) + "\n")
            fh.write(json.dumps(dict(good, n=n, d="1/0", value="0/1")) + "\n")
            fh.write(json.dumps(dict(good, n=n, pi="x", value="0/1")) + "\n")
            fh.write(json.dumps(dict(good, n=n, kappa=float("inf"), value="0/1")) + "\n")
            fh.write(json.dumps(dict(good, n=n)) + "\n")  # no value
        fh.write(json.dumps(dict(good, n=3, d="1", value="3/1")) + "\n")
    s = Sampler(path)
    assert s.corrupt_lines == 12
    assert s._mem == {(n, (Q(1), Q(0), Q(-1), 0)): Q(n) for n in range(4)}


def _store_records(path, first, count, start):
    # the first json.dumps of the process, which renders the header when
    # one is written, is slowed down: that widens the window between
    # finding the file without a header and writing one
    dumps = json.dumps

    def slow_first(*args, **kwargs):
        json.dumps = dumps
        time.sleep(0.2)
        return dumps(*args, **kwargs)

    json.dumps = slow_first
    start.wait()
    s = Sampler(path)
    for d in range(first, first + count):
        s.store(2, (Q(d), Q(0), Q(-1), 0), Q(d))


def test_two_processes_share_a_new_cache_file(tmp_path):
    # both processes find the file missing or empty; only one may write
    # the header, and no record may be lost
    path = str(tmp_path / "cache.jsonl")
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Event()
    procs = [
        ctx.Process(target=_store_records, args=(path, 1 + 200 * i, 200, start))
        for i in range(2)
    ]
    for p in procs:
        p.start()
    start.set()
    for p in procs:
        p.join(60)
        assert not p.is_alive() and p.exitcode == 0
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert sum("engine_version" in ln for ln in lines) == 1
    assert json.loads(lines[0]) == {"engine_version": ENGINE_VERSION}
    s = Sampler(path)
    assert s.corrupt_lines == 0
    assert len(s._mem) == 400


# -- the interpolation grid --------------------------------------------------

def test_sample_grid_unchanged_up_to_n7():
    # digest of the grids segre_polynomial used for n <= 7 before the cap
    # on b2_extra (at most 3) was lifted; those grids must stay the same
    h = hashlib.sha256()
    for n in range(8):
        for d, pi, kappa, b2 in sample_grid(n, len(support_monomials(n)) + 3):
            h.update(("%s %s %s %d;" % (d, pi, kappa, b2)).encode())
    assert h.hexdigest() == (
        "5e5e40c3f245a27283df043dc68c1815"
        "c40ab30fe9d679c5f84bd5a14f9492a0"
    )


def _rank_mod(rows, p):
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def test_n8_sample_matrix_has_full_column_rank():
    # a nonzero maximal minor modulo p is nonzero over the integers, so full
    # rank modulo a prime certifies that N_8 is interpolable on its grid
    monos = support_monomials(8)
    grid = sample_grid(8, len(monos) + 3)
    rows = []
    for d, pi, kappa, b2 in grid:
        assert d.denominator == pi.denominator == kappa.denominator == 1
        d, pi, kappa, e = int(d), int(pi), int(kappa), 4 + b2
        rows.append([d**a * pi**b * kappa**c * e**f for a, b, c, f in monos])
    assert _rank_mod(rows, 2**61 - 1) == len(monos)


def test_pool_has_no_more_workers_than_missing_samples(monkeypatch):
    import multiprocessing

    sizes = []

    class RecordingPool:
        # records its size and runs the work in this process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    sampler = Sampler()
    grid = sample_grid(2, 3)
    sampler.fill(2, grid, 64)
    assert sizes == [3]
    for params in grid:
        assert sampler.series(2, params) == segre_series(2, new_model(*params))


def test_rank_deficient_grid_is_refused_before_sampling(monkeypatch):
    # on 9 values of d the column of d^9 depends on those of d^0..d^8
    def no_sampling(*args, **kwargs):
        raise AssertionError("segre_series was called")

    monkeypatch.setattr(segre, "segre_series", no_sampling)
    with pytest.raises(ValueError, match="rank deficient"):
        segre_polynomial(9, Sampler())


# -- the exact solver ----------------------------------------------------------

_ints = st.integers(-9, 9).map(Q)
_rats = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def planted_systems(draw):
    """(rows, rhs, solution, surplus row positions) of a full-rank system.

    The first ``ncols`` rows are strictly diagonally dominant, hence
    invertible, times a unit upper triangular integer matrix; the surplus
    rows are arbitrary, and all rows are shuffled.  Since the square block
    is invertible, no unit vector at a surplus row is in the column space.
    """
    ncols = draw(st.integers(1, 6))
    surplus = draw(st.integers(1, 3))
    entry = draw(st.sampled_from((_ints, _rats)))
    block = [[draw(entry) for _ in range(ncols)] for _ in range(ncols)]
    for i, row in enumerate(block):
        off = sum(abs(x) for j, x in enumerate(row) if j != i)
        row[i] = (off + 1) * draw(st.sampled_from((1, -1)))
    mix = [
        [Q(int(i == j)) if j <= i else draw(st.integers(-3, 3).map(Q))
         for j in range(ncols)]
        for i in range(ncols)
    ]
    block = [
        [sum(row[k] * mix[k][j] for k in range(ncols)) for j in range(ncols)]
        for row in block
    ]
    extra = [[draw(entry) for _ in range(ncols)] for _ in range(surplus)]
    order = draw(st.permutations(range(ncols + surplus)))
    stacked = block + extra
    rows = [stacked[k] for k in order]
    sol = [draw(_rats) for _ in range(ncols)]
    rhs = [sum((a * x for a, x in zip(row, sol)), Q(0)) for row in rows]
    surplus_at = [pos for pos, k in enumerate(order) if k >= ncols]
    return rows, rhs, sol, surplus_at


@settings(max_examples=150, deadline=None)
@given(planted_systems())
def test_solver_recovers_planted_solution(system):
    rows, rhs, sol, _ = system
    assert solve_overdetermined(rows, rhs) == sol


@settings(max_examples=100, deadline=None)
@given(planted_systems(), st.data())
def test_solver_refuses_perturbed_surplus_row(system, data):
    rows, rhs, _, surplus_at = system
    i = data.draw(st.sampled_from(surplus_at))
    rhs[i] += data.draw(_rats.filter(bool))
    with pytest.raises(InconsistentSamples):
        solve_overdetermined(rows, rhs)


def _rank_deficient(rows, rhs):
    with pytest.raises(ValueError) as info:
        solve_overdetermined(rows, rhs)
    assert not isinstance(info.value, InconsistentSamples)
    assert "rank deficient" in str(info.value)


@settings(max_examples=100, deadline=None)
@given(planted_systems(), st.data())
def test_solver_refuses_duplicated_column(system, data):
    rows, rhs, _, _ = system
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    at = data.draw(st.integers(0, len(rows[0])))
    # the copy takes no part in the solution, so the system stays consistent
    _rank_deficient([r[:at] + [r[j]] + r[at:] for r in rows], rhs)


@settings(max_examples=100, deadline=None)
@given(planted_systems(), st.data())
def test_solver_skips_zero_column_exactly(system, data):
    # a column without a pivot leaves the previous pivot as divisor; were a
    # later division inexact, the floor would leave nonzero residuals and
    # the consistent system would be reported as inconsistent
    rows, rhs, _, surplus_at = system
    at = data.draw(st.integers(0, len(rows[0]) - 1))
    rows = [r[:at] + [Q(0)] + r[at:] for r in rows]
    _rank_deficient(rows, rhs)
    i = data.draw(st.sampled_from(surplus_at))
    rhs[i] += 1
    with pytest.raises(InconsistentSamples):
        solve_overdetermined(rows, rhs)


def _bareiss_solve(rows, rhs):
    """Reference solver: fraction-free (Bareiss) elimination over the integers.

    Each row is scaled to integers, and after k pivots every entry below
    them is a (k+1)-minor of the scaled system, so each update
    ``(p*x - f*y) // prev`` divides exactly.  Raises as
    ``solve_overdetermined`` does.
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


def _outcome(solve, rows, rhs):
    try:
        return solve(rows, rhs)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(planted_systems(), st.data())
def test_solver_agrees_with_bareiss_reference(system, data):
    # full rank, a duplicated column, a zero column, a perturbed row, or
    # several of these at once
    rows, rhs, _, _ = system
    if data.draw(st.booleans(), label="duplicate a column"):
        j = data.draw(st.integers(0, len(rows[0]) - 1))
        at = data.draw(st.integers(0, len(rows[0])))
        rows = [r[:at] + [r[j]] + r[at:] for r in rows]
    if data.draw(st.booleans(), label="insert a zero column"):
        at = data.draw(st.integers(0, len(rows[0])))
        rows = [r[:at] + [Q(0)] + r[at:] for r in rows]
    if data.draw(st.booleans(), label="perturb a row"):
        i = data.draw(st.integers(0, len(rows) - 1))
        rhs[i] += data.draw(_rats.filter(bool))
    want = _outcome(_bareiss_solve, rows, rhs)
    assert _outcome(solve_overdetermined, rows, rhs) == want


def test_solver_survives_an_unlucky_prime():
    # modulo the solver's first prime p, [[1, 1], [1, 1 + p]] and [[p]] lose
    # rank, so only the exact kernel check sends the solve on to the next
    # prime; the row [2, 3] restores the rank modulo p
    p = segre._modulus(0)
    rows = [[Q(1), Q(1)], [Q(1), Q(1 + p)], [Q(2), Q(3)]]
    rhs = [Q(2), Q(2 + p), Q(5)]
    assert solve_overdetermined(rows, rhs) == [1, 1]
    assert solve_overdetermined(rows[:2], rhs[:2]) == [1, 1]
    assert solve_overdetermined([[Q(p)]], [Q(3)]) == [Q(3, p)]


# -- the modular elimination ---------------------------------------------------

def _eliminate_mod_reference(mat, p):
    """Reference elimination: ``segre._eliminate_mod`` on lists of residues.

    Each working row is a list reduced modulo p after every update; same
    pivots, multipliers and ``solve_mod`` as the packed rows.
    """
    work = [[x % p for x in row] for row in mat]
    live = list(range(len(mat)))
    steps = []  # (pivot row, pivot column, inverse of the pivot, [(row, multiplier)])
    for col in range(len(mat[0])):
        src = next((i for i in live if work[i][col]), None)
        if src is None:
            continue
        live.remove(src)
        top = work[src]
        inv = pow(top[col], -1, p)
        # left of col every row not yet a pivot is zero, and column col is
        # not read again below the pivot
        tail = top[col + 1:] = [x * inv % p for x in top[col + 1:]]
        targets = []
        for i in live:
            row = work[i]
            f = row[col]
            if f:
                row[col + 1:] = [(x - f * y) % p for x, y in zip(row[col + 1:], tail)]
                targets.append((i, f))
        steps.append((src, col, inv, targets))
    piv_rows = [s[0] for s in steps]
    piv_cols = [s[1] for s in steps]
    pos = {i: k for k, i in enumerate(piv_rows)}
    replay = [
        (inv, [(pos[i], f) for i, f in targets if i in pos])
        for _, _, inv, targets in steps
    ]
    upper = [
        [(l, u) for l, u in enumerate(work[i][c] for c in piv_cols) if l > k and u]
        for k, i in enumerate(piv_rows)
    ]

    def solve_mod(vec):
        v = [x % p for x in vec]
        for k, (inv, targets) in enumerate(replay):
            t = v[k] = v[k] * inv % p
            for i, f in targets:
                v[i] = (v[i] - f * t) % p
        y = [0] * len(v)
        for k in range(len(v) - 1, -1, -1):
            acc = v[k]
            for l, u in upper[k]:
                acc -= u * y[l]
            y[k] = acc % p
        return y

    return piv_rows, piv_cols, solve_mod


def _same_elimination(mat, p, vectors):
    rows, cols, solve = segre._eliminate_mod(mat, p)
    ref_rows, ref_cols, ref_solve = _eliminate_mod_reference(mat, p)
    assert (rows, cols) == (ref_rows, ref_cols)
    for vec in vectors:
        assert solve(vec[: len(rows)]) == ref_solve(vec[: len(rows)])


@st.composite
def residue_systems(draw):
    """(matrix, prime): small, large, negative and multiple-of-p entries,
    with any mix of a zero column, a duplicated column and a dependent row."""
    p = draw(st.sampled_from((2, 3, 5, 7, segre._modulus(0))))
    entry = st.one_of(
        st.integers(-9, 9),
        st.integers(-(2**70), 2**70),
        st.builds(lambda k, r: k * p + r, st.integers(-3, 3), st.integers(-1, 1)),
    )
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    mat = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans(), label="insert a zero column"):
        at = draw(st.integers(0, ncols))
        mat = [r[:at] + [0] + r[at:] for r in mat]
    if draw(st.booleans(), label="duplicate a column"):
        j, at = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols))
        mat = [r[:at] + [r[j]] + r[at:] for r in mat]
    if draw(st.booleans(), label="add a dependent row"):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        i, k = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        row = [a * x + b * y for x, y in zip(mat[i], mat[k])]
        mat.insert(draw(st.integers(0, nrows)), row)
    return mat, p


@settings(max_examples=200, deadline=None)
@given(residue_systems(), st.data())
def test_packed_elimination_matches_the_reference(system, data):
    # same pivot rows and columns, and the same solve_mod on random vectors
    mat, p = system
    vec = st.lists(st.integers(-(2**64), 2**64), min_size=len(mat), max_size=len(mat))
    _same_elimination(mat, p, [data.draw(vec) for _ in range(3)])


def test_packed_elimination_matches_the_reference_on_n8():
    # the largest accepted system: 213 sample rows, 210 unknowns
    monos = support_monomials(8)
    mat = [
        [int(d) ** a * int(pi) ** b * int(kappa) ** c * (4 + b2) ** f for a, b, c, f in monos]
        for d, pi, kappa, b2 in sample_grid(8, len(monos) + segre.EXTRA_POINTS)
    ]
    assert (len(mat), len(mat[0])) == (213, 210)
    rng = random.Random(8)
    _same_elimination(
        mat, segre._modulus(0), [[rng.randint(-(2**90), 2**90) for _ in mat] for _ in range(2)]
    )


def test_n8_by_interpolation(monkeypatch):
    # N_8 from closed-form samples, with the chain switched off: the solver
    # at its largest accepted size
    def no_sampling(*args, **kwargs):
        raise AssertionError("segre_series was called")

    monkeypatch.setattr(segre, "segre_series", no_sampling)
    grid = sample_grid(8, len(support_monomials(8)) + segre.EXTRA_POINTS)
    sampler = Sampler()
    for params in grid:
        d, pi, kappa, b2 = params
        values = conjecture_series(d, pi, kappa, 4 + b2, 8)
        for n in range(9):
            sampler.store(n, params, values.coefficient(n))
    poly = segre_polynomial(8, sampler)
    rng = random.Random(88)
    points = []
    while len(points) < 4:
        point = tuple(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        if point[:3] + (point[3] - 4,) not in grid:
            points.append(point)
    for point in points:
        assert poly.evaluate(*point) == conjecture_series(*point, 8).coefficient(8), point
