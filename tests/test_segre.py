import hashlib
import itertools
import json
import multiprocessing
import os
import random
import time
from fractions import Fraction as Q
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hilbfock import ENGINE_VERSION, integrate_hilb, linear, new_model, segre
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
from hilbfock.series import PowerSeries, conjecture_series, log_coefficients


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


def _random_grid(n, count, seed, avoid):
    # distinct nondegenerate models with d in 1..9, pi and kappa in -4..4
    # and b2_extra cycling through 0..n//2, none of them in avoid
    rng = random.Random(seed)
    b2_cycle = itertools.cycle(range(n // 2 + 1))
    out = []
    while len(out) < count:
        d, pi, kappa = Q(rng.randint(1, 9)), Q(rng.randint(-4, 4)), Q(rng.randint(-4, 4))
        if d * kappa != pi * pi:
            point = (d, pi, kappa, next(b2_cycle))
            if point not in avoid and point not in out:
                out.append(point)
    return out


def _general_fit(support, points, values):
    """The polynomial over ``support`` that takes ``values`` at ``points``,
    with e = 4 + b2_extra, by the general solver: a reference for the lattice."""
    rows = [[prod(x**k for x, k in zip((d, pi, kappa, 4 + b2), ex)) for ex in support]
            for d, pi, kappa, b2 in points]
    return UnivPoly(dict(zip(support, solve_overdetermined(rows, [values])[0])))


def test_disjoint_grid_gives_the_same_polynomial(sampler):
    # the support bound and the surplus equations pin N_n down, so the
    # general solver on random models, sharing no point with the lattice
    # grid, agrees with the divided differences there
    for n in range(6):
        support = support_monomials(n)
        count = len(support) + segre.EXTRA_POINTS
        grid = _random_grid(n, count, 3, set(sample_grid(n, count)))
        values = [sampler.value(n, p) for p in grid]
        assert _general_fit(support, grid, values) == segre_polynomial(n, sampler)


def test_interpolate_at_rational_points():
    # the sample grid and the fit tuples are integer points; the general
    # fit must hold at rational ones too
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
    assert _general_fit(support, points, values) == poly


def _fraction_divided_differences(v, t):
    # the divided differences in Fraction arithmetic, as the package once
    # computed them: a reference for the integer ones
    for k in range(1, len(v)):
        for j in range(len(v) - 1, k - 1, -1):
            v[j] = (v[j] - v[j - 1]) / (t[j] - t[j - k])


def _fraction_newton_to_monomial(c, t):
    for k in range(len(c) - 2, -1, -1):
        for j in range(k, len(c) - 1):
            c[j] -= t[k] * c[j + 1]


def _fraction_lattice_interpolate(support, values):
    """The lattice interpolation line by line in Fractions, re-sorting the
    support for each variable and step: a reference for the integer one."""
    coef = {ex: Q(x) for ex, x in zip(support, values)}
    for step in (_fraction_divided_differences, _fraction_newton_to_monomial):
        for var, (origin, stride) in enumerate(zip(segre._ORIGIN, segre._STEP)):
            lines = {}
            for ex in sorted(support):
                lines.setdefault(ex[:var] + ex[var + 1:], []).append(ex)
            for line in lines.values():
                v = [coef[ex] for ex in line]
                step(v, [origin + stride * k for k in range(len(v))])
                coef.update(zip(line, v))
    return UnivPoly(coef)


@pytest.mark.parametrize("n", range(8))
def test_integer_interpolation_is_the_fraction_reference(n):
    # seeded rational values with denominators up to 9, a fifth of them
    # zero, the rest of either sign; then all-zero and all-integer values
    support = support_monomials(n)
    rng = random.Random(n)
    for _ in range(5):
        values = [
            Q(rng.randint(-60, 60), rng.randint(1, 9)) if rng.random() > 0.2 else Q(0)
            for _ in support
        ]
        assert segre._lattice_interpolate(support, values) == _fraction_lattice_interpolate(
            support, values
        )
    assert segre._lattice_interpolate(support, [Q(0)] * len(support)) == UnivPoly()
    ints = [rng.randint(-9, 9) for _ in support]
    assert segre._lattice_interpolate(support, ints) == _fraction_lattice_interpolate(support, ints)


def test_divided_differences_refuse_an_inexact_division():
    # the exact case: f(x) = x^2 - 3 at nodes 4, 3, 2 (one step apart)
    # has Newton coefficients 13, 7, 1
    v = [13, 6, 1]
    segre._divided_differences(v, [4, 3, 2])
    assert v == [13, 7, 1]
    # 1/2 and -1/3 have no integer value: no floor may stand in for them
    for v, t in (([0, 1], [0, 2]), ([0, 1], [0, -2]), ([0, 0, 1], [0, 1, 2])):
        with pytest.raises(ArithmeticError):
            segre._divided_differences(list(v), t)


def _naive_evaluate(poly, point):
    # one Fraction product per term
    return sum(
        (c * prod(Q(x) ** k for x, k in zip(point, ex)) for ex, c in poly.terms.items()), Q(0)
    )


def test_evaluate_is_the_naive_fraction_sum():
    rng = random.Random(17)
    support = support_monomials(6)
    coordinates = [0, 1, -1, 3, -7, Q(1, 2), Q(-5, 3), Q(7, 9), Q(-4, 5), Q(0, 7)]
    for _ in range(60):
        poly = UnivPoly(
            {ex: Q(rng.randint(-40, 40), rng.randint(1, 12)) for ex in rng.sample(support, 9)}
        )
        point = tuple(rng.choice(coordinates) for _ in range(4))
        got = poly.evaluate(*point)
        assert type(got) is Q and got == _naive_evaluate(poly, point), (poly, point)
    # zero and constant polynomials, and every coordinate of one
    assert UnivPoly({(0, 0, 0, 0): Q(-3, 4)}).evaluate(0, 0, 0, 0) == Q(-3, 4)
    assert UnivPoly({(1, 0, 0, 1): 2}).evaluate(Q(1, 2), 9, 9, Q(-2, 3)) == Q(-2, 3)
    empty = UnivPoly().evaluate(Q(1, 3), 2, 0, -1)
    assert type(empty) is Q and empty == 0
    for poly in (UnivPoly(), n2_poly()):
        with pytest.raises(TypeError, match="float"):
            poly.evaluate(1, 0.5, 0, 4)


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
        _solve(rows, [Q(1), Q(2)])
    with pytest.raises(ValueError):
        _solve([[Q(0), Q(1)], [Q(0), Q(2)]], [Q(0), Q(0)])
    with pytest.raises(ValueError, match="empty system"):
        _solve([], [])


def test_dm_coefficients_need_n0_one():
    with pytest.raises(ValueError, match="N_0 must be 1"):
        dm_coefficients([UnivPoly({(0, 0, 0, 0): 2}), UnivPoly({(1, 0, 0, 0): 1})])


def test_fit_refuses_a_constant_term():
    # N_1 = d + 1 at every fit tuple: d_1 = d + 1 is linear, but not in
    # (d, pi, kappa, e) alone
    sampler = Sampler()
    for params in segre._FIT_TUPLES:
        sampler.store(0, params, Q(1))
        sampler.store(1, params, params[0] + 1)
    with pytest.raises(InconsistentSamples, match="d_1 has a nonzero constant term"):
        segre.fit_dm_linear(1, sampler)


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


def test_log_coefficients_commute_with_evaluation():
    # one recurrence takes the log of N_0 + N_1 z + ... with polynomial
    # coefficients (dm_coefficients) or rational ones (PowerSeries.log)
    polys = [UnivPoly({(0, 0, 0, 0): 1}), UnivPoly({(1, 0, 0, 0): 1}), n2_poly(), n3_poly()]
    logs = log_coefficients(polys)
    for point in [(Q(3, 2), Q(1, 3), Q(-2), Q(5)), (Q(7), Q(-2), Q(5, 4), Q(9))]:
        series = PowerSeries([p.evaluate(*point) for p in polys])
        assert [g.evaluate(*point) for g in logs] == list(series.log().coeffs)


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


@pytest.mark.parametrize(
    "stored, asked",
    [((Q(1), Q(0), Q(-1), 0), (1, 0, -1, 0)), ((1, 0, -1, 0), (Q(1), Q(0), Q(-1), 0))],
    ids=["fraction-stored", "int-stored"],
)
def test_int_and_fraction_points_share_values(monkeypatch, stored, asked):
    # the package's points are ints and a caller may store Fractions: both
    # hash and compare alike, so either finds the values of the other
    sampler = Sampler()
    for n in range(3):
        sampler.store(n, stored, Q(n - 1))
    monkeypatch.setattr(segre, "segre_series", _no_sampling)
    sampler.fill(2, [asked])
    assert sampler.series(2, asked) == [Q(-1), Q(0), Q(1)]
    assert sampler.value(1, asked) == Q(0)


def test_load_reads_integral_coordinates_as_ints(tmp_path, monkeypatch):
    # a loaded p/1 coordinate is an int, so an int point finds its records
    # by int hashes and compares, and 3/2 stays a Fraction
    path = str(tmp_path / "cache.jsonl")
    for params in ((1, 0, -1, 0), (Q(3, 2), 1, -1, 1)):
        Sampler(path).store(2, params, Q(7))
    loaded = Sampler(path)
    types = {params: [type(x) for x in params] for _, params in loaded._mem}
    assert types == {(1, 0, -1, 0): [int] * 4, (Q(3, 2), 1, -1, 1): [Q, int, int, int]}
    monkeypatch.setattr(segre, "segre_series", _no_sampling)
    assert loaded.value(2, (1, 0, -1, 0)) == Q(7)


def test_fill_computes_only_the_points_missing_an_order(tmp_path, monkeypatch):
    # a point holding N_0..N_2 is complete up to 2 and one with a gap at
    # N_1 is not, whether the sampler stored them or loaded them from a
    # file; the points are ints, as sample_grid makes them, and a load
    # reads them back as Fractions
    path = str(tmp_path / "cache.jsonl")
    full, gap = (1, 0, -1, 0), (2, 1, -1, 0)
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


def test_fill_appends_each_point_under_one_lock(tmp_path, monkeypatch):
    # one exclusive lock per point filled, however many orders it adds,
    # and the records read back as stored; store takes one per record
    path = str(tmp_path / "cache.jsonl")
    sampler = Sampler(path)
    points = [(1, 0, -1, 0), (2, 1, -1, 1)]
    sampler.store(1, points[1], Q(1))
    flock = segre.fcntl.flock
    modes = []

    def counting_flock(fh, mode):
        modes.append(mode)
        return flock(fh, mode)

    monkeypatch.setattr(segre.fcntl, "flock", counting_flock)
    sampler.fill(3, points)
    assert modes == [segre.fcntl.LOCK_EX] * 2
    sampler.store(4, points[0], Q(5))
    assert modes == [segre.fcntl.LOCK_EX] * 3
    monkeypatch.undo()
    loaded = Sampler(path)
    assert loaded.corrupt_lines == 0
    assert loaded._mem == sampler._mem
    assert len(loaded._mem) == 9
    with open(path) as fh:
        assert len(fh.read().splitlines()) == 1 + 9


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


def test_sampler_reads_no_environment(tmp_path, monkeypatch):
    # HILB_CACHE is the command line's default of --cache, not the library's
    path = str(tmp_path / "env_cache.jsonl")
    monkeypatch.setenv("HILB_CACHE", path)
    s = Sampler()
    s.value(1, (Q(1), Q(0), Q(-1), 0))
    assert s.cache_path is None and not os.path.exists(path)


@pytest.mark.parametrize(
    "header",
    [
        json.dumps({"engine_version": "0.0.0"}).encode(),
        b"not json",
        # this engine's version but for one byte that is not UTF-8
        json.dumps({"engine_version": ENGINE_VERSION}).encode()[:-2] + b"\xff\"}",
    ],
    ids=["other-version", "unreadable", "not-utf8"],
)
def test_stale_cache_is_rewritten(tmp_path, header):
    path = str(tmp_path / "cache.jsonl")
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
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
        # n and b2_extra that int() would read as N_2 at b2 = 0, N_1, N_2 and
        # b2 = 0: each must be a JSON integer
        fh.write(json.dumps(dict(good, n=2.7, b2_extra=0.9, value="5/1")) + "\n")
        fh.write(json.dumps(dict(good, n=True, value="5/1")) + "\n")
        fh.write(json.dumps(dict(good, n="2", value="5/1")) + "\n")
        fh.write(json.dumps(dict(good, b2_extra=0.0, value="5/1")) + "\n")
        # rationals that Fraction() would read as 1, 1, 0 and 3602879701896397/
        # 36028797018963968: each must be a JSON string
        fh.write(json.dumps(dict(good, value=True)) + "\n")
        fh.write(json.dumps(dict(good, d=True, value="5/1")) + "\n")
        fh.write(json.dumps(dict(good, pi=0, value="5/1")) + "\n")
        fh.write(json.dumps(dict(good, value=0.1)) + "\n")
    with open(path, "ab") as fh:
        # a byte that is not UTF-8 spoils its own line only
        fh.write(json.dumps(dict(good, value="5/1")).encode()[:-2] + b"\xff}\n")
        fh.write(json.dumps(dict(good, n=3, value="7/1")).encode() + b"\n")
        # U+2028 and U+0085 are line breaks to str.splitlines(), not to the
        # cache: a record holding one unescaped is one valid line
        for n, brk in ((4, "\u2028"), (5, "\u0085")):
            rec = dict(good, n=n, value="%d/1" % n, note="a%sb" % brk)
            fh.write(json.dumps(rec, ensure_ascii=False).encode() + b"\n")
    s = Sampler(path)
    assert s.corrupt_lines == 12
    point = (Q(1), Q(0), Q(-1), 0)
    assert s._mem == {(2, point): Q(-2), (3, point): Q(7), (4, point): Q(4), (5, point): Q(5)}


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

def test_sample_grid_is_the_lattice_then_surplus_points():
    # the grid of N_n starts with the lattice point (1 + a, b, -1 - c, f) of
    # each exponent of its support, in support order; its points are
    # distinct and nondegenerate, and the lattices nest
    lattices = []
    for n in range(13):
        support = support_monomials(n)
        grid = sample_grid(n, len(support) + segre.EXTRA_POINTS)
        lattice = grid[: len(support)]
        assert lattice == [(1 + a, b, -1 - c, f) for a, b, c, f in support]
        assert len(set(grid)) == len(grid)
        assert all(d * kappa != pi * pi for d, pi, kappa, _ in grid)
        lattices.append(set(lattice))
    assert all(a < b for a, b in zip(lattices, lattices[1:]))
    h = hashlib.sha256()
    for n in range(9):
        for d, pi, kappa, b2 in sample_grid(n, len(support_monomials(n)) + 3):
            h.update(("%s %s %s %d;" % (d, pi, kappa, b2)).encode())
    assert h.hexdigest() == (
        "ffbdff6bb8c24397b4f39865813f6742"
        "d729c4bfebc72f8ea3726d711c9293cd"
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
        assert all(type(x) is int for x in (d, pi, kappa, b2))
        e = 4 + b2
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
    sampler = Sampler(jobs=64)
    grid = sample_grid(2, 3)
    sampler.fill(2, grid)
    assert sizes == [3]
    for params in grid:
        assert sampler.series(2, params) == segre_series(2, new_model(*params))


@pytest.mark.parametrize("jobs", [0, -3, True, 2.5, "2"])
def test_sampler_refuses_a_bad_worker_count(jobs):
    # the worker count is checked where it is kept, not first by the pool
    with pytest.raises(ValueError, match="jobs"):
        Sampler(jobs=jobs)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: segre_series(-1, new_model(*p)),
        lambda p: segre_polynomial(-1),
        lambda p: sample_grid(-1, 3),
        lambda p: Sampler().value(-1, p),
        lambda p: Sampler().series(-2, p),
    ],
    ids=["segre_series", "segre_polynomial", "sample_grid", "value", "series"],
)
def test_negative_order_is_refused(call):
    with pytest.raises(ValueError, match="nonnegative"):
        call((1, 0, -1, 0))


def test_cached_negative_order_is_a_corrupt_line(tmp_path):
    # a cache cannot make a request of a negative order answer
    path = str(tmp_path / "cache.jsonl")
    rec = {"n": -1, "d": "1/1", "pi": "0/1", "kappa": "-1/1", "b2_extra": 0, "value": "5/1"}
    with open(path, "w") as fh:
        fh.write(json.dumps({"engine_version": ENGINE_VERSION}) + "\n")
        fh.write(json.dumps(rec) + "\n")
    s = Sampler(path)
    assert s.corrupt_lines == 1
    with pytest.raises(ValueError, match="nonnegative"):
        s.value(-1, (1, 0, -1, 0))


def _no_sampling(*args, **kwargs):
    raise AssertionError("segre_series was called")


def _closed_form_sampler(n):
    """A sampler holding N_0..N_n from the closed form on the grid of N_n."""
    sampler = Sampler()
    for params in sample_grid(n, len(support_monomials(n)) + segre.EXTRA_POINTS):
        d, pi, kappa, b2 = params
        values = conjecture_series(d, pi, kappa, 4 + b2, n)
        for j in range(n + 1):
            sampler.store(j, params, values.coefficient(j))
    return sampler


def _closed_form_agrees(poly, n, seed):
    # at 4 rational points off the grid of N_n
    grid = set(sample_grid(n, len(support_monomials(n)) + segre.EXTRA_POINTS))
    rng = random.Random(seed)
    points = []
    while len(points) < 4:
        point = tuple(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        if point[:3] + (point[3] - 4,) not in grid:
            points.append(point)
    for point in points:
        assert poly.evaluate(*point) == conjecture_series(*point, n).coefficient(n), point


# -- the exact solver ----------------------------------------------------------

def _solve(rows, rhs):
    return solve_overdetermined(rows, [rhs])[0]


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
    assert _solve(rows, rhs) == sol


@settings(max_examples=100, deadline=None)
@given(planted_systems(), st.data())
def test_solver_refuses_perturbed_surplus_row(system, data):
    rows, rhs, _, surplus_at = system
    i = data.draw(st.sampled_from(surplus_at))
    rhs[i] += data.draw(_rats.filter(bool))
    with pytest.raises(InconsistentSamples):
        _solve(rows, rhs)


def _right_hand_sides(data, rows, rhs):
    """``rhs`` among 0..2 more right-hand sides of planted solutions."""
    ncols = len(rows[0])
    sols = data.draw(st.lists(st.lists(_rats, min_size=ncols, max_size=ncols), max_size=2))
    out = [[sum((a * x for a, x in zip(row, sol)), Q(0)) for row in rows] for sol in sols]
    out.insert(data.draw(st.integers(0, len(out))), rhs)
    return out


@settings(max_examples=100, deadline=None)
@given(planted_systems(), st.data())
def test_solver_solves_each_right_hand_side(system, data):
    # one elimination for all right-hand sides gives the one-column solves
    rows, rhs, _, _ = system
    columns = _right_hand_sides(data, rows, rhs)
    assert solve_overdetermined(rows, columns) == [_solve(rows, b) for b in columns]


@settings(max_examples=100, deadline=None)
@given(planted_systems(), st.data())
def test_solver_refuses_any_perturbed_right_hand_side(system, data):
    rows, rhs, _, surplus_at = system
    columns = _right_hand_sides(data, rows, rhs)
    b = data.draw(st.sampled_from(columns))
    b[data.draw(st.sampled_from(surplus_at))] += data.draw(_rats.filter(bool))
    with pytest.raises(InconsistentSamples):
        solve_overdetermined(rows, columns)


def test_each_system_is_eliminated_once(monkeypatch):
    # the Gram inverse of a model and the fit of d_1..d_7 each take one
    # elimination for all their right-hand sides
    calls = []

    def counted(rows, rhs):
        calls.append(len(rhs))
        return solve_overdetermined(rows, rhs)

    monkeypatch.setattr(linear, "solve_overdetermined", counted)
    monkeypatch.setattr(segre, "solve_overdetermined", counted)
    new_model(2, 1, -1, 3)
    assert calls == [5]
    sampler = Sampler()
    for d, pi, kappa, b2 in segre._FIT_TUPLES:
        values = conjecture_series(d, pi, kappa, 4 + b2, 7)
        for j in range(8):
            sampler.store(j, (d, pi, kappa, b2), values.coefficient(j))
    monkeypatch.setattr(segre, "segre_series", _no_sampling)
    del calls[:]
    assert segre.fit_dm_linear(7, sampler)[1:] == [KNOWN_DM[m] for m in range(1, 8)]
    assert calls == [7]


def _rank_deficient(rows, rhs):
    with pytest.raises(ValueError) as info:
        _solve(rows, rhs)
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
        _solve(rows, rhs)


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
    assert _outcome(_solve, rows, rhs) == want


def test_solver_survives_an_unlucky_prime():
    # exact over the rationals at a large pivot: for p = 2^30 - 35,
    # [[1, 1], [1, 1 + p]] has determinant p and [[p]] inverts to 1/p; the
    # row [2, 3] is a consistent surplus equation
    p = 2**30 - 35
    rows = [[Q(1), Q(1)], [Q(1), Q(1 + p)], [Q(2), Q(3)]]
    rhs = [Q(2), Q(2 + p), Q(5)]
    assert _solve(rows, rhs) == [1, 1]
    assert _solve(rows[:2], rhs[:2]) == [1, 1]
    assert _solve([[Q(p)]], [Q(3)]) == [Q(3, p)]


def test_n8_by_interpolation(monkeypatch):
    # N_8 from closed-form samples, with the chain switched off
    monkeypatch.setattr(segre, "segre_series", _no_sampling)
    _closed_form_agrees(segre_polynomial(8, _closed_form_sampler(8)), 8, 88)


def test_n9_by_interpolation(monkeypatch):
    # d^9 is in the support of N_9, and d takes its 10 lattice values
    monkeypatch.setattr(segre, "segre_series", _no_sampling)
    _closed_form_agrees(segre_polynomial(9, _closed_form_sampler(9)), 9, 99)


@pytest.mark.parametrize("surplus", [False, True], ids=["lattice", "surplus"])
def test_perturbed_sample_is_refused(monkeypatch, surplus):
    # a wrong value at any lattice point moves the interpolant off some
    # surplus point; a wrong surplus value misses the interpolant
    monkeypatch.setattr(segre, "segre_series", _no_sampling)
    n = 4
    sampler = _closed_form_sampler(n)
    size = len(support_monomials(n))
    grid = sample_grid(n, size + segre.EXTRA_POINTS)
    want = segre_polynomial(n, sampler)
    for params in grid[size:] if surplus else grid[:size]:
        value = sampler._mem[(n, params)]
        sampler._mem[(n, params)] = value + Q(1, 3)
        with pytest.raises(InconsistentSamples):
            segre_polynomial(n, sampler)
        sampler._mem[(n, params)] = value
    assert segre_polynomial(n, sampler) == want
