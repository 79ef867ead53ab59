import hashlib
import json
import os
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hilbfock import ENGINE_VERSION, new_model, segre
from hilbfock.segre import (
    KNOWN_DM,
    InconsistentSamples,
    Sampler,
    UnivPoly,
    check_conjecture,
    dm_coefficients,
    sample_grid,
    segre_number,
    segre_polynomial,
    segre_series,
    solve_overdetermined,
    support_monomials,
)
from hilbfock.series import conjecture_series


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
    assert segre_number(2, new_model(2, 1, -1, 1)) == n2_poly().evaluate(
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
    segre._fill_values(sampler, 2, grid, 64)
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
