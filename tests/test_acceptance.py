"""Acceptance suite: one test per gating criterion, all at exact arithmetic.

Each test prints a single PASS line with its criterion label so the whole
gate can be read off the verbose log.  Time-limited criteria assert their
wall-clock budget as well.
"""

import time
from fractions import Fraction as Q

from hilbfock.segre import (
    KNOWN_DM,
    UnivPoly,
    check_conjecture,
    dm_coefficients,
    fit_dm_linear,
    segre_polynomial,
)
from hilbfock.verify import (
    suite_affine,
    suite_chern_line,
    suite_derivative,
    suite_goettsche,
    suite_oscillator,
    suite_pairing,
    suite_vertex_integral,
    suite_virasoro,
    suite_worked_example,
)

MODELS = ((1, 0, -1, 0), (2, 1, -1, 1))


def _finish(label, report_or_ok, t0, budget=None):
    ok = (
        report_or_ok
        if isinstance(report_or_ok, bool)
        else report_or_ok["pass"]
    )
    elapsed = time.time() - t0
    detail = (
        ""
        if isinstance(report_or_ok, bool)
        else " (%d checks)" % report_or_ok["checks"]
    )
    print("\n[%s] %s%s in %.1fs" % ("PASS" if ok else "FAIL", label, detail, elapsed))
    if not isinstance(report_or_ok, bool) and not ok:
        print("counterexample:", report_or_ok["counterexample"])
    assert ok
    if budget is not None:
        assert elapsed < budget, "%s exceeded %ds budget" % (label, budget)


def test_criterion_01_oscillator_relations():
    t0 = time.time()
    r = suite_oscillator(
        max_n=4, seed=1, n_vectors=200, max_weight=6, model_params=MODELS
    )
    _finish("criterion 1: oscillator relations", r, t0, budget=60)


def test_criterion_02_pairing_normalization():
    t0 = time.time()
    r = suite_pairing(n_max=8, model_params=MODELS)
    _finish("criterion 2: pairing normalization", r, t0)


def test_criterion_03_virasoro_relations():
    t0 = time.time()
    r = suite_virasoro(max_n=2, max_weight=4, model_params=MODELS)
    _finish("criterion 3: Virasoro relations", r, t0, budget=300)


def test_criterion_04_derivative_bracket():
    t0 = time.time()
    r = suite_derivative(
        max_n=3, max_weight=5, sample=60, model_params=MODELS
    )
    _finish("criterion 4: derivative bracket with K-correction", r, t0)


def test_criterion_05_vertex_integral():
    t0 = time.time()
    r = suite_vertex_integral(n_max=5, model_params=MODELS)
    _finish("criterion 5: vertex integral identity", r, t0)


def test_criterion_06_line_bundle_chern():
    t0 = time.time()
    r = suite_chern_line(n_max=5, model_params=MODELS)
    _finish("criterion 6: line bundle total Chern classes", r, t0, budget=300)


def _n4_poly():
    return UnivPoly(
        {
            (4, 0, 0, 0): 1,
            (3, 0, 0, 0): -60,
            (2, 0, 0, 0): 1196,
            (2, 1, 0, 0): -30,
            (2, 0, 0, 1): 6,
            (2, 0, 1, 0): -6,
            (1, 0, 0, 0): -7920,
            (1, 1, 0, 0): 1068,
            (1, 0, 0, 1): -220,
            (1, 0, 1, 0): 284,
            (0, 0, 0, 2): 3,
            (0, 0, 0, 1): 1944,
            (0, 0, 1, 1): -6,
            (0, 1, 0, 1): -30,
            (0, 2, 0, 0): 75,
            (0, 0, 2, 0): 3,
            (0, 1, 1, 0): 30,
            (0, 1, 0, 0): -9042,
            (0, 0, 1, 0): -3300,
        }
    ).scale(Q(1, 24))


def _n5_poly():
    return UnivPoly(
        {
            (5, 0, 0, 0): 1,
            (4, 0, 0, 0): -100,
            (3, 0, 0, 0): 3740,
            (3, 0, 0, 1): 10,
            (3, 1, 0, 0): -50,
            (3, 0, 1, 0): -10,
            (2, 0, 0, 0): -62000,
            (2, 1, 0, 0): 3420,
            (2, 0, 0, 1): -700,
            (2, 0, 1, 0): 860,
            (1, 0, 0, 0): 384384,
            (1, 0, 0, 2): 15,
            (1, 0, 0, 1): 15960,
            (1, 0, 1, 1): -30,
            (1, 1, 0, 1): -150,
            (1, 0, 2, 0): 15,
            (1, 1, 1, 0): 150,
            (1, 1, 0, 0): -75610,
            (1, 0, 1, 0): -24340,
            (1, 2, 0, 0): 375,
            (0, 0, 0, 2): -400,
            (0, 0, 0, 1): -117120,
            (0, 1, 0, 1): 3920,
            (0, 0, 1, 1): 960,
            (0, 0, 1, 0): 226560,
            (0, 1, 1, 0): -4720,
            (0, 0, 2, 0): -560,
            (0, 2, 0, 0): -9600,
            (0, 1, 0, 0): 530880,
        }
    ).scale(Q(1, 120))


def test_criterion_07_segre_polynomials(sampler):
    t0 = time.time()
    n2 = UnivPoly(
        {
            (2, 0, 0, 0): Q(1, 2),
            (1, 0, 0, 0): -5,
            (0, 1, 0, 0): Q(-5, 2),
            (0, 0, 1, 0): Q(-1, 2),
            (0, 0, 0, 1): Q(1, 2),
        }
    )
    n3 = UnivPoly(
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
    expected = {2: n2, 3: n3, 4: _n4_poly(), 5: _n5_poly()}
    ok = True
    for n in (2, 3, 4, 5):
        got = segre_polynomial(n, sampler)
        if got != expected[n]:
            ok = False
            print("mismatch at n=%d:" % n, got.render())
            break
    _finish("criterion 7: universal Segre polynomials N_2..N_5", ok, t0, budget=600)


def test_criterion_08_dm_coefficients(sampler):
    t0 = time.time()
    polys = [segre_polynomial(n, sampler) for n in range(6)]
    dms = dm_coefficients(polys)
    ok = all(dms[m] == KNOWN_DM[m] for m in range(1, 6))
    fitted = fit_dm_linear(7, sampler)
    ok = ok and fitted[6] == KNOWN_DM[6]
    # stretch: d_7 (the kappa coefficient certifies the digit-swap
    # correction of the printed table)
    ok = ok and fitted[7] == KNOWN_DM[7]
    for m in range(1, 6):
        ok = ok and fitted[m] == dms[m]
    _finish("criterion 8: log-series coefficients d_1..d_7", ok, t0)


def test_criterion_09_conjecture_series(sampler):
    t0 = time.time()
    tuples = [
        (Q(1), Q(0), Q(-1), 0),
        (Q(2), Q(1), Q(-1), 0),
        (Q(2), Q(-1), Q(1), 1),
    ]
    ok = True
    for params in tuples:
        rows = check_conjecture(6, params, sampler)
        if not all(r["match"] for r in rows):
            ok = False
            print("mismatch at", params, rows)
            break
    _finish("criterion 9: closed-form series matches N_0..N_6", ok, t0)


def test_criterion_10_dimension_counts():
    t0 = time.time()
    r = suite_goettsche(n_max=6, e_values=(4, 6))
    _finish("criterion 10: bigraded dimension counts", r, t0)


def test_criterion_11_affine_model():
    t0 = time.time()
    r = suite_affine(gen_max=8)
    _finish("criterion 11: affine-plane operator model", r, t0, budget=120)


def test_criterion_12_worked_example(sampler):
    t0 = time.time()
    r = suite_worked_example(sampler)
    _finish("criterion 12: worked weight-2 example", r, t0)
