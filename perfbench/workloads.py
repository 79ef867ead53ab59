"""The benchmark workloads: inputs made from a seed, and one verified pass.

Every value the program returns is checked against an exact oracle:

* ``segre-chain``: N_0..N_7 against the closed-form series, whose equality
  with N_n is a theorem (Marian-Oprea-Pandharipande; Voisin);
* ``interp-cached``: N_2..N_5 against the universal polynomials of the
  acceptance suite, every N_2..N_7 polynomial against the closed form at
  seeded off-grid points, and ``hilbfock dm`` against its own table;
* ``verify-relations``: each suite's pass flag.

Program entry points are looked up on their modules at call time, so that
the traced run sees the calls.
"""

from __future__ import annotations

import io
import json
import random
import sys
import traceback
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import List, NamedTuple

from hilbfock import cli, segre, series, surface, verify

import oracles

Q = Fraction

#: Highest N_n computed or interpolated; interpolating N_8 fails (see notes).
N_MAX = 7


class Tally:
    """Results attempted and failed, and exact checks made.

    A result fails when any of its checks fails or when it raises.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self._ok = True

    @contextmanager
    def result(self):
        self.attempted += 1
        self._ok = True
        try:
            yield
        except Exception:  # a crashed result is a failed one; the run goes on
            traceback.print_exc(file=sys.stderr)
            self._ok = False
        if not self._ok:
            self.failed += 1

    def check(self, ok: bool, count: int = 1) -> None:
        self.checks += count
        if not ok:
            self._ok = False


# -- segre-chain -----------------------------------------------------------

#: Rounds prepared per run; a run that needs more reuses them in order.
CHAIN_ROUNDS = 12

#: (d, |pi|, kappa) of every chain.  The seed picks the sign of pi, which
#: maps the model to one with an isomorphic ring (h -> -h), so every seed
#: does the same amount of work; between small models the cost of a chain
#: differs by tens of percent, which would swamp a change being measured.
CHAIN_SHAPE = (2, 1, -1)


def segre_chain_setup(seed: int, workdir: Path, n_max: int = N_MAX):
    """Rounds of two models (b2_extra 0 and 1) with their oracle values."""
    rng = random.Random("segre-chain/%d" % seed)
    d, pi, kappa = (Q(x) for x in CHAIN_SHAPE)
    rounds = []
    for _ in range(CHAIN_ROUNDS):
        pair = []
        for b2 in (0, 1):
            params = (d, rng.choice((pi, -pi)), kappa, b2)
            want = series.conjecture_series(*params[:3], 4 + b2, n_max).coeffs
            pair.append((surface.new_model(*params), list(want)))
        rounds.append(pair)
    return rounds


def segre_chain_pass(rounds, index: int, tally: Tally, n_max: int = N_MAX) -> None:
    for model, want in rounds[index % len(rounds)]:
        with tally.result():
            # segre_series builds a fresh OperatorEngine, as each CLI call does
            got = segre.segre_series(n_max, model)
            for n in range(n_max + 1):
                tally.check(got[n] == want[n])


# -- interp-cached ---------------------------------------------------------

#: Seeded points off the sample grid at which each polynomial is checked.
OFF_GRID_POINTS = 4


def prefill_points(n_max: int = N_MAX) -> List[tuple]:
    """Every sample point interpolation and the d_m fit will ask for."""
    points = []
    for n in range(n_max + 1):
        count = len(segre.support_monomials(n)) + 3  # segre_polynomial's extra_points
        points += segre.sample_grid(n, count)
    points += segre._FIT_TUPLES
    return list(dict.fromkeys(points))


class InterpInputs(NamedTuple):
    cache_path: Path
    off_grid: list  # (point, N_0..N_n_max of the closed form there)
    n_max: int


def interp_setup(seed: int, workdir: Path, n_max: int = N_MAX) -> InterpInputs:
    """Write exact N_0..N_n_max for every sample point into a fresh cache."""
    path = workdir / "samples.jsonl"
    if path.exists():
        path.unlink()
    sampler = segre.Sampler(str(path))
    points = prefill_points(n_max)
    for params in points:
        d, pi, kappa, b2 = params
        values = series.conjecture_series(d, pi, kappa, 4 + b2, n_max)
        for j in range(n_max + 1):
            sampler.store(j, params, values.coefficient(j))
    # rational points: the identity between the polynomial and the series
    # holds for any values of (d, pi, kappa, e), not only for models
    rng = random.Random("interp-cached/%d" % seed)
    grid = set(points)
    off_grid = []
    while len(off_grid) < OFF_GRID_POINTS:
        point = tuple(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        if point[:3] + (point[3] - 4,) in grid:
            continue
        want = series.conjecture_series(*point, n_max).coeffs
        off_grid.append((point, list(want)))
    return InterpInputs(path, off_grid, n_max)


def interp_pass(inputs: InterpInputs, index: int, tally: Tally) -> None:
    n_max = inputs.n_max
    sampler = segre.Sampler(str(inputs.cache_path))
    for n in range(2, n_max + 1):
        with tally.result():
            poly = segre.segre_polynomial(n, sampler)
            if n in oracles.CRITERION_7:
                tally.check(poly == oracles.CRITERION_7[n])
            for point, want in inputs.off_grid:
                tally.check(poly.evaluate(*point) == want[n])
    with tally.result():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["dm", "--max-m", str(n_max), "--cache", str(inputs.cache_path)])
        tally.check(code == 0)
        rows = json.loads(out.getvalue())["result"]
        tally.check([row["m"] for row in rows] == list(range(1, n_max + 1)))
        for row in rows:
            tally.check(row["match"] and row["known"] is not None)


# -- verify-relations ------------------------------------------------------

#: The suites of one pass, by name, and the function of ``verify`` for each.
SUITE_FUNCS = {
    "virasoro": "suite_virasoro",
    "derivative": "suite_derivative",
    "oscillator": "suite_oscillator",
    "pairing": "suite_pairing",
    "vertex-integral": "suite_vertex_integral",
    "chern-line": "suite_chern_line",
    "goettsche-dim": "suite_goettsche",
    "affine": "suite_affine",
    "e-op": "suite_e_op",
}

_ONE_MODEL = ((1, 0, -1, 0),)


def verify_setup(seed: int, workdir: Path):
    """The suite calls of one pass; the seeded suites take the workload seed."""
    kwargs = {
        "virasoro": {"model_params": _ONE_MODEL},
        "derivative": {"seed": seed, "model_params": _ONE_MODEL},
        "oscillator": {"seed": seed, "n_vectors": 50, "model_params": _ONE_MODEL},
        "pairing": {"seed": seed},
        "vertex-integral": {},
        "chern-line": {},
        "goettsche-dim": {},
        "affine": {"seed": seed},
        # at its default weight 4 this suite alone takes about 26 s
        "e-op": {"max_weight": 2, "model_params": _ONE_MODEL},
    }
    return [(suite, SUITE_FUNCS[suite], kwargs[suite]) for suite in SUITE_FUNCS]


def verify_pass(calls, index: int, tally: Tally) -> None:
    for suite, func, kwargs in calls:
        with tally.result():
            report = getattr(verify, func)(**kwargs)
            tally.check(report["suite"] == suite)
            tally.check(report["pass"] is True, count=report["checks"])


#: name -> (setup, one pass)
WORKLOADS = {
    "segre-chain": (segre_chain_setup, segre_chain_pass),
    "interp-cached": (interp_setup, interp_pass),
    "verify-relations": (verify_setup, verify_pass),
}
