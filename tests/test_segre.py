import json
import os
from fractions import Fraction as Q

import pytest

from hilbfock import ENGINE_VERSION, new_model
from hilbfock.segre import (
    KNOWN_DM,
    InconsistentSamples,
    Sampler,
    UnivPoly,
    check_conjecture,
    dm_coefficients,
    segre_number,
    segre_polynomial,
    segre_series,
    solve_overdetermined,
    support_monomials,
)


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
