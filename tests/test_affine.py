import random
from collections import Counter
from fractions import Fraction as Q
from math import factorial

import pytest

from hilbfock.affine import (
    WeightedPoly,
    boundary,
    ch_op,
    d_op,
    generation_check,
    mul_var,
    npartitions,
    q_derivative,
)


def q(m, p=1):
    return WeightedPoly({((m, p),): 1})


def test_keys_of_one_monomial_are_summed():
    p = WeightedPoly({((2, 1), (1, 1)): 1, ((1, 1), (2, 1)): 2})
    assert p.terms == {((1, 1), (2, 1)): 3}
    assert WeightedPoly({((2, 1), (1, 1)): 1, ((1, 1), (2, 1)): -1}).is_zero()


def test_d_op_base_cases():
    p = q(1, 2)
    assert d_op(1, 0, p) == WeightedPoly({((1, 3),): 1})
    assert d_op(0, 0, p).is_zero()
    assert d_op(3, 0, WeightedPoly.one()) == q(3)


@pytest.mark.parametrize("m, power", [(0, 1), (-1, 1), (1, 0)])
def test_variable_needs_positive_index_and_power(m, power):
    with pytest.raises(ValueError, match="need m >= 1 and power >= 1"):
        WeightedPoly.variable(m, power)


def test_d_op_second_derivative():
    # D(0,2) q_1^2 = 2 q_2
    assert d_op(0, 2, q(1, 2)) == q(2).scale(2)
    # boundary is minus one half of it
    assert boundary(q(1, 2)) == q(2).scale(-1)


def test_d_op_ordered_tuples():
    # D(0,2) on q_1 q_2: tuples (1,2) and (2,1) both contribute
    p = WeightedPoly({((1, 1), (2, 1)): 1})
    got = d_op(0, 2, p)
    assert got == q(3).scale(4)


def test_d_op_weight_shift():
    # D(n, nu) raises weight by n
    p = WeightedPoly({((1, 2), (3, 1)): Q(1, 2)})
    for n, nu in [(1, 1), (2, 2), (0, 3), (-1, 2)]:
        got = d_op(n, nu, p)
        for M in got.terms:
            assert sum(i * e for i, e in M) == 5 + n


def _partial_reference(m, terms):
    """The scaled derivative del_m = m * d/dq_m on a term dictionary."""
    out = {}
    for M, c in terms.items():
        for j, (i, p) in enumerate(M):
            if i != m:
                continue
            if p == 1:
                M2 = M[:j] + M[j + 1:]
            else:
                M2 = M[:j] + ((i, p - 1),) + M[j + 1:]
            out[M2] = out.get(M2, Q(0)) + c * m * p
    return {M: c for M, c in out.items() if c}


def _d_op_reference(n, nu, p):
    """Reference D(n, nu): nu rounds of single scaled derivatives, each
    round keeping one term dictionary per total weight taken out so far,
    then multiplication by q_(n + that weight)."""
    if nu < 0 or (n + nu) < 0:
        raise ValueError("need nu >= 0 and n + nu >= 0")
    if nu == 0:
        return WeightedPoly() if n == 0 else mul_var(n, p)
    # layer s -> result of removing total weight s with nu derivatives
    layers = {0: dict(p.terms)}
    for _ in range(nu):
        new = {}
        for s, terms in layers.items():
            for m in {i for M in terms for i, _ in M}:
                part = _partial_reference(m, terms)
                if part:
                    tgt = new.setdefault(s + m, {})
                    for M, c in part.items():
                        tgt[M] = tgt.get(M, Q(0)) + c
        layers = {s: {M: c for M, c in t.items() if c} for s, t in new.items()}
    out = WeightedPoly()
    for s, terms in layers.items():
        # n + s < 1 would need a variable q_(n + s) that does not exist
        if n + s >= 1:
            out = out + mul_var(n + s, WeightedPoly(terms))
    return out


def _monomials(w_max):
    """Every monomial of weight <= w_max, the empty one included."""

    def parts(w, top):
        if w == 0:
            yield ()
        for i in range(min(w, top), 0, -1):
            for rest in parts(w - i, i):
                yield (i,) + rest

    return [tuple(sorted(Counter(ps).items())) for w in range(w_max + 1) for ps in parts(w, w)]


def _d_op_or_error(n, nu, p, op):
    try:
        return op(n, nu, p)
    except ValueError:
        return ValueError


def test_d_op_matches_the_layered_reference():
    # the closed formula against nu rounds of single derivatives, on each
    # monomial of weight <= 6 and on their sum, with seeded coefficients;
    # both raise ValueError on the same (n, nu)
    rng = random.Random(5)
    monos = _monomials(6)
    assert len(monos) == 30
    polys = [WeightedPoly({M: Q(rng.randint(-9, 9) or 1, rng.randint(1, 7))}) for M in monos]
    polys.append(WeightedPoly({M: Q(rng.randint(-9, 9), rng.randint(1, 7)) for M in monos}))
    errors = set()
    for p in polys:
        for n in range(-3, 5):
            for nu in range(6):
                want = _d_op_or_error(n, nu, p, _d_op_reference)
                assert _d_op_or_error(n, nu, p, d_op) == want, (p, n, nu)
                if want is ValueError:
                    errors.add((n, nu))
    assert errors == {(-3, 0), (-3, 1), (-3, 2), (-2, 0), (-2, 1), (-1, 0)}


def test_commutation_relation():
    p = WeightedPoly({((1, 2), (2, 1)): 1, ((4, 1),): Q(1, 3)})
    for (n, nu), (m, mu) in [((1, 1), (2, 1)), ((0, 2), (1, 1)), ((2, 2), (1, 0))]:
        lhs = d_op(n, nu, d_op(m, mu, p)) - d_op(m, mu, d_op(n, nu, p))
        rhs = d_op(n + m, nu + mu - 1, p).scale(nu * m - mu * n)
        assert lhs == rhs


def test_q_derivative_identity():
    # first derivative via the boundary commutator equals -n D(n, 1)
    p = WeightedPoly({((1, 1), (2, 1)): 1})
    for n in (1, 2, 3):
        lhs = boundary(mul_var(n, p)) - mul_var(n, boundary(p))
        assert lhs == q_derivative(n, 1, p)
        assert lhs == d_op(n, 1, p).scale(-n)


def test_ch_formula():
    # ch_nu = (-1)^nu / (nu+1)! D(0, nu+1)
    p = q(1, 3)
    assert ch_op(0, p) == d_op(0, 1, p)
    assert ch_op(1, p) == d_op(0, 2, p).scale(Q(-1, 2))
    assert ch_op(2, p) == d_op(0, 3, p).scale(Q(1, 6))


def test_ch_bracket_with_multiplication():
    p = WeightedPoly({((2, 1),): 1, ((1, 2),): Q(1, 2)})
    for nu in (0, 1, 2):
        for m in (1, 2):
            lhs = ch_op(nu, mul_var(m, p)) - mul_var(m, ch_op(nu, p))
            rhs = d_op(m, nu, p).scale(Q((-1) ** nu, factorial(nu)) * m)
            assert lhs == rhs


def test_ch_leading_coefficient():
    # ch_1 on q_1^3 has coefficient -binom(1+2,2) = -3 on q_1 q_2
    got = ch_op(1, q(1, 3))
    assert got.terms.get(((1, 1), (2, 1))) == Q(-3)


def test_npartitions():
    assert [npartitions(n) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


@pytest.mark.parametrize("n", range(1, 7))
def test_generation_small(n):
    rank, ok = generation_check(n)
    assert ok
    assert rank == npartitions(n)
