from fractions import Fraction as Q
from math import factorial

import pytest

from hilbfock import affine
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
            assert affine.mono_weight(M) == 5 + n


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
