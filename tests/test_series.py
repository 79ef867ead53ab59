from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock.series import (
    InvalidConstantTerm,
    NotInvertible,
    PowerSeries,
    conjecture_series,
)


def test_arithmetic():
    f = PowerSeries([1, 2, 3], 4)
    g = PowerSeries([0, 1], 4)
    assert (f * g).coeffs == (Q(0), Q(1), Q(2), Q(3), Q(0))
    assert (f + g).coefficient(1) == 3
    assert (f - f).coeffs == PowerSeries.zero(4).coeffs


def test_exp_log_basics():
    f = PowerSeries([0, 1], 5).exp()
    # 1, 1, 1/2, 1/6, 1/24, 1/120
    assert f.coeffs == tuple(Q(1, [1, 1, 2, 6, 24, 120][i]) for i in range(6))
    assert f.log().coeffs == (Q(0), Q(1), Q(0), Q(0), Q(0), Q(0))


def test_exp_requires_zero_constant():
    with pytest.raises(InvalidConstantTerm):
        PowerSeries([1, 1], 3).exp()
    with pytest.raises(InvalidConstantTerm):
        PowerSeries([2, 1], 3).log()


def test_refusals_of_order_pow_and_compose():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        PowerSeries([1], order=-1)
    with pytest.raises(InvalidConstantTerm, match="pow needs constant term one"):
        PowerSeries([2, 1], 3).pow(Q(1, 2))
    with pytest.raises(InvalidConstantTerm, match="composition needs inner constant term zero"):
        PowerSeries([1, 1], 3).compose(PowerSeries([1, 1], 3))


def test_pow_rational():
    f = PowerSeries([1, 1], 4)
    g = f.pow(Q(1, 2))
    assert (g * g).coeffs == f.coeffs
    assert f.pow(-1).coeffs == PowerSeries([1, -1, 1, -1, 1], 4).coeffs


def test_compose():
    f = PowerSeries([1, 0, 1], 4)  # 1 + z^2
    g = PowerSeries([0, 1, 1], 4)  # z + z^2
    got = f.compose(g)
    assert got.coeffs == (Q(1), Q(0), Q(1), Q(2), Q(1))


def test_revert_round_trip():
    f = PowerSeries([0, 1, -3, 5, 7, -2], 5)
    g = f.revert()
    assert f.compose(g).coeffs == PowerSeries.identity(5).coeffs
    assert g.compose(f).coeffs == PowerSeries.identity(5).coeffs


def test_revert_requires_unit_linear_term():
    with pytest.raises(NotInvertible):
        PowerSeries([0, 0, 1], 3).revert()
    with pytest.raises(NotInvertible):
        PowerSeries([1, 1], 3).revert()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.fractions(max_denominator=6), min_size=1, max_size=5
    )
)
def test_exp_log_round_trip(tail):
    f = PowerSeries([0] + tail, len(tail) + 1)
    assert f.exp().log().coeffs == f.coeffs


@settings(max_examples=25, deadline=None)
@given(
    st.fractions(max_denominator=4).filter(bool),
    st.lists(st.fractions(max_denominator=4), max_size=4),
)
def test_revert_property(c1, tail):
    f = PowerSeries([0, c1] + tail, len(tail) + 2)
    g = f.revert()
    assert f.compose(g).coeffs == PowerSeries.identity(f.order).coeffs


def test_auxiliary_reversion_expansion():
    # z = k(1-k)(1-2k)^4/(1-6k+6k^2)^3 reverts to
    # k = z - 9 z^2 + 94 z^3 - 1051 z^4 + ...
    N = 5
    k = PowerSeries.identity(N)
    one = PowerSeries.one(N)
    z = (
        k
        * (one - k)
        * (one - k.scale(2)).pow(4)
        * (one - k.scale(6) + (k * k).scale(6)).pow(-3)
    )
    got = z.revert()
    assert got.coeffs[:5] == (Q(0), Q(1), Q(-9), Q(94), Q(-1051))


def test_conjecture_series_first_coefficients():
    # the closed form starts 1 + d z + N_2 z^2 + ... for any model
    for d, pi, kappa, e in [(1, 0, -1, 4), (2, 1, -1, 5), (3, -1, 2, 6)]:
        f = conjecture_series(d, pi, kappa, e, 3)
        assert f.coefficient(0) == 1
        assert f.coefficient(1) == d
        n2 = Q(d * d - 10 * d - 5 * pi - kappa + e, 2)
        assert f.coefficient(2) == n2
        assert conjecture_series(d, pi, kappa, e, 0).coeffs == (Q(1),)


def _product_of_powers(d, pi, kappa, e, n_max):
    # the closed form as a product of three powers, each base composed with
    # k(z) and raised by pow: the reference for the one-exponential form
    d, pi, kappa, e = map(Q, (d, pi, kappa, e))
    N = max(n_max, 1)
    chi = (e + kappa) / 12
    a = pi - 2 * kappa
    b = d - 2 * pi + kappa + 3 * chi
    c = (d - pi) / 2 + chi
    k = PowerSeries.identity(N)
    one = PowerSeries.one(N)
    om_k = one - k
    om_2k = one - k.scale(2)
    quad = one - k.scale(6) + (k * k).scale(6)
    k_of_z = (k * om_k * om_2k.pow(4) * quad.pow(-3)).revert()
    return (
        om_k.compose(k_of_z).pow(a)
        * om_2k.compose(k_of_z).pow(b)
        * quad.compose(k_of_z).pow(-c)
    ).truncate(n_max)


def test_conjecture_series_is_the_product_of_powers():
    tuples = [
        (1, 0, -1, 4),
        (2, 1, -1, 5),
        (3, -1, 2, 6),
        (Q(3, 2), Q(1, 3), -2, 5),
        (Q(-7, 5), Q(2, 9), Q(11, 3), Q(13, 2)),
        (5, 4, -3, 9),
        (Q(1, 7), 0, 0, Q(1, 2)),
    ]
    for params in tuples:
        for n in range(13):
            assert conjecture_series(*params, n) == _product_of_powers(*params, n), (params, n)
