"""The sparse combination algebra shared by classes, vectors and polynomials."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import CohClass, FockVector, PowerSeries, UnivPoly, conjecture_series, new_model
from hilbfock.affine import WeightedPoly
from hilbfock.fock import monomials

_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)

_KEYS = {
    CohClass: st.sampled_from(("1", "h", "k", "u1", "pt")),
    FockVector: st.sampled_from(monomials(new_model(2, 1, -1, 1), 3)),
    UnivPoly: st.tuples(*[st.integers(0, 3)] * 4),
    # unsorted factor lists: the constructor sorts them into monomials
    WeightedPoly: st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 3)),
        max_size=3,
        unique_by=lambda f: f[0],
    ).map(tuple),
}


def _combinations(cls):
    return st.dictionaries(_KEYS[cls], _coeffs, max_size=6).map(cls)


@pytest.mark.parametrize("cls", list(_KEYS), ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_combination_algebra(cls, data):
    a = data.draw(_combinations(cls))
    b = data.draw(_combinations(cls))
    assert type(a + b) is cls and all(a.terms.values())
    assert (a + b) - b == a
    assert hash((a + b) - b) == hash(a)
    assert (a - a).is_zero()
    assert -a == a.scale(-1) == Q(-1) * a
    assert a + b == b + a
    assert a.scale(0).is_zero()


def test_different_spaces_never_compare_equal():
    zeros = [cls() for cls in _KEYS]
    for i, x in enumerate(zeros):
        for j, y in enumerate(zeros):
            assert (x == y) == (i == j)
    assert CohClass({"1": 1}) != UnivPoly({"1": 1})


def test_weighted_poly_repr():
    p = WeightedPoly({((1, 2),): 1, ((2, 1),): Q(-1, 2), (): 3})
    assert repr(p) == "WeightedPoly(3 + q1^2 - 1/2*q2)"
    assert repr(WeightedPoly()) == "WeightedPoly(0)"


@pytest.mark.parametrize(
    "build",
    [
        lambda: new_model(0.1, 0, -1),
        lambda: CohClass({"h": 0.5}),
        lambda: PowerSeries([0.5]),
        lambda: conjecture_series(0.1, 0, -1, 4, 2),
        lambda: UnivPoly({(1, 0, 0, 0): 1}).evaluate(0.5, 0, -1, 4),
    ],
    ids=["new_model", "CohClass", "PowerSeries", "conjecture_series", "evaluate"],
)
def test_floats_are_refused(build):
    # a float is not exact: 0.1 would be read as 3602879701896397/2^55
    with pytest.raises(TypeError, match="float"):
        build()
