from fractions import Fraction

import pytest

from hilbfock import new_model
from hilbfock.operators import OperatorEngine
from hilbfock.segre import Sampler


@pytest.fixture(scope="session")
def model():
    """Minimal model: d=1, pi=0, kappa=-1, no extra middle classes (e=4)."""
    return new_model(1, 0, -1, 0)


@pytest.fixture(scope="session")
def model_b2():
    """A model with one extra middle class (e=5)."""
    return new_model(2, 1, -1, 1)


@pytest.fixture(scope="session")
def engine(model):
    return OperatorEngine(model)


@pytest.fixture(scope="session")
def engine_b2(model_b2):
    return OperatorEngine(model_b2)


@pytest.fixture(scope="session")
def engine_rational():
    """A model with rational parameters, where the boundary denominator
    ``_den`` is 336 and the pairing denominator ``_qden`` is 6."""
    return OperatorEngine(new_model(Fraction(3, 2), Fraction(1, 3), -2, 1))


@pytest.fixture(scope="session")
def sampler():
    """Shared in-memory sample cache so chains are computed once per run."""
    return Sampler()


@pytest.fixture(autouse=True)
def no_user_cache(monkeypatch):
    """The command line defaults ``--cache`` to ``$HILB_CACHE``; a user's
    cache must not reach the tests, which set the variable themselves."""
    monkeypatch.delenv("HILB_CACHE", raising=False)
