"""Exact oscillator-algebra calculus on cohomology of Hilbert schemes of points.

The package models the direct sum of the rational cohomology rings of the
Hilbert schemes of points on a polarized surface as a Fock space over the
surface ring of an intersection lattice, and implements the
creation/annihilation calculus, the boundary (derivative) operator,
Virasoro operators, Chern class operators of tautological sheaves, and the
resulting top Segre numbers, all over exact rational arithmetic.
"""

ENGINE_VERSION = "0.1.0"  # before the submodules: segre imports it

from .surface import (
    CohClass,
    DegeneratePairing,
    KClassSpec,
    SurfaceModel,
    new_model,
    parse_class,
)
from .fock import (
    FockVector,
    dimension,
    integrate_hilb,
    pairing,
    vacuum,
)
from .operators import OperatorEngine
from .series import PowerSeries, conjecture_series
from .segre import (
    InconsistentSamples,
    Sampler,
    UnivPoly,
    check_conjecture,
    dm_coefficients,
    fit_dm_linear,
    segre_polynomial,
    segre_series,
)

__all__ = [
    "CohClass",
    "DegeneratePairing",
    "ENGINE_VERSION",
    "FockVector",
    "InconsistentSamples",
    "KClassSpec",
    "OperatorEngine",
    "PowerSeries",
    "Sampler",
    "SurfaceModel",
    "UnivPoly",
    "check_conjecture",
    "conjecture_series",
    "dimension",
    "dm_coefficients",
    "fit_dm_linear",
    "integrate_hilb",
    "new_model",
    "pairing",
    "parse_class",
    "segre_polynomial",
    "segre_series",
    "vacuum",
]
