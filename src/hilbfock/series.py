"""Truncated formal power series over the rationals.

Supports the ring operations, exponential and logarithm, rational powers of
series with constant term one, composition, and reversion of series with
vanishing constant term and invertible linear term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import List, Sequence, Tuple

from .linear import rat

Q = Fraction


class InvalidConstantTerm(ValueError):
    """The constant term does not allow the requested operation."""


class NotInvertible(ValueError):
    """The series cannot be reverted (compositionally inverted)."""


def log_coefficients(f: Sequence) -> list:
    """The coefficients g_0 = 0, g_1, .. of log(f_0 + f_1 z + ..) for f_0
    = 1, by the recurrence n g_n = n f_n - sum_(0<k<n) k g_k f_(n-k).  The
    f_n may be rationals or any ring elements that a rational scales, such
    as polynomials; the caller checks f_0."""
    g = [0 * f[0]] * len(f)
    for n in range(1, len(f)):
        s = n * f[n]
        for k in range(1, n):
            s -= k * g[k] * f[n - k]
        g[n] = Q(1, n) * s
    return g


class PowerSeries:
    """A power series truncated at a fixed order (inclusive)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[object], order: int | None = None):
        cs = [rat(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            cs = cs[: order + 1] + [Q(0)] * (order + 1 - len(cs))
        if not cs:
            cs = [Q(0)]
        self.coeffs = tuple(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Q:
        if i < 0 or i > self.order:
            return Q(0)
        return self.coeffs[i]

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1], order)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        return cls([0, 1], order)

    def truncate(self, order: int) -> "PowerSeries":
        return PowerSeries(self.coeffs, order)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.order, other.order)
        return PowerSeries(
            [self.coefficient(i) + other.coefficient(i) for i in range(order + 1)]
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + (-other)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coeffs])

    def scale(self, c) -> "PowerSeries":
        c = rat(c)
        return PowerSeries([c * x for x in self.coeffs])

    def __rmul__(self, c) -> "PowerSeries":
        return self.scale(c)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return self.scale(other)
        order = min(self.order, other.order)
        out = [Q(0)] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if not a:
                continue
            for j in range(0, order + 1 - i):
                b = other.coefficient(j)
                if b:
                    out[i + j] += a * b
        return PowerSeries(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def exp(self) -> "PowerSeries":
        if self.coeffs[0] != 0:
            raise InvalidConstantTerm("exp needs vanishing constant term")
        N = self.order
        g = [Q(1)] + [Q(0)] * N
        for n in range(1, N + 1):
            s = Q(0)
            for k in range(1, n + 1):
                fk = self.coefficient(k)
                if fk:
                    s += k * fk * g[n - k]
            g[n] = s / n
        return PowerSeries(g)

    def log(self) -> "PowerSeries":
        if self.coeffs[0] != 1:
            raise InvalidConstantTerm("log needs constant term one")
        return PowerSeries(log_coefficients(self.coeffs))

    def pow(self, a) -> "PowerSeries":
        """Rational power of a series with constant term one."""
        if self.coeffs[0] != 1:
            raise InvalidConstantTerm("pow needs constant term one")
        return self.log().scale(rat(a)).exp()

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute ``inner`` (constant term zero) into this series."""
        if inner.coeffs[0] != 0:
            raise InvalidConstantTerm("composition needs inner constant term zero")
        order = min(self.order, inner.order)
        result = PowerSeries.zero(order)
        power = PowerSeries.one(order)
        g = inner.truncate(order)
        for k in range(0, order + 1):
            c = self.coefficient(k)
            if c:
                result = result + power.scale(c)
            if k < order:
                power = power * g
        return result

    def revert(self) -> "PowerSeries":
        """Compositional inverse of a series with zero constant term."""
        if self.coeffs[0] != 0 or self.coefficient(1) == 0:
            raise NotInvertible(
                "reversion needs zero constant term and invertible linear term"
            )
        N = self.order
        c1 = self.coefficient(1)
        b: List[Q] = [Q(0), 1 / c1]
        for k in range(2, N + 1):
            trial = PowerSeries(b + [Q(0)], k)
            r = self.truncate(k).compose(trial).coefficient(k)
            b.append(-r / c1)
        return PowerSeries(b, N)

    def __repr__(self) -> str:
        return "PowerSeries(%s)" % (list(self.coeffs),)


@cache
def _closed_form_logs(N: int) -> Tuple[PowerSeries, PowerSeries, PowerSeries]:
    """log(1-k), log(1-2k) and log(1-6k+6k^2) at k = k(z), to order N."""
    k = PowerSeries.identity(N)
    one = PowerSeries.one(N)
    om_k = one - k
    om_2k = one - k.scale(2)
    quad = one - k.scale(6) + (k * k).scale(6)
    z_of_k = k * om_k * om_2k.pow(4) * quad.pow(-3)
    k_of_z = z_of_k.revert()
    return tuple(base.compose(k_of_z).log() for base in (om_k, om_2k, quad))


def conjecture_series(d, pi, kappa, e, n_max: int) -> PowerSeries:
    """Closed-form candidate for the generating series of top Segre numbers.

    With chi = (e + kappa)/12 and exponents a = pi - 2*kappa,
    b = d - 2*pi + kappa + 3*chi, c = (d - pi)/2 + chi, the series is
    (1-k)^a (1-2k)^b / (1-6k+6k^2)^c where k = k(z) inverts
    z = k (1-k) (1-2k)^4 / (1-6k+6k^2)^3.  It is formed as one exponential,
    exp(a log(1-k) + b log(1-2k) - c log(1-6k+6k^2)), from logarithms that
    depend only on the order and are computed once per order.
    """
    d, pi, kappa, e = map(rat, (d, pi, kappa, e))
    chi = (e + kappa) / 12
    a = pi - 2 * kappa
    b = d - 2 * pi + kappa + 3 * chi
    c = (d - pi) / 2 + chi
    # reversion needs the linear term, which order 0 would truncate away
    log_a, log_b, log_c = _closed_form_logs(max(n_max, 1))
    return (log_a.scale(a) + log_b.scale(b) - log_c.scale(c)).exp().truncate(n_max)
