"""Operator family definitions: potentials and parameters.

The central object is the Montgomery family

    Q(k, alpha) = -d^2/dt^2 + (t^(k+1)/(k+1) - alpha)^2

on the real line, together with the comparison potentials used by the
bound machinery (pure powers t^m, shifted harmonic wells (t - xi)^2 and
the half-power model (t^(k/2) / (k/2))^2).  `Geometry` names the domain
an operator acts on: the full line, or the half line t > 0 with a
Dirichlet condition at t = 0.  It only picks the solve interval
(eigensolver.truncation_interval); every discretized end is Dirichlet.

Overflow has one rule: a potential is evaluated in floating point, where
an overflow gives +-inf without a warning, and then clamped: V to
min(V, SATURATION), and the Montgomery signed root to +-sqrt(SATURATION),
so a saturated root keeps its sign.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

# The ceiling of every potential value, V = min(V, SATURATION).  The
# eigensolver's truncation rule keeps all sampled points far below it, so
# the clamp acts only at extreme (k, t).
SATURATION = 1e300
_ROOT_CEILING = math.sqrt(SATURATION)


class Geometry(Enum):
    """The domain: the real line, or t > 0 with u(0) = 0."""

    FULL_LINE = "full_line"
    HALF_LINE_DIRICHLET = "half_line_dirichlet"


def int_power(t, n: int):
    """t**n for integer n >= 0 by square-and-multiply.

    Keeps the rounding of t^(k+1) reproducible and well behaved near the
    zero of the Montgomery potential, where pow() implementations may
    round differently.  Accepts scalars or numpy arrays.
    """
    if n < 0:
        raise ValueError("int_power requires n >= 0")
    result = np.ones_like(np.asarray(t, dtype=float))
    base = np.asarray(t, dtype=float).copy()
    e = n
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _scalar_like(value, template):
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(value)
    return value


def _clamped(v, template):
    """min(v, SATURATION), as a float for a scalar template."""
    return _scalar_like(np.minimum(v, SATURATION), template)


@dataclass(frozen=True)
class MontgomeryPotential:
    """V(t) = (t^(k+1)/(k+1) - alpha)^2, the magnetic-well potential."""

    k: int
    alpha: float

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        # from sqrt(SATURATION) on, alpha^2 meets the clamp
        if not abs(self.alpha) < _ROOT_CEILING:  # nan fails too
            raise ValueError(f"|alpha| must be below 1e150, got {self.alpha!r}")

    def _root(self, t):
        return int_power(t, self.k + 1) / float(self.k + 1) - self.alpha

    def signed_root(self, t):
        """The signed square root t^(k+1)/(k+1) - alpha of the potential,
        clipped to [-sqrt(SATURATION), sqrt(SATURATION)]."""
        with np.errstate(over="ignore"):
            w = self._root(t)
        return _scalar_like(np.clip(w, -_ROOT_CEILING, _ROOT_CEILING), t)

    def value(self, t):
        with np.errstate(over="ignore"):
            return _clamped(self._root(t) ** 2, t)

    def turning_point(self, energy: float) -> float:
        """Radius past which V >= energy: ((k+1)(|alpha| + sqrt(energy)))^(1/(k+1))."""
        s = math.sqrt(energy)
        return math.exp(math.log((self.k + 1) * (abs(self.alpha) + s)) / (self.k + 1))


@dataclass(frozen=True)
class PureAnharmonicPotential:
    """V(t) = t^m.  For odd m this is only meaningful on the half line."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ValueError(f"exponent must be a positive integer, got {self.m!r}")

    def value(self, t):
        with np.errstate(over="ignore"):
            return _clamped(int_power(t, self.m), t)

    def turning_point(self, energy: float) -> float:
        """Radius past which V >= energy: energy^(1/m)."""
        return energy ** (1.0 / self.m)


@dataclass(frozen=True)
class ShiftedHarmonicPotential:
    """V(t) = (t - center)^2, the de Gennes comparison well."""

    center: float

    def value(self, t):
        with np.errstate(over="ignore"):
            d = np.asarray(t, dtype=float) - self.center
            return _clamped(d * d, t)

    def turning_point(self, energy: float) -> float:
        """Radius past which V >= energy: |center| + sqrt(energy)."""
        return abs(self.center) + math.sqrt(energy)


@dataclass(frozen=True)
class HalfPowerModelPotential:
    """V(t) = (t^(k/2) / (k/2))^2, the commutator comparison model (even k)."""

    k: int

    def __post_init__(self):
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError("half-power model requires an even k >= 2")

    def value(self, t):
        half = self.k // 2
        with np.errstate(over="ignore"):
            w = int_power(t, half) / float(half)
            return _clamped(w * w, t)

    def turning_point(self, energy: float) -> float:
        """Radius past which V >= energy: ((k/2) sqrt(energy))^(2/k)."""
        return (self.k // 2 * math.sqrt(energy)) ** (2.0 / self.k)


PotentialKind = Union[
    MontgomeryPotential,
    PureAnharmonicPotential,
    ShiftedHarmonicPotential,
    HalfPowerModelPotential,
]


@dataclass(frozen=True)
class OperatorSpec:
    """One member of the Montgomery family plus its domain geometry."""

    k: int
    alpha: float
    geometry: Geometry = Geometry.FULL_LINE

    def __post_init__(self):
        self.potential()  # validates k and alpha
        if not isinstance(self.geometry, Geometry):
            raise ValueError(f"geometry must be a Geometry member, got {self.geometry!r}")

    def potential(self) -> MontgomeryPotential:
        return MontgomeryPotential(self.k, self.alpha)

