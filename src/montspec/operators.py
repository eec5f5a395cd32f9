"""Operator family definitions: potentials, parameters and exact symmetries.

The central object is the Montgomery family

    Q(k, alpha) = -d^2/dt^2 + (t^(k+1)/(k+1) - alpha)^2

on the real line, together with the comparison potentials used by the
bound machinery (pure powers t^m, shifted harmonic wells (t - xi)^2 and
the half-power model (t^(k/2) / (k/2))^2).
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Union

import numpy as np

# Finite sentinel returned instead of an overflowing potential value.  The
# eigensolver's truncation rule keeps all sampled points far below this, so
# the sentinel only guards extreme (k, t) combinations.
SATURATION = 1e300

# t^n is evaluated directly only while n*log|t| stays below this, keeping
# the squared potential below SATURATION.
_LOG_LIMIT = 340.0


class Geometry(Enum):
    FULL_LINE = "full_line"
    HALF_LINE_POSITIVE = "half_line_positive"


class BoundaryCondition(Enum):
    NONE = "none"
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


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


def _eval_guarded_power(t, n: int, scale: float):
    """(t^n / scale, overflow mask) with overflow detected in log domain."""
    t_arr = np.asarray(t, dtype=float)
    abs_t = np.maximum(np.abs(t_arr), 1.0)
    unsafe = n * np.log(abs_t) > _LOG_LIMIT + np.log(scale)
    t_safe = np.where(unsafe, 0.0, t_arr)
    return int_power(t_safe, n) / scale, unsafe


def _scalar_like(value, template):
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(value)
    return value


@dataclass(frozen=True)
class MontgomeryPotential:
    """V(t) = (t^(k+1)/(k+1) - alpha)^2, the magnetic-well potential."""

    k: int
    alpha: float

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        # from sqrt(SATURATION) on, alpha^2 meets the overflow sentinel
        if not abs(self.alpha) < math.sqrt(SATURATION):  # nan fails too
            raise ValueError(f"|alpha| must be below 1e150, got {self.alpha!r}")

    def signed_root(self, t):
        """The signed square root t^(k+1)/(k+1) - alpha of the potential."""
        w, unsafe = _eval_guarded_power(t, self.k + 1, float(self.k + 1))
        w = w - self.alpha
        w = np.where(unsafe, np.sqrt(SATURATION), w)
        return _scalar_like(w, t)

    def value(self, t):
        w, unsafe = _eval_guarded_power(t, self.k + 1, float(self.k + 1))
        v = (w - self.alpha) ** 2
        v = np.where(unsafe, SATURATION, v)
        return _scalar_like(v, t)

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
        v, unsafe = _eval_guarded_power(t, self.m, 1.0)
        v = np.where(unsafe, SATURATION, v)
        return _scalar_like(v, t)

    def turning_point(self, energy: float) -> float:
        """Radius past which V >= energy: energy^(1/m)."""
        return energy ** (1.0 / self.m)


@dataclass(frozen=True)
class ShiftedHarmonicPotential:
    """V(t) = (t - center)^2, the de Gennes comparison well."""

    center: float

    def value(self, t):
        d = np.asarray(t, dtype=float) - self.center
        v = np.where(np.abs(d) > 1e150, SATURATION, d * d)
        return _scalar_like(v, t)

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
        w, unsafe = _eval_guarded_power(t, half, float(half))
        v = np.where(unsafe, SATURATION, w * w)
        return _scalar_like(v, t)

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
    boundary: BoundaryCondition = BoundaryCondition.NONE

    def __post_init__(self):
        self.potential()  # validates k and alpha
        if self.geometry is Geometry.FULL_LINE:
            if self.boundary is not BoundaryCondition.NONE:
                raise ValueError("full-line geometry takes no boundary condition")
        else:
            if self.boundary not in (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN):
                raise ValueError("half-line geometry requires Dirichlet or Neumann at t=0")

    def potential(self) -> MontgomeryPotential:
        return MontgomeryPotential(self.k, self.alpha)


def reflection_conjugate(spec: OperatorSpec) -> OperatorSpec:
    """The unitary image of spec under t -> -t, which negates alpha.

    For even k the conjugate has an identical spectrum, which is why the
    lowest eigenvalue is an even function of alpha.
    """
    if spec.geometry is not Geometry.FULL_LINE:
        raise ValueError("reflection conjugation is only defined on the full line")
    new_alpha = -spec.alpha if spec.alpha != 0.0 else 0.0
    return replace(spec, alpha=new_alpha)
