"""Independent derivation routes that only the tests read: the commutator
constant h by direct maximization over sigma, the minimizing width of
the k = 2 trial state, the unoptimized harmonic floor B_k(T) and its
maximizing T, the first eigenvalue of the Dirichlet step well as the
root of its gluing equation, the reflection t -> -t of an operator, the
saturated-barrier core of a level, a level's points and a decay
window's rows materialized from floats, and the even extension of the de
Gennes well.  Each cross-checks a closed form, symmetry, bound or
grid-index rule the library relies on."""

import math
from dataclasses import dataclass, replace

import numpy as np

from montspec import eigensolver
from montspec.bounds import h_closed
from montspec.errors import SolverFailure
from montspec.operators import Geometry, OperatorSpec
from montspec.optimize import minimize_golden


def maximize_golden(f, a: float, b: float, xtol: float = 1e-10):
    """Maximize a unimodal f on [a, b]; returns (x_max, f(x_max))."""
    x, neg = minimize_golden(lambda t: -f(t), a, b, xtol=xtol)
    return x, -neg


def h_sigma_expression(a: float, sigma: float) -> float:
    """(1 - sigma^2)^(a/(a+2)) * sigma^(2/(a+2)) * (a/2)^(4/(a+2))."""
    e = a + 2.0
    return math.exp(
        a / e * math.log1p(-sigma * sigma)
        + 2.0 / e * math.log(sigma)
        + 4.0 / e * math.log(a / 2.0)
    )


def _h_max_point(a: float):
    # The line search stops at ~sqrt(eps)|sigma| on this flat maximum
    # (below that its comparisons are rounding noise); one three-point
    # parabolic step then recovers the vertex to ~1e-10, since the
    # second difference is still well resolved at d = 1e-5.
    if a < 2:
        raise ValueError("h is used for a >= 2")
    f = lambda s: h_sigma_expression(a, s)
    sigma, _ = maximize_golden(f, 1e-12, 1.0 - 1e-12, xtol=1e-13)
    d = 1e-5
    lo, mid, hi = f(sigma - d), f(sigma), f(sigma + d)
    curvature = lo - 2.0 * mid + hi
    if curvature < 0.0:
        sigma = sigma + 0.5 * d * (lo - hi) / curvature
    return sigma, f(sigma)


def h_maximized(a: float) -> float:
    """h(a) recomputed by maximizing h_sigma_expression over sigma in
    (0, 1): Brent's line search with xtol = 1e-13 in sigma, plus one
    parabolic refinement of the vertex.  The interior maximizer sits at
    1/sqrt(a+1)."""
    return _h_max_point(a)[1]


def h_maximizer(a: float) -> float:
    """The maximizing sigma of h_maximized (analytically 1/sqrt(a+1))."""
    return _h_max_point(a)[0]


def trial_width_k2() -> float:
    """The trial-state half-width minimizing the k=2 energy (about 2.57)."""
    pi = math.pi
    numerator = 4.0 * pi**6 - 210.0 * pi**4 + 4410.0 * pi**2 - 26775.0
    return 2.0**0.25 * pi * (numerator / 7.0) ** (-1.0 / 8.0)


def optimal_harmonic_T(k: int) -> float:
    """The barrier position maximizing lower_bound_B_at_T: (3 sqrt(2k)/4)^(2/(k+2))."""
    return (3.0 * math.sqrt(2.0 * k) / 4.0) ** (2.0 / (k + 2.0))


def lower_bound_B_at_T(k: int, T: float) -> float:
    """The unoptimized second-eigenvalue floor as a function of T > 0:
    h(k) * (3 omega - (2k-4)/k^2 * T^k) with omega = sqrt(2 T^(k-2) / k).

    The half-power model potential dominates the tangent parabola
    omega^2 t^2 - const, whose second eigenvalue is 3 omega - const.
    Maximizing over T recovers bounds.lower_bound_B exactly.
    """
    omega = math.sqrt(2.0 * math.exp((k - 2) * math.log(T)) / k)
    const = (2.0 * k - 4.0) / (k * k) * math.exp(k * math.log(T))
    return h_closed(k) * (3.0 * omega - const)


def dirichlet_well_lambda(T: float, k: int) -> float:
    """First eigenvalue of -d2/dt2 + T^k on {t > T}, Dirichlet at t=0.

    The ground state is sin(sqrt(lambda) t) glued to a decaying
    exponential at t=T, which forces tan(sqrt(lambda) T) = -sqrt(lambda)/omega
    with omega = sqrt(T^k - lambda).  That equation has a unique root with
    sqrt(lambda) in (pi/2T, pi/T); bisection pins it to 1e-12.
    """
    if not T > 1.0:
        raise ValueError("need T > 1")
    # exponent clamp: a barrier past e^700 acts as a hard wall in double
    # precision, so the clamp does not move the root
    barrier = math.exp(min(k * math.log(T), 700.0))
    ceiling = (math.pi / T) ** 2
    if not barrier > ceiling:
        raise ValueError("need T^k above the Dirichlet-box ceiling (pi/T)^2")

    def gluing(s: float) -> float:
        omega = math.sqrt(barrier - s * s)
        return math.tan(s * T) + s / omega

    a = (math.pi / (2.0 * T)) * (1.0 + 1e-9)
    # upper end nudged one ulp past pi/T: for enormous barriers the root
    # sits within rounding of pi/T itself and tan(pi_float) < 0
    b = (math.pi / T) * (1.0 + 8e-16)
    if not gluing(a) < 0.0 < gluing(b):
        raise SolverFailure("gluing equation failed to bracket a root")
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        if gluing(mid) < 0.0:
            a = mid
        else:
            b = mid
    s = 0.5 * (a + b)
    return s * s


def reflection_conjugate(spec: OperatorSpec) -> OperatorSpec:
    """The unitary image of spec under t -> -t, which negates alpha.

    For even k the conjugate has an identical spectrum, which is why the
    lowest eigenvalue is an even function of alpha.
    """
    if spec.geometry is not Geometry.FULL_LINE:
        raise ValueError("reflection conjugation is only defined on the full line")
    new_alpha = -spec.alpha if spec.alpha != 0.0 else 0.0
    return replace(spec, alpha=new_alpha)


def barrier_core(diag, offdiag):
    """(lo, hi): the rows from the first to the last diagonal entry below
    max|offdiag| / eps, one row wider on each side.  Outside them every
    row is a saturated barrier, where the diagonal swamps its couplings in
    floating point; the decay window must trim at least those rows."""
    threshold = np.max(np.abs(offdiag)) / np.finfo(float).eps
    coupled = np.flatnonzero(~(np.asarray(diag) >= threshold))
    if len(coupled) == 0:
        return 0, len(diag)
    return max(int(coupled[0]) - 1, 0), min(int(coupled[-1]) + 2, len(diag))


def system_points(system, lower: float):
    """The sample points of a system's rows on a grid from `lower`, built as
    eigensolver._grid_points builds a grid's."""
    return eigensolver._grid_points(lower, system.spacing, system.first,
                                    system.first + len(system.diag))


def window_rows(points, window, recorded):
    """The rows [lo, hi) of a level with sample `points` that hold a decay
    window (g_lo, g_hi) of the recorded grid (a GridSpec), found by
    searchsorted on the materialized points at the window's two ends; an
    end that is None is not cut."""
    ends = eigensolver._grid_points(recorded.lower, recorded.spacing, 0, recorded.n + 2)
    g_lo, g_hi = window
    t_lo = -math.inf if g_lo is None else ends[g_lo]
    t_hi = math.inf if g_hi is None else ends[g_hi]
    return int(np.searchsorted(points, t_lo, "left")), int(np.searchsorted(points, t_hi, "right"))


@dataclass(frozen=True)
class EvenShiftedHarmonicPotential:
    """V(t) = (|t| - center)^2 on the full line: the even extension of the
    de Gennes well (t - center)^2 on t > 0.  Its even modes are that
    well's half-line modes with u'(0) = 0, and its ground state is even,
    so its lambda1 is the de Gennes mu(center).  On a symmetric grid of
    odd n the full-line scheme restricted to even vectors is the
    mirror-ghost-point scheme on the half grid, u(-h) = u(h)."""

    center: float

    def value(self, t):
        d = np.abs(np.asarray(t, dtype=float)) - self.center
        return d * d

    def turning_point(self, energy: float) -> float:
        """Radius past which V >= energy: |center| + sqrt(energy), the
        half line's radius for the same well."""
        return abs(self.center) + math.sqrt(energy)
