"""Closed-form spectral bounds for the Montgomery family and the derived
exclusion radii.

Everything here is plain arithmetic on k (no PDE solves): the variational
upper bound A_k on the bottom eigenvalue at alpha = 0, the commutator
constant h(k), the second-eigenvalue floors B_k and B~_k, the large-alpha
ground floor C_k built on the de Gennes constant, and the radii
alpha_star / alpha_double_star that exclude critical points and global
minima from explicit alpha intervals.  bounds_table is the one place the
certificate chain (constants, gap floor, radii) is put together for a
k; certificates, figure tables and the CLI read it, and SMALL_K_MAX is
the one definition of the chain's regime split.

Fractional powers are evaluated in the log domain throughout; k up to a
few hundred exceeds what naive pow chains handle cleanly.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import CertificationError
from .optimize import maximize_golden

# The de Gennes constant enters every certified inequality through this
# floor, not through its computed value (~0.59011); the computed value is
# reported separately for information.
THETA0_LOWER = 0.59

# Fixed barrier position for the B~ bound; deliberately not optimized.
B_TILDE_T = 1.1

PI2_OVER_4 = math.pi**2 / 4.0

# The regime split of the chain: even k up to SMALL_K_MAX take the
# harmonic second-eigenvalue floor B_k, even k from LARGE_K_MIN on the
# step-well floor B~_k.
SMALL_K_MAX = 68
LARGE_K_MIN = SMALL_K_MAX + 2

_GOLDEN_SIGMA = (math.sqrt(5.0) - 1.0) / 2.0


def _require_even_k(k: int, minimum: int = 2) -> None:
    if not isinstance(k, int) or k < minimum or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= {minimum}, got {k!r}")
    # every formula here reads k + 1 as a double, exact only below 2^53
    if k >= 2**53:
        raise ValueError(f"k = {k} is past double precision: k + 1 is inexact from 2^53 on")


def h_closed(a: float) -> float:
    """h(a) = 2^(-4/(a+2)) * a^((a+4)/(a+2)) * (a+1)^(1/(a+2)-1).

    The commutator constant: the optimal Cauchy-Schwarz weight in the
    operator comparison against the half-power model.  h(a) -> 1 as
    a -> infinity.
    """
    if a < 2:
        raise ValueError("h is used for a >= 2")
    e = a + 2.0
    return math.exp(
        -4.0 / e * math.log(2.0)
        + (a + 4.0) / e * math.log(a)
        + (1.0 / e - 1.0) * math.log(a + 1.0)
    )


def h_sigma_expression(a: float, sigma: float) -> float:
    """(1 - sigma^2)^(a/(a+2)) * sigma^(2/(a+2)) * (a/2)^(4/(a+2))."""
    e = a + 2.0
    return math.exp(
        a / e * math.log1p(-sigma * sigma)
        + 2.0 / e * math.log(sigma)
        + 4.0 / e * math.log(a / 2.0)
    )


def _h_max_point(a: float) -> Tuple[float, float]:
    # The line search stops at ~sqrt(eps)|sigma| on this flat maximum
    # (below that its comparisons are rounding noise); one three-point
    # parabolic step then recovers the vertex to ~1e-10, since the
    # second difference is still well resolved at d = 1e-5.
    f = lambda s: h_sigma_expression(a, s)
    sigma, _ = maximize_golden(f, 1e-12, 1.0 - 1e-12, xtol=1e-13)
    d = 1e-5
    lo, mid, hi = f(sigma - d), f(sigma), f(sigma + d)
    curvature = lo - 2.0 * mid + hi
    if curvature < 0.0:
        sigma = sigma + 0.5 * d * (lo - hi) / curvature
    return sigma, f(sigma)


def h_maximized(a: float) -> float:
    """h(a) recomputed by maximizing over sigma in (0, 1).

    Independent route to h_closed; the interior maximizer sits at
    1/sqrt(a+1).  Brent's line search (optimize.maximize_golden) with
    xtol = 1e-13 in sigma, plus one parabolic refinement of the vertex.
    """
    if a < 2:
        raise ValueError("h is used for a >= 2")
    return _h_max_point(a)[1]


def h_maximizer(a: float) -> float:
    """The maximizing sigma of h_maximized (analytically 1/sqrt(a+1))."""
    if a < 2:
        raise ValueError("h is used for a >= 2")
    return _h_max_point(a)[0]


# Coefficient of rho^6 in the cos^2 trial-state energy at k = 2, times 7:
# 4 pi^6 - 210 pi^4 + 4410 pi^2 - 26775.
_K2_TRIAL_NUMERATOR = (
    4.0 * math.pi**6 - 210.0 * math.pi**4 + 4410.0 * math.pi**2 - 26775.0
)


def upper_bound_A_k2() -> float:
    """Sharp k=2 upper bound from the compactly supported cos^2 trial state:
    A_2 = (2^(3/2) / 9) * ((4 pi^6 - 210 pi^4 + 4410 pi^2 - 26775) / 7)^(1/4).
    """
    return (2.0**1.5 / 9.0) * (_K2_TRIAL_NUMERATOR / 7.0) ** 0.25


def trial_width_k2() -> float:
    """The trial-state half-width minimizing the k=2 energy (about 2.57)."""
    return 2.0**0.25 * math.pi * (_K2_TRIAL_NUMERATOR / 7.0) ** (-1.0 / 8.0)


def upper_bound_A_general(k: int) -> float:
    """The general trial-state bound, valid for every even k >= 2:
    (pi^2/4) ((k+2)/(k+1)) ((1/4)(k+1)(2k+3)(2k+4)(2k+5))^(-1/(k+2)).
    """
    _require_even_k(k)
    log_prod = (
        math.log(0.25)
        + math.log(k + 1.0)
        + math.log(2.0 * k + 3.0)
        + math.log(2.0 * k + 4.0)
        + math.log(2.0 * k + 5.0)
    )
    return PI2_OVER_4 * (k + 2.0) / (k + 1.0) * math.exp(-log_prod / (k + 2.0))


def upper_bound_A(k: int) -> float:
    """Upper bound A_k on the bottom eigenvalue at alpha = 0.

    Uses the sharp cos^2 value at k = 2 (the general formula also covers
    k = 2 but is weaker there) and the general formula for k >= 4.
    """
    _require_even_k(k)
    if k == 2:
        return upper_bound_A_k2()
    return upper_bound_A_general(k)


def logderiv_cubic(k: float) -> float:
    """p(k) = 3.73 k^3 + 10.69 k^2 - 5.02 k - 17.98.

    Floor polynomial for the logarithmic derivative of the general A
    formula; p > 0 on k >= 2 is what makes A_k increasing.  p(2) = 44.58.
    """
    return 3.73 * k**3 + 10.69 * k**2 - 5.02 * k - 17.98


def verify_A_increasing(k_max: int) -> Tuple[bool, list]:
    """Check A_(k+2) > A_k along even k up to k_max with the general formula.

    Returns (all_increasing, margins) where margins[i] is the increment
    from the i-th even k to the next.  Together with the k -> infinity
    limit pi^2/4 this pins A_k < pi^2/4 for all even k.
    """
    if k_max < 4:
        raise ValueError("k_max must be at least 4")
    ks = range(2, k_max + 1, 2)
    values = [upper_bound_A_general(k) for k in ks]
    margins = [b - a for a, b in zip(values, values[1:])]
    return all(m > 0.0 for m in margins), margins


def lower_bound_B(k: int) -> float:
    """Second-eigenvalue floor, uniform in alpha:
    B_k = 3^(2k/(k+2)) (k+2) / (2^((2k+2)/(k+2)) (k+1)^((k+1)/(k+2))).

    Commutator comparison with a harmonic oscillator fitted under the
    half-power model; tends to 9/4 as k grows.
    """
    _require_even_k(k)
    e = k + 2.0
    return math.exp(
        2.0 * k / e * math.log(3.0)
        + math.log(e)
        - (2.0 * k + 2.0) / e * math.log(2.0)
        - (k + 1.0) / e * math.log(k + 1.0)
    )


def optimal_harmonic_T(k: int) -> float:
    """The barrier position optimizing lower_bound_B_at_T: (3 sqrt(2k)/4)^(2/(k+2))."""
    _require_even_k(k)
    return (3.0 * math.sqrt(2.0 * k) / 4.0) ** (2.0 / (k + 2.0))


def lower_bound_B_at_T(k: int, T: float) -> float:
    """The unoptimized second-eigenvalue floor as a function of T > 0:
    h(k) * (3 omega - (2k-4)/k^2 * T^k) with omega = sqrt(2 T^(k-2) / k).

    The half-power model potential dominates the tangent parabola
    omega^2 t^2 - const, whose second eigenvalue is 3 omega - const.
    Maximizing over T recovers lower_bound_B exactly.
    """
    _require_even_k(k)
    if T <= 0:
        raise ValueError("T must be positive")
    omega = math.sqrt(2.0 * math.exp((k - 2) * math.log(T)) / k)
    const = (2.0 * k - 4.0) / (k * k) * math.exp(k * math.log(T))
    return h_closed(k) * (3.0 * omega - const)


def lower_bound_B_tilde(k: int) -> float:
    """Large-k second-eigenvalue floor via the Dirichlet step well with its
    barrier at T = B_TILDE_T = 1.1:
    B~_k = ((sqrt(5)-1)/2) * ((pi - arctan(sqrt((pi/T)^2 / (T^k - (pi/T)^2)))) / T)^2.

    Certified for even k >= 70; computable whenever T^k > (pi/T)^2, which
    holds from k = 23.  The arctan expression under-estimates the exact
    step-well eigenvalue, so this floor sits below
    ((sqrt(5)-1)/2) * dirichlet_well_lambda(T, k).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    T = B_TILDE_T
    # exponent clamp: past 700 the arctan argument underflows to zero
    # anyway, so the clamp is exact in double precision
    barrier = math.exp(min(k * math.log(T), 700.0))
    ceiling = (math.pi / T) ** 2
    if not barrier > ceiling:
        raise ValueError("need T^k > (pi/T)^2 for the step well to bind")
    ratio = ceiling / (barrier - ceiling)
    root = (math.pi - math.atan(math.sqrt(ratio))) / T
    return _GOLDEN_SIGMA * root * root


def c_bound_terms(k: int, alpha0: float = 1.5) -> Tuple[float, float]:
    """The two competing floors behind lower_bound_C, for alpha >= alpha0:

      first  = (alpha0 - 1/(k+1))^2                     (well bottom, t < 1)
      second = (alpha0 (k+1) - 1) /
               ((k+1) ((alpha0 (k+1))^(1/(k+1)) - 1)) * 0.59
                                                (de Gennes comparison, t >= 1)

    The root less one is expm1(log(alpha0 (k+1)) / (k+1)): written as
    exp(...) - 1 it cancels, losing digits from k ~ 1e9 and rounding to 0
    near k ~ 3.7e17.
    """
    _require_even_k(k)
    if alpha0 < 1.5:
        raise ValueError("alpha0 must be at least 3/2")
    first = (alpha0 - 1.0 / (k + 1.0)) ** 2
    scaled = alpha0 * (k + 1.0)
    denominator = (k + 1.0) * math.expm1(math.log(scaled) / (k + 1.0))
    second = (scaled - 1.0) / denominator * THETA0_LOWER
    return first, second


def gap_ratio(k: int) -> float:
    """(k+2)/(k+6): the gap criterion (k+2)/(k+6) lambda2 > lambda1 rules
    out a local maximum of lambda1(alpha) (see identities.IdentityReport)."""
    return (k + 2.0) / (k + 6.0)


def lower_bound_C(k: int, alpha0: float = 1.5) -> float:
    """Floor on the bottom eigenvalue for alpha >= alpha0 (alpha0 >= 3/2).

    Certified uses are alpha0 = 3/2 (small k) and alpha0 = 2.8 (large k).
    """
    return min(c_bound_terms(k, alpha0))


@dataclass(frozen=True)
class BoundsTable:
    """The certificate chain for one even k: the closed-form constants and
    the two exclusion radii derived from them when the table is built.

      gap_floor          = (k+2)/(k+6) B, with B = B_k up to SMALL_K_MAX
                           and B = B~_k beyond.
      alpha_star         = sqrt(gap_floor - A_k); no critical point
                           exists in (0, alpha_star).
      alpha_double_star  = 3/2 - sqrt(C_k - A_k); no global minimum
                           exists beyond it.

    A non-positive alpha_star radicand breaks the chain and raises
    CertificationError, as does C_k <= A_k up to SMALL_K_MAX.  Past
    SMALL_K_MAX the chain does not use alpha_double_star; it is None
    when C_k <= A_k (for very large k the C floor drops below A_k).
    """

    k: int
    a_k: float
    b_k: float
    b_tilde_k: Optional[float]
    c_k: float
    h_k: float
    alpha_star: float = field(init=False)
    alpha_double_star: Optional[float] = field(init=False)
    theta0_lower: float = THETA0_LOWER

    @property
    def gap_floor(self) -> float:
        b = self.b_k if self.k <= SMALL_K_MAX else self.b_tilde_k
        return gap_ratio(self.k) * b

    def __post_init__(self):
        radicand = self.gap_floor - self.a_k
        if radicand <= 0.0:
            raise CertificationError(
                f"gap floor failed at k={self.k}: (k+2)/(k+6) B = "
                f"{self.gap_floor} does not exceed A_k = {self.a_k}"
            )
        c_radicand = self.c_k - self.a_k
        if c_radicand <= 0.0 and self.k <= SMALL_K_MAX:
            raise CertificationError(
                f"large-alpha floor failed at k={self.k}: C_k = {self.c_k} "
                f"does not exceed A_k = {self.a_k}"
            )
        alpha_double_star = 1.5 - math.sqrt(c_radicand) if c_radicand > 0.0 else None
        object.__setattr__(self, "alpha_star", math.sqrt(radicand))
        object.__setattr__(self, "alpha_double_star", alpha_double_star)
        if not self.a_k < PI2_OVER_4:
            raise CertificationError(f"A_{self.k} = {self.a_k} is not below pi^2/4")
        if alpha_double_star is not None and not alpha_double_star < 1.5:
            raise CertificationError(
                f"alpha_double_star = {alpha_double_star} is not below 3/2"
            )


def bounds_table(k: int) -> BoundsTable:
    """The BoundsTable of an even k (B~ reported past SMALL_K_MAX)."""
    _require_even_k(k)
    return BoundsTable(
        k=k,
        a_k=upper_bound_A(k),
        b_k=lower_bound_B(k),
        b_tilde_k=lower_bound_B_tilde(k) if k > SMALL_K_MAX else None,
        c_k=lower_bound_C(k),
        h_k=h_closed(k),
    )

