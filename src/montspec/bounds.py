"""Closed-form spectral bounds for the Montgomery family and the derived
exclusion radii.

Everything here is plain arithmetic on k (no PDE solves): the variational
upper bound A_k on the bottom eigenvalue at alpha = 0, the commutator
constant h(k), the second-eigenvalue floors B_k and B~_k, the large-alpha
ground floor C_k built on the de Gennes constant, and the radii
alpha_star / alpha_double_star that exclude critical points and global
minima from explicit alpha intervals.  `chain` is the one place the
certificate chain (constants, gap floor, radii) is put together for a
k; bounds_table, certificates, figure tables and the CLI read it, and
SMALL_K_MAX is the one definition of the chain's regime split.
The de Gennes constant itself enters only as the floor THETA0_LOWER;
de_gennes_theta0 computes it as evidence for that floor, again without
a solve: it is the square of one root of Weber's equation, found by a
secant on the parabolic-cylinder function's Kummer series in doubles.

Each formula the chain reads is written once, against a number
namespace `m` (`pi`, `exp`, `log`, `expm1`, `sqrt`, `atan`, `min`, and
`num` to convert an int or a double).  FLOATS, `math`'s double
arithmetic, serves every public function and table; the certificates
evaluate the same formulas in outward-rounded interval arithmetic.

Fractional powers are evaluated in the log domain throughout; k up to a
few hundred exceeds what naive pow chains handle cleanly.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional, Tuple

from .errors import CertificationError, SolverFailure

# The de Gennes constant enters every certified inequality through this
# floor, not through its computed value (~0.59011, de_gennes_theta0);
# the computed value is reported separately for information.
THETA0_LOWER = 0.59

# Fixed barrier position for the B~ bound; deliberately not optimized.
B_TILDE_T = 1.1

# The regime split of the chain: even k up to SMALL_K_MAX take the
# harmonic second-eigenvalue floor B_k, even k from LARGE_K_MIN on the
# step-well floor B~_k.
SMALL_K_MAX = 68
LARGE_K_MIN = SMALL_K_MAX + 2

# Past SMALL_K_MAX the large-alpha floor is taken for alpha >= 2.8.
LARGE_K_ALPHA0 = 2.8

FLOATS = SimpleNamespace(num=float, pi=math.pi, exp=math.exp, log=math.log,
                         expm1=math.expm1, sqrt=math.sqrt, atan=math.atan, min=min)


def _require_even_k(k: int) -> None:
    if not isinstance(k, int) or k < 2 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 2, got {k!r}")
    # every formula here reads k + 1 as a double, exact only below 2^53
    if k >= 2**53:
        raise ValueError(f"k = {k} is past double precision: k + 1 is inexact from 2^53 on")


def _kummer_m(a: float, b: float, x: float) -> float:
    """Kummer's M(a, b, x) = sum over n of (a)_n / (b)_n x^n / n!, summed
    until a term falls below 1e-17 of the sum.  theta0 reads it at
    x = z^2/2 in (0.36, 0.81), where the terms fall like x^n / n!."""
    term = total = 1.0
    n = 0
    while abs(term) >= 1e-17 * abs(total):  # a nan term ends it too
        term *= (a + n) / (b + n) * x / (n + 1)
        total += term
        n += 1
    return total


def _weber_d(nu: float, z: float) -> float:
    """The parabolic-cylinder function D_nu(z) from its two Kummer series
    (DLMF 12.4 and 12.7; Abramowitz and Stegun 19.12), in doubles:

      D_nu(z) = 2^(nu/2) e^(-z^2/4) [sqrt(pi) / Gamma((1-nu)/2) M(-nu/2, 1/2, z^2/2)
                - sqrt(2 pi) z / Gamma(-nu/2) M((1-nu)/2, 3/2, z^2/2)].

    For z < 0 and nu < 0 both parts are positive.  For 0 < nu < 1 they
    differ in sign and D_nu has a zero on z < 0 (in [-1.3, -0.8] for nu
    in about (0.27, 0.48)), so near it only the absolute error stays
    small: a few ulp of 1 for nu in [-0.35, 0.95] and z in [-1.3, -0.8]
    (tests/test_theta0_oracle.py).  A non-negative integer nu is a pole
    of one Gamma, where math.gamma raises ValueError.
    """
    x = z * z / 2
    even = math.sqrt(math.pi) / math.gamma((1 - nu) / 2) * _kummer_m(-nu / 2, 0.5, x)
    odd = (math.sqrt(2 * math.pi) * z / math.gamma(-nu / 2)
           * _kummer_m((1 - nu) / 2, 1.5, x))
    return 2 ** (nu / 2) * math.exp(-x / 2) * (even - odd)


def _neumann(xi: float) -> float:
    """D_nu'(z) = (z/2) D_nu(z) - D_(nu+1)(z) at z = -sqrt(2) xi, with
    nu = (xi^2 - 1)/2: the Neumann condition whose root is xi0."""
    nu = (xi * xi - 1) / 2
    z = -math.sqrt(2) * xi
    return z / 2 * _weber_d(nu, z) - _weber_d(nu + 1, z)


def de_gennes_theta0(tol: float = 1e-7) -> float:
    """The de Gennes constant theta0: min over xi of the lowest Neumann
    half-line eigenvalue mu(xi) of -d2/dt2 + (t - xi)^2.

    In z = sqrt(2) (t - xi) the operator is Weber's equation: its
    decaying solutions are the parabolic-cylinder functions D_nu(z), with
    eigenvalue 2 nu + 1, and the Neumann condition at t = 0 reads
    D_nu'(-sqrt(2) xi) = 0, where D_nu'(z) = (z/2) D_nu(z) - D_(nu+1)(z).
    At the minimizer xi0, mu(xi0) = xi0^2 (Dauge and Helffer 1993), so
    with nu = (xi^2 - 1)/2 that condition is one equation in xi, whose
    root in (0.6, 0.9) is xi0; theta0 = xi0^2.  D_nu is summed from its
    Kummer series in doubles and the root is a plain secant in xi from
    (0.76, 0.78): its last iterate is the double nearest the exact root,
    and its square the double nearest theta0 (tests/test_theta0_oracle.py),
    whatever the tol.  (An Illinois step, or any iteration in theta, can
    end an ulp or a few off.)

    tol below 1e-9, or nan, is a ValueError.  A secant that does not
    converge, a non-finite Neumann value, a root outside (0.6, 0.9) and
    a value not above THETA0_LOWER are each a SolverFailure.
    """
    if not tol >= 1e-9:  # written so that nan fails too
        raise ValueError(f"tol must be at least 1e-9, got {tol}")
    x0, x1 = 0.76, 0.78
    try:
        f0 = _neumann(x0)
        for _ in range(50):  # the Neumann root takes 5 steps
            f1 = _neumann(x1)
            if not (math.isfinite(f0) and math.isfinite(f1)):
                raise SolverFailure(f"Weber-equation root failed: the Neumann "
                                    f"value is not finite near xi = {x1}")
            if f1 == f0:  # a flat secant has no next step
                break
            x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
            if abs(x1 - x0) <= 4e-16 * abs(x1):
                break
    except (ArithmeticError, ValueError) as exc:  # a Gamma pole or an overflow
        raise SolverFailure(f"Weber-equation root failed: {exc}") from exc
    if not abs(x1 - x0) <= 4e-16 * abs(x1):
        raise SolverFailure(f"Weber-equation root failed: the secant did not "
                            f"converge (last xi = {x1})")
    xi0 = x1
    value = xi0 * xi0
    # the secant is not confined to a bracket, so the bracket is checked here
    if not 0.6 < xi0 < 0.9:
        raise SolverFailure(f"Weber-equation root {xi0} is outside (0.6, 0.9)",
                            best_estimate=value)
    if not value > THETA0_LOWER:
        raise SolverFailure(f"computed de Gennes constant {value} fails the "
                            f"{THETA0_LOWER} floor", best_estimate=value)
    return value


def h_closed(a: float) -> float:
    """h(a) = 2^(-4/(a+2)) * a^((a+4)/(a+2)) * (a+1)^(1/(a+2)-1).

    The commutator constant: the optimal Cauchy-Schwarz weight in the
    operator comparison against the half-power model.  h(a) -> 1 as
    a -> infinity.
    """
    if not (math.isfinite(a) and a >= 2):
        raise ValueError(f"h is used for finite a >= 2, got {a!r}")
    e = a + 2.0
    return math.exp(
        -4.0 / e * math.log(2.0)
        + (a + 4.0) / e * math.log(a)
        + (1.0 / e - 1.0) * math.log(a + 1.0)
    )


def _upper_bound_A(k, m):
    if k == 2:
        # 7 times the rho^6 coefficient of the cos^2 trial-state energy
        numerator = 4.0 * m.pi**6 - 210.0 * m.pi**4 + 4410.0 * m.pi**2 - 26775.0
        return (m.num(2.0) ** 1.5 / 9.0) * (numerator / 7.0) ** 0.25
    return _upper_bound_A_general(k, m)


def _upper_bound_A_general(k, m):
    # the trial-state bound of every even k >= 2: (pi^2/4) ((k+2)/(k+1))
    # ((1/4)(k+1)(2k+3)(2k+4)(2k+5))^(-1/(k+2))
    k = m.num(k)
    log_prod = (
        m.log(0.25)
        + m.log(k + 1.0)
        + m.log(2.0 * k + 3.0)
        + m.log(2.0 * k + 4.0)
        + m.log(2.0 * k + 5.0)
    )
    return m.pi**2 / 4.0 * (k + 2.0) / (k + 1.0) * m.exp(-log_prod / (k + 2.0))


def upper_bound_A(k: int) -> float:
    """Upper bound A_k on the bottom eigenvalue at alpha = 0.

    At k = 2 the sharp value of the compactly supported cos^2 trial state,
    A_2 = (2^(3/2) / 9) ((4 pi^6 - 210 pi^4 + 4410 pi^2 - 26775) / 7)^(1/4)
    (the general formula also covers k = 2 but is weaker there); the
    general formula for k >= 4.
    """
    _require_even_k(k)
    return _upper_bound_A(k, FLOATS)


def _lower_bound_B(k, m):
    k = m.num(k)
    e = k + 2.0
    return m.exp(
        2.0 * k / e * m.log(3.0)
        + m.log(e)
        - (2.0 * k + 2.0) / e * m.log(2.0)
        - (k + 1.0) / e * m.log(k + 1.0)
    )


def lower_bound_B(k: int) -> float:
    """Second-eigenvalue floor, uniform in alpha:
    B_k = 3^(2k/(k+2)) (k+2) / (2^((2k+2)/(k+2)) (k+1)^((k+1)/(k+2))).

    Commutator comparison with a harmonic oscillator fitted under the
    half-power model; tends to 9/4 as k grows.
    """
    _require_even_k(k)
    return _lower_bound_B(k, FLOATS)


def _lower_bound_B_tilde(k, m):
    T = m.num(B_TILDE_T)
    # exponent clamp: past 700 the arctan argument underflows to zero in
    # double precision anyway; in an enclosure it only lowers the barrier,
    # which lowers B~, so the floor stays valid
    barrier = m.exp(m.min(m.num(k) * m.log(T), 700.0))
    ceiling = (m.pi / T) ** 2
    if not barrier > ceiling:
        raise ValueError("need T^k > (pi/T)^2 for the step well to bind")
    ratio = ceiling / (barrier - ceiling)
    root = (m.pi - m.atan(m.sqrt(ratio))) / T
    return (m.sqrt(5.0) - 1.0) / 2.0 * root * root


def lower_bound_B_tilde(k: int) -> float:
    """Large-k second-eigenvalue floor via the Dirichlet step well with its
    barrier at T = B_TILDE_T = 1.1:
    B~_k = ((sqrt(5)-1)/2) * ((pi - arctan(sqrt((pi/T)^2 / (T^k - (pi/T)^2)))) / T)^2.

    Certified for even k >= 70; computable whenever T^k > (pi/T)^2, which
    holds from k = 23.  The arctan expression under-estimates the exact
    step-well eigenvalue, so this floor sits below ((sqrt(5)-1)/2) times
    that eigenvalue, the gluing-equation root in tests/derivations.py.
    """
    if not (math.isfinite(k) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return _lower_bound_B_tilde(k, FLOATS)


def _c_bound_terms(k, alpha0, m):
    # the two competing floors on the bottom eigenvalue for alpha >= alpha0
    # (C_k is the smaller): the well bottom (alpha0 - 1/(k+1))^2 for t < 1,
    # and the de Gennes comparison (alpha0 (k+1) - 1) / ((k+1)
    # ((alpha0 (k+1))^(1/(k+1)) - 1)) THETA0_LOWER for t >= 1.  The root
    # less one is expm1(log(alpha0 (k+1)) / (k+1)): written as exp(...) - 1
    # it cancels, losing digits from k ~ 1e9 and rounding to 0 near k ~ 3.7e17
    k = m.num(k)
    first = (alpha0 - 1.0 / (k + 1.0)) ** 2
    scaled = alpha0 * (k + 1.0)
    denominator = (k + 1.0) * m.expm1(m.log(scaled) / (k + 1.0))
    second = (scaled - 1.0) / denominator * THETA0_LOWER
    return first, second


def gap_ratio(k):
    """(k+2)/(k+6): the gap criterion (k+2)/(k+6) lambda2 > lambda1 rules
    out a local maximum of lambda1(alpha) (see identities.IdentityReport).
    k may be a number of any namespace."""
    return (k + 2.0) / (k + 6.0)


class Chain(NamedTuple):
    """The certificate chain of one even k, in one number namespace:

      gap_floor          = (k+2)/(k+6) B, with B = B_k up to SMALL_K_MAX
                           and B = B~_k beyond;
      alpha_star         = sqrt(gap_floor - A_k): no critical point lies
                           in (0, alpha_star);
      alpha_double_star  = 3/2 - sqrt(C_k - A_k): no global minimum lies
                           beyond it.  None when C_k does not exceed A_k,
                           which happens past SMALL_K_MAX (unused there);
      large_c_terms      = the two C terms for alpha >= LARGE_K_ALPHA0,
                           past SMALL_K_MAX (None up to it).
    """

    a_k: float
    b_k: float
    b_tilde_k: Optional[float]
    c_k: float
    gap_floor: float
    alpha_star: float
    alpha_double_star: Optional[float]
    large_c_terms: Optional[Tuple[float, float]]


def chain(k: int, m) -> Chain:
    """The Chain of an even k, with every number evaluated in namespace m.

    A gap floor that does not exceed A_k raises CertificationError, as do
    C_k <= A_k up to SMALL_K_MAX, A_k >= pi^2/4 and alpha_double_star >=
    3/2.  An enclosure exceeds a bound only if it does so provably.
    """
    _require_even_k(k)
    large = k > SMALL_K_MAX
    a_k = _upper_bound_A(k, m)
    b_k = _lower_bound_B(k, m)
    b_tilde_k = _lower_bound_B_tilde(k, m) if large else None
    c_k = m.min(*_c_bound_terms(k, 1.5, m))
    gap_floor = gap_ratio(m.num(k)) * (b_tilde_k if large else b_k)
    if not gap_floor - a_k > 0.0:
        raise CertificationError(f"gap floor failed at k={k}: (k+2)/(k+6) B = "
                                 f"{gap_floor} does not exceed A_k = {a_k}")
    c_positive = c_k - a_k > 0.0
    if not c_positive and not large:
        raise CertificationError(f"large-alpha floor failed at k={k}: "
                                 f"C_k = {c_k} does not exceed A_k = {a_k}")
    alpha_double_star = 1.5 - m.sqrt(c_k - a_k) if c_positive else None
    if not a_k < m.pi**2 / 4.0:
        raise CertificationError(f"A_{k} = {a_k} is not below pi^2/4")
    if alpha_double_star is not None and not alpha_double_star < 1.5:
        raise CertificationError(f"alpha_double_star = {alpha_double_star} is not below 3/2")
    large_c_terms = _c_bound_terms(k, LARGE_K_ALPHA0, m) if large else None
    return Chain(a_k, b_k, b_tilde_k, c_k, gap_floor, m.sqrt(gap_floor - a_k),
                 alpha_double_star, large_c_terms)


@dataclass(frozen=True)
class BoundsTable:
    """The closed-form constants and the two exclusion radii (see Chain)
    of one even k, in floats; bounds_table builds it."""

    k: int
    a_k: float
    b_k: float
    b_tilde_k: Optional[float]
    c_k: float
    h_k: float
    alpha_star: float
    alpha_double_star: Optional[float]
    theta0_lower: float = THETA0_LOWER


def bounds_table(k: int) -> BoundsTable:
    """The BoundsTable of an even k (B~ reported past SMALL_K_MAX)."""
    c = chain(k, FLOATS)
    return BoundsTable(k, c.a_k, c.b_k, c.b_tilde_k, c.c_k, h_closed(k), c.alpha_star,
                       c.alpha_double_star)
