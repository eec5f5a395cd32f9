"""Numerical verification of the perturbation identities for lambda1(alpha).

`identity_report` is the one entry point, and the module holds it alone.
Its analytic fields, the first-derivative (Feynman-Hellmann) integral,
the virial identity, the exact second derivative through the reduced
resolvent and the spectral-gap criterion that forces that derivative
positive, come from one Legendre-Galerkin ground state
(spectral.ground_state), spectrally accurate, with no finite-difference
solve.  The two finite-difference oracles read the same five values,
lambda1 at alpha + j FD_STEP for j = -2..2, through the fourth-order
central stencils (Fornberg, Math. Comp. 51 (1988) 699-706).  Each value
comes from the first two levels (2048 and 4097 points) of the
finite-difference ladder, on the interval truncation_interval gives for
the Galerkin lambda2.  Every stencil point uses that one grid pair so
discretization error cancels in the differences.  Each stencil point is
an independent fixed-grid evaluation, so each oracle is a central
difference of values that do not depend on the order they were taken in.
"""

from dataclasses import dataclass

from . import spectral
from .bounds import gap_ratio
from .eigensolver import _check_request, _fixed_grid_lambda1, truncation_interval
from .operators import Geometry, MontgomeryPotential, OperatorSpec

# The one stencil step.  Both stencils' truncation error falls as h^4,
# and the rounding of the five lambda1 values is amplified by 1/h in d1
# and 1/h^2 in d2.  At k = 2 this step leaves d1 6.8e-12 and d2 4.9e-9
# off the Galerkin fields; twice it, d1's truncation reaches 9e-11, and
# half of it, d2's rounding reaches 3e-8.
FD_STEP = 2e-3


@dataclass(frozen=True)
class IdentityReport:
    """All identity diagnostics for one (k, alpha).

    With W = t^(k+1)/(k+1) - alpha and u the normalized ground state:

    - fh_integral = -2 * integral of W u^2 dt, which is d lambda1/d alpha
      by Feynman-Hellmann (Gauss-Legendre quadrature, exact on the
      Galerkin ground state).
    - virial_lhs = integral of W^2 u^2 dt and virial_rhs = lambda1/(k+2).
      The scaling identity lhs = rhs holds at critical points of
      lambda1(alpha); for even k that includes alpha = 0 by symmetry.
      Off-critical both sides are still reported but carry no claim.
    - d2_exact = d2 lambda1/d alpha2 through the reduced resolvent:
      2 - 4 * integral of W u (d_alpha u) dt with
      d_alpha u = 2 (H - lambda1)^(-1) [W u]_perp, the resolvent taken on
      the orthogonal complement of u (one bordered Galerkin solve).
    - gap_margin = (k+2)/(k+6) * lambda2 - lambda1, and gap_criterion is
      whether it is positive.  At a critical point the virial identity
      gives ||W u||^2 = lambda1/(k+2) and the resolvent is at most
      1/(lambda2 - lambda1) on the complement of u, so
      d2 >= 2 - 8 lambda1 / ((k+2)(lambda2 - lambda1)), which the
      criterion makes positive: it rules out a local maximum.
    - d1_fd and d2_fd are finite-difference oracles for the two
      derivatives: the fourth-order central stencils on the same five
      fixed-grid values of lambda1, at alpha + j FD_STEP, j = -2..2.
    - quadrature_error_estimate is the error estimate of the Galerkin
      fields (fh_integral, virial_lhs, d2_exact, and lambda1 and lambda2
      behind virial_rhs and gap_margin): the largest change of any of
      them over the last 3/2-fold growth of the basis, below tol/2.
    All fields are Python floats, and gap_criterion a Python bool.
    """

    k: int
    alpha: float
    fh_integral: float
    virial_lhs: float
    virial_rhs: float
    d1_fd: float
    d2_fd: float
    d2_exact: float
    gap_criterion: bool
    gap_margin: float
    quadrature_error_estimate: float


def identity_report(k: int, alpha: float, tol: float = 1e-7) -> IdentityReport:
    """All identity diagnostics for one (k, alpha).  k, alpha and tol are
    checked first, as solve checks them (ValueError).  The analytic fields
    come from spectral.ground_state, walked to tol, and no adaptive
    finite-difference solve runs.  Both finite-difference oracles read
    lambda1 at five stencil points, each a fixed-grid evaluation
    (eigensolver._fixed_grid_lambda1) on the full-line interval that
    truncation_interval gives for the Galerkin lambda2; the point at a
    is seeded with lambda1 + (a - alpha) * fh_integral.  SolverFailure
    where the Galerkin walk fails (spectral.ground_state: the potential
    overflows its matrix, the basis cap is reached, inverse iteration
    does not converge, or the pair are not the pencil's two lowest) or a
    stencil point does.  A small gap, as in an odd-k double well, is no
    failure.
    """
    potential = OperatorSpec(k, alpha).potential()
    _check_request(2, tol)
    state = spectral.ground_state(k, alpha, tol)
    gap_margin = gap_ratio(k) * state.lambda2 - state.lambda1
    lower, upper = truncation_interval(potential, Geometry.FULL_LINE, state.lambda2)

    def lam(a: float) -> float:
        return _fixed_grid_lambda1(MontgomeryPotential(k, a), lower, upper,
                                   state.lambda1 + (a - alpha) * state.fh_integral)

    h = FD_STEP
    l_2, l_1, l0, l1, l2 = (lam(alpha + j * h) for j in (-2, -1, 0, 1, 2))
    return IdentityReport(
        k=k,
        alpha=alpha,
        fh_integral=state.fh_integral,
        virial_lhs=state.virial_lhs,
        virial_rhs=state.lambda1 / (k + 2.0),
        d1_fd=(8.0 * (l1 - l_1) - (l2 - l_2)) / (12.0 * h),
        d2_fd=(16.0 * (l1 + l_1) - (l2 + l_2) - 30.0 * l0) / (12.0 * h * h),
        d2_exact=state.d2_exact,
        gap_criterion=gap_margin > 0.0,
        gap_margin=gap_margin,
        quadrature_error_estimate=state.error_estimate,
    )
