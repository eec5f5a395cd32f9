"""Numerical verification of the perturbation identities for lambda1(alpha).

`identity_report` is the one entry point, and it reads everything from
one count=2 adaptive solve: the first-derivative (Feynman-Hellmann)
integral, the virial identity, the exact second derivative through the
reduced resolvent and the spectral-gap criterion that forces that
derivative positive, and the interval for both finite-difference
oracles, which run on the solve's first two ladder levels (2048 and 4097
points) whatever its final grid.  Every stencil point uses that one grid
pair so discretization error cancels in the differences; without that
the eigenvalue tolerance would be amplified by 1/h^2 and drown the
derivatives.  Each stencil point is an independent fixed-grid
evaluation, so each oracle is the central difference of values that do
not depend on the order they were taken in.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tridiag
from .bounds import gap_ratio
from .eigensolver import (
    EigenResult,
    GridSpec,
    _fixed_grid_lambda1,
    assemble_hamiltonian,
    solve,
)
from .errors import SolverFailure
from .operators import MontgomeryPotential, OperatorSpec

# Finite-difference steps; chosen so stencil truncation stays comparable
# to the eigenvalue tolerance at tol = 1e-8.
FD_STEP_FIRST = 1e-4
FD_STEP_SECOND = 1e-3


@dataclass(frozen=True)
class IdentityReport:
    """All identity diagnostics for one (k, alpha).

    With W = t^(k+1)/(k+1) - alpha and u the normalized ground state:

    - fh_integral = -2 * integral of W u^2 dt, which is d lambda1/d alpha
      by Feynman-Hellmann (trapezoid quadrature on the solver grid; the
      integrand decays super-exponentially, so the quadrature error
      tracks the solver's own O(h^2) rate).
    - virial_lhs = integral of W^2 u^2 dt and virial_rhs = lambda1/(k+2).
      The scaling identity lhs = rhs holds at critical points of
      lambda1(alpha); for even k that includes alpha = 0 by symmetry.
      Off-critical both sides are still reported but carry no claim.
    - d2_exact = d2 lambda1/d alpha2 through the reduced resolvent:
      2 - 4 * integral of W u (d_alpha u) dt with
      d_alpha u = 2 (H - lambda1)^(-1) [W u]_perp, the resolvent taken on
      the orthogonal complement of u.
    - gap_margin = (k+2)/(k+6) * lambda2 - lambda1, and gap_criterion is
      whether it is positive.  At a critical point the virial identity
      gives ||W u||^2 = lambda1/(k+2) and the resolvent is at most
      1/(lambda2 - lambda1) on the complement of u, so
      d2 >= 2 - 8 lambda1 / ((k+2)(lambda2 - lambda1)), which the
      criterion makes positive: it rules out a local maximum.
    - d1_fd and d2_fd are central-difference oracles for the two
      derivatives, with steps FD_STEP_FIRST and FD_STEP_SECOND.
    - quadrature_error_estimate is the solve's achieved_tol_estimate.
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


def _weighted(values: np.ndarray, result: EigenResult) -> float:
    u2 = result.ground_state_values * result.ground_state_values
    return float(np.sum(result.quadrature_weights * values * u2))


def _fh_from_result(result: EigenResult, k: int, alpha: float) -> float:
    """fh_integral on the ground state of one solve, for certify.scan's
    rows (identity_report computes it from the W it already holds)."""
    w = MontgomeryPotential(k, alpha).signed_root(result.ground_state_points)
    return -2.0 * _weighted(w, result)


def _second_derivative_on(result: EigenResult, potential, w: np.ndarray) -> float:
    """d2_exact on the ground-state level of a count=2 solve of
    `potential`, given w = W on that level's points
    (result.ground_state_points, so len(w) is the level's size).  That
    level is the one whose vector the solve reports: its final grid, or
    the last level small enough that the vector's eps/h^2 rounding stays
    below its discretization error.  Project W u off u, solve the
    shifted tridiagonal system with a 1e-12 relative regularizing
    offset, re-project."""
    lam = result.eigenvalues
    if lam[1] - lam[0] < 1e-6:
        raise SolverFailure(
            f"spectral gap {lam[1] - lam[0]} too small to invert the reduced resolvent"
        )
    grid = result.grid_used
    system = assemble_hamiltonian(potential, GridSpec(grid.lower, grid.upper, len(w)))
    h = system.spacing
    u = result.ground_state_values
    lam1 = system.rayleigh_quotient(u * math.sqrt(h))
    f = w * u
    f_perp = f - (h * tridiag.dot(f, u)) * u
    shift = lam1 + 1e-12 * max(1.0, abs(lam1))
    g = tridiag.shifted_solve(system.diag, system.offdiag, shift, f_perp)
    g = g - (h * tridiag.dot(g, u)) * u
    du = 2.0 * g
    return 2.0 - 4.0 * h * tridiag.dot(f, du)


def identity_report(k: int, alpha: float, tol: float = 1e-7) -> IdentityReport:
    """All identity diagnostics for one (k, alpha), read from one count=2
    adaptive solve at alpha, its one bisection.  W is evaluated once, on
    the solve's ground-state points, for fh_integral, virial_lhs and
    d2_exact (_second_derivative_on).  Both finite-difference
    oracles read lambda1 at five stencil points, each a fixed-grid
    evaluation (eigensolver._fixed_grid_lambda1) on that solve's
    interval, which runs on the solve's own first two ladder levels: the
    stencil costs the same whatever the final grid, never runs finer than
    the solve and does not depend on where the solve's stop rule ends.
    The point at a is seeded with lambda1 + (a - alpha) * fh_integral.
    """
    result = solve(OperatorSpec(k, alpha), count=2, tol=tol)
    potential = MontgomeryPotential(k, alpha)
    w = potential.signed_root(result.ground_state_points)
    fh_integral = -2.0 * _weighted(w, result)
    gap_margin = gap_ratio(k) * result.eigenvalues[1] - result.eigenvalues[0]
    lower, upper = result.grid_used.lower, result.grid_used.upper

    def lam(a: float) -> float:
        return _fixed_grid_lambda1(MontgomeryPotential(k, a), lower, upper,
                                   result.lambda1 + (a - alpha) * fh_integral)

    h1, h2 = FD_STEP_FIRST, FD_STEP_SECOND
    return IdentityReport(
        k=k,
        alpha=alpha,
        fh_integral=fh_integral,
        virial_lhs=_weighted(w * w, result),
        virial_rhs=result.eigenvalues[0] / (k + 2.0),
        d1_fd=(lam(alpha + h1) - lam(alpha - h1)) / (2.0 * h1),
        d2_fd=(lam(alpha + h2) - 2.0 * lam(alpha) + lam(alpha - h2)) / (h2 * h2),
        d2_exact=_second_derivative_on(result, potential, w),
        gap_criterion=gap_margin > 0.0,
        gap_margin=gap_margin,
        quadrature_error_estimate=result.achieved_tol_estimate,
    )
