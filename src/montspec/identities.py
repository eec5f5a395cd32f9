"""Numerical verification of the perturbation identities for lambda1(alpha).

`identity_report` is the one entry point: from one count=2 adaptive
solve it reads the first-derivative (Feynman-Hellmann) integral, the
virial identity, the exact second derivative through the reduced
resolvent and the spectral-gap criterion that forces that derivative
positive; one more solve sizes the grid pair on which both
finite-difference oracles run.  Every stencil point uses that one grid
pair so discretization error cancels in the differences; without that
the eigenvalue tolerance would be amplified by 1/h^2 and drown the
derivatives.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tridiag
from .bounds import gap_ratio
from .eigensolver import (
    EigenResult,
    assemble_hamiltonian,
    fixed_grid_lambda1,
    refined_lowest_eigenvalues,
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
    """fh_integral on the ground state of one solve (certify.scan reads it
    too)."""
    w = MontgomeryPotential(k, alpha).signed_root(result.ground_state_points)
    return -2.0 * _weighted(w, result)


def _second_derivative_on(adaptive: EigenResult, k: int, alpha: float) -> float:
    """d2_exact on the final grid of a count=2 solve, seeded from its
    eigenvalues: project W u off u, solve the shifted tridiagonal system
    with a 1e-12 relative regularizing offset, re-project."""
    grid = adaptive.grid_used
    system = assemble_hamiltonian(MontgomeryPotential(k, alpha), grid)
    lam, v = refined_lowest_eigenvalues(system, 2, seeds=np.array(adaptive.eigenvalues))
    if lam[1] - lam[0] < 1e-6:
        raise SolverFailure(
            f"spectral gap {lam[1] - lam[0]} too small to invert the reduced resolvent"
        )
    h = system.spacing
    u = v / math.sqrt(h)
    w = MontgomeryPotential(k, alpha).signed_root(system.points)
    f = w * u
    f_perp = f - (h * np.dot(f, u)) * u
    shift = lam[0] + 1e-12 * max(1.0, abs(lam[0]))
    g = tridiag.shifted_solve(system.diag, system.offdiag, shift, f_perp)
    g = g - (h * np.dot(g, u)) * u
    du = 2.0 * g
    return 2.0 - 4.0 * h * float(np.dot(f, du))


def _stencil_lambda1(k: int, alpha: float, tol: float):
    """lambda1(a) for the finite-difference stencils around alpha: every
    stencil point runs on the grid pair of one count=1 solve at
    |alpha| + FD_STEP_SECOND, seeded from its lambda1, so the O(h^2) error
    is a smooth function of a and cancels in the differences.  That grid
    is coarser than the count=2 solve's, which keeps the stencil cheap."""
    stencil = solve(OperatorSpec(k, abs(alpha) + FD_STEP_SECOND), count=1, tol=tol)
    grid, seed = stencil.grid_used, stencil.lambda1
    return lambda a: fixed_grid_lambda1(MontgomeryPotential(k, a), grid, seed)


def identity_report(k: int, alpha: float, tol: float = 1e-7) -> IdentityReport:
    """All identity diagnostics for one (k, alpha) from two adaptive solves:
    the analytic quantities read one count=2 solve at alpha, and both
    finite-difference oracles share the stencil solve of _stencil_lambda1.
    """
    result = solve(OperatorSpec(k, alpha), count=2, tol=tol)
    w = MontgomeryPotential(k, alpha).signed_root(result.ground_state_points)
    gap_margin = gap_ratio(k) * result.eigenvalues[1] - result.eigenvalues[0]
    lam = _stencil_lambda1(k, alpha, tol)
    h1, h2 = FD_STEP_FIRST, FD_STEP_SECOND
    return IdentityReport(
        k=k,
        alpha=alpha,
        fh_integral=_fh_from_result(result, k, alpha),
        virial_lhs=_weighted(w * w, result),
        virial_rhs=result.eigenvalues[0] / (k + 2.0),
        d1_fd=(lam(alpha + h1) - lam(alpha - h1)) / (2.0 * h1),
        d2_fd=(lam(alpha + h2) - 2.0 * lam(alpha) + lam(alpha - h2)) / (h2 * h2),
        d2_exact=_second_derivative_on(result, k, alpha),
        gap_criterion=gap_margin > 0.0,
        gap_margin=gap_margin,
        quadrature_error_estimate=result.achieved_tol_estimate,
    )
