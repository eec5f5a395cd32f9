"""Numerical verification of the perturbation identities for lambda1(alpha).

Covers the first-derivative (Feynman-Hellmann) integral, the virial
identity at critical points, the exact second derivative through the
reduced resolvent, and the spectral-gap criterion that forces the second
derivative positive.  Finite-difference cross-checks evaluate every
stencil point on one shared grid pair so discretization error cancels in
the differences; without that the eigenvalue tolerance would be amplified
by 1/h^2 and drown the derivatives.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import tridiag
from .eigensolver import (
    EigenResult,
    assemble_hamiltonian,
    fixed_grid_lambda1,
    lapack_errors_as_solver_failure,
    refined_lowest_eigenvalues,
    solve,
)
from .operators import MontgomeryPotential, OperatorSpec

# Default finite-difference steps; chosen so stencil truncation stays
# comparable to the eigenvalue tolerance at tol = 1e-8.
FD_STEP_FIRST = 1e-4
FD_STEP_SECOND = 1e-3


@dataclass(frozen=True)
class IdentityReport:
    """All identity diagnostics for one (k, alpha)."""

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
    w = MontgomeryPotential(k, alpha).signed_root(result.ground_state_points)
    return -2.0 * _weighted(w, result)


def _virial_from_result(result: EigenResult, k: int, alpha: float) -> Tuple[float, float]:
    w = MontgomeryPotential(k, alpha).signed_root(result.ground_state_points)
    lhs = _weighted(w * w, result)
    rhs = result.eigenvalues[0] / (k + 2.0)
    return lhs, rhs


def feynman_hellmann_derivative(k: int, alpha: float, tol: float = 1e-7) -> float:
    """d lambda1 / d alpha = -2 * integral of (t^(k+1)/(k+1) - alpha) u^2 dt.

    Trapezoid quadrature on the solver grid; the integrand decays
    super-exponentially, so the quadrature error tracks the solver's own
    O(h^2) rate.
    """
    result = solve(OperatorSpec(k, alpha), count=1, tol=tol)
    return _fh_from_result(result, k, alpha)


def virial_check(k: int, alpha_c: float, tol: float = 1e-7) -> Tuple[float, float, float]:
    """(lhs, rhs, |lhs - rhs|) of the scaling identity
    integral of (t^(k+1)/(k+1) - alpha_c)^2 u^2 dt = lambda1 / (k+2).

    The identity holds at critical points of lambda1(alpha); for even k
    that includes alpha_c = 0 by symmetry.  Off-critical the residual is
    still reported but carries no claim.
    """
    result = solve(OperatorSpec(k, alpha_c), count=1, tol=tol)
    lhs, rhs = _virial_from_result(result, k, alpha_c)
    return lhs, rhs, abs(lhs - rhs)


def gap_criterion(k: int, alpha: float, tol: float = 1e-7) -> Tuple[bool, float]:
    """Whether (k+2)/(k+6) * lambda2 > lambda1, with the margin.

    At a critical point this inequality forces the second derivative of
    lambda1(alpha) to be positive, ruling out a local maximum.
    """
    result = solve(OperatorSpec(k, alpha), count=2, tol=tol)
    margin = (k + 2.0) / (k + 6.0) * result.eigenvalues[1] - result.eigenvalues[0]
    return margin > 0.0, margin


def second_derivative_exact(k: int, alpha: float, tol: float = 1e-7) -> float:
    """d2 lambda1 / d alpha2 via the reduced resolvent:

        2 - 4 * integral of W u (d_alpha u) dt,
        d_alpha u = 2 (H - lambda1)^(-1) [W u]_perp,

    with W = t^(k+1)/(k+1) - alpha and the resolvent taken on the
    orthogonal complement of u (project, solve the shifted tridiagonal
    system with a 1e-12 relative regularizing offset, re-project).
    """
    return _second_derivative_on(solve(OperatorSpec(k, alpha), count=2, tol=tol), k, alpha)


def _second_derivative_on(adaptive: EigenResult, k: int, alpha: float) -> float:
    """second_derivative_exact on the final grid of a count=2 solve,
    seeded from its eigenvalues."""
    grid = adaptive.grid_used
    system = assemble_hamiltonian(MontgomeryPotential(k, alpha), grid)
    with lapack_errors_as_solver_failure():
        lam, v = refined_lowest_eigenvalues(system, 2, seeds=np.array(adaptive.eigenvalues))
    if lam[1] - lam[0] < 1e-6:
        raise ArithmeticError(
            f"spectral gap {lam[1] - lam[0]} too small to invert the reduced resolvent"
        )
    h = system.spacing
    u = v / math.sqrt(h)
    w = MontgomeryPotential(k, alpha).signed_root(system.points)
    f = w * u
    f_perp = f - (h * np.dot(f, u)) * u
    shift = lam[0] + 1e-12 * max(1.0, abs(lam[0]))
    with lapack_errors_as_solver_failure():
        g = tridiag.shifted_solve(system.diag, system.offdiag, shift, f_perp)
    g = g - (h * np.dot(g, u)) * u
    du = 2.0 * g
    return 2.0 - 4.0 * h * float(np.dot(f, du))


def _shared_grid_lambda1(k: int, alpha: float, tol: float, step: float):
    """lambda1(a) for finite-difference stencils around alpha: every
    stencil point runs on the grid pair of one adaptive solve at
    |alpha| + step, seeded from its lambda1, so the O(h^2) error is a
    smooth function of a and cancels in the differences."""
    stencil = solve(OperatorSpec(k, abs(alpha) + step), count=1, tol=tol)
    return lambda a: fixed_grid_lambda1(
        MontgomeryPotential(k, a), stencil.grid_used, stencil.lambda1
    )


def fd_first_derivative(k: int, alpha: float, tol: float = 1e-7,
                        step: float = FD_STEP_FIRST) -> float:
    """Central-difference oracle for d lambda1 / d alpha."""
    lam = _shared_grid_lambda1(k, alpha, tol, step)
    return (lam(alpha + step) - lam(alpha - step)) / (2.0 * step)


def fd_second_derivative(k: int, alpha: float, tol: float = 1e-7,
                         step: float = FD_STEP_SECOND) -> float:
    """Central-difference oracle for d2 lambda1 / d alpha2."""
    lam = _shared_grid_lambda1(k, alpha, tol, step)
    return (lam(alpha + step) - 2.0 * lam(alpha) + lam(alpha - step)) / (step * step)


def identity_report(k: int, alpha: float, tol: float = 1e-7) -> IdentityReport:
    """All identity diagnostics for one (k, alpha) in a single pass."""
    result = solve(OperatorSpec(k, alpha), count=2, tol=tol)
    lhs, rhs = _virial_from_result(result, k, alpha)
    gap_margin = (k + 2.0) / (k + 6.0) * result.eigenvalues[1] - result.eigenvalues[0]
    return IdentityReport(
        k=k,
        alpha=alpha,
        fh_integral=_fh_from_result(result, k, alpha),
        virial_lhs=lhs,
        virial_rhs=rhs,
        d1_fd=fd_first_derivative(k, alpha, tol),
        d2_fd=fd_second_derivative(k, alpha, tol),
        d2_exact=_second_derivative_on(result, k, alpha),
        gap_criterion=gap_margin > 0.0,
        gap_margin=gap_margin,
        quadrature_error_estimate=result.achieved_tol_estimate,
    )
