"""Adaptive eigenvalue solver for confining 1D Schrodinger operators.

Second-order central differences on a truncated interval, eigenvalues
polished by inverse iteration (started from Sturm bisection on the first
refinement level, and from values predicted by the coarser levels after
it), and one Richardson extrapolation step on the reported eigenvalues.
Covers the full line, the half line with Dirichlet or Neumann condition
at t=0 (needed for the de Gennes constant), and the explicit step-well
model whose first eigenvalue solves a transcendental gluing equation.
"""

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import tridiag
from .errors import SolverFailure
from .operators import (
    BoundaryCondition,
    Geometry,
    OperatorSpec,
    PotentialKind,
    ShiftedHarmonicPotential,
)
from .optimize import minimize_golden

# The truncated domain reaches where V exceeds the eigenvalue cap by
# TRUNCATION_MARGIN, plus TRUNCATION_PAD beyond that classical turning
# region; eigenfunctions decay super-exponentially past it.
TRUNCATION_MARGIN = 1.0
TRUNCATION_PAD = 2.0

_N_START = 2048
_N_CAP = 2**20

# The reported ground state is sampled on a ladder level at most this
# size: eigenvector rounding noise grows like eps/h^2, so on very fine
# grids it would exceed the vector's own O(h^2) discretization error.
_N_VECTOR_CAP = 66000

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with n interior points on (lower, upper)."""

    lower: float
    upper: float
    n: int

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("need lower < upper")
        if self.n < 16:
            raise ValueError("need at least 16 interior points")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.n + 1)

    def interior_points(self) -> np.ndarray:
        h = self.spacing
        return self.lower + h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class AssembledSystem:
    """Symmetric tridiagonal discretization of -d2/dt2 + V.

    `points` are the sample locations of the unknowns.  The upper end is
    Dirichlet.  A Neumann lower end includes its boundary point among the
    unknowns; the returned matrix is the symmetrized form (see
    assemble_hamiltonian), and `to_physical` undoes the symmetrizing
    change of basis.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    points: np.ndarray
    potential_values: np.ndarray
    spacing: float
    neumann_lower: bool

    def to_physical(self, v: np.ndarray) -> np.ndarray:
        u = np.array(v, dtype=float)
        if self.neumann_lower:
            u[0] *= _SQRT2
        return u

    def quadrature_weights(self) -> np.ndarray:
        """Trapezoid weights matching the physical sample points."""
        w = np.full(len(self.points), self.spacing)
        if self.neumann_lower:
            w[0] *= 0.5
        return w

    def rayleigh_quotient(self, v: np.ndarray) -> float:
        """v.T H v for a unit vector v, evaluated without cancellation.

        The kinetic part is summed as squares of bond differences, so the
        result carries relative rounding O(eps) instead of the
        eps * ||H|| ~ eps / h^2 error of the naive triple product.  This
        is what lets eigenvalues be polished well below the Sturm
        bisection noise floor on fine grids.
        """
        inv_h2 = 1.0 / (self.spacing * self.spacing)
        first = _SQRT2 * v[0] - v[1] if self.neumann_lower else v[0]
        lo = 1 if self.neumann_lower else 0
        bonds = np.diff(v[lo:])
        kinetic = inv_h2 * (first * first + np.dot(bonds, bonds) + v[-1] * v[-1])
        return float(kinetic + np.dot(self.potential_values, v * v))


def assemble_hamiltonian(
    potential,
    grid: GridSpec,
    bc_lower: BoundaryCondition = BoundaryCondition.DIRICHLET,
) -> AssembledSystem:
    """Three-point discretization of -d2/dt2 + V on the grid, with
    `bc_lower` at the lower end and Dirichlet at the upper end.

    A Dirichlet end drops the boundary point (its value is 0).  A Neumann
    end (the half line at t = 0) keeps the boundary point as an unknown
    and eliminates the ghost point by the mirror rule u(-h) = u(h), which
    makes that boundary row (2/h^2 + V)u_0 - (2/h^2)u_1.  The row is then symmetrized by the
    diagonal similarity v_0 = u_0 / sqrt(2), which scales the boundary
    off-diagonal entry to -sqrt(2)/h^2 and leaves all eigenvalues intact.
    A side effect worth knowing: a unit vector in the symmetrized basis
    corresponds exactly to a trapezoid-normalized physical function.
    """
    if bc_lower not in (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN):
        raise ValueError("the lower end must be Dirichlet or Neumann")
    h = grid.spacing
    pts = grid.interior_points()
    neumann = bc_lower is BoundaryCondition.NEUMANN
    if neumann:
        pts = np.concatenate(([grid.lower], pts))
    inv_h2 = 1.0 / (h * h)
    values = np.asarray(potential.value(pts), dtype=float)
    diag = 2.0 * inv_h2 + values
    offdiag = np.full(len(pts) - 1, -inv_h2)
    if neumann:
        offdiag[0] *= _SQRT2
    return AssembledSystem(
        diag=diag,
        offdiag=offdiag,
        points=pts,
        potential_values=values,
        spacing=h,
        neumann_lower=neumann,
    )


def refined_lowest_eigenvalues(
    system: AssembledSystem, count: int, seeds: Optional[np.ndarray] = None
):
    """Smallest eigenvalues polished past the bisection noise floor.

    Sturm bisection locates each eigenvalue to about eps * ||H||, which on
    a grid of spacing h means eps / h^2 in absolute terms and dominates
    the O(h^2) discretization error once grids get fine.  Each value is
    therefore refined through its inverse-iteration eigenvector: the
    Rayleigh quotient of an eigenvector with residual r is accurate to
    r^2 / gap, which lands near machine precision.

    `seeds` are predicted eigenvalues: from coarser grids (see
    solve_on_interval) or from an adaptive solve of the same or a nearby
    operator (fixed_grid_lambda1 and its callers, the identities).  Given
    them, bisection is skipped: one Sturm count finds an energy just above
    the predictions with exactly `count` eigenvalues below it
    (tridiag.seed_ceiling), inverse iteration starts from each prediction,
    and the polished values must be strictly increasing, well separated
    and below that energy (tridiag.are_lowest_eigenvalues), which makes
    them the lowest `count` in order.  If the predictions lie too close
    together (near-degenerate pairs), the count disagrees, inverse
    iteration fails or the check does, the level falls back to bisection.
    The count runs before inverse iteration, as bisection does, so no
    eigenvector is held while stebz allocates its workspace.

    Returns (eigenvalues, ground_state_matrix_vector).
    """
    ceiling = None
    if seeds is not None:
        ceiling = tridiag.seed_ceiling(system.diag, system.offdiag, seeds)
    if ceiling is not None:
        try:
            refined, ground = _polished(system, seeds)
        except SolverFailure:
            refined = None
        if refined is not None and tridiag.are_lowest_eigenvalues(
            system.offdiag, refined, ceiling
        ):
            return refined, ground
    raw = tridiag.lowest_eigenvalues(system.diag, system.offdiag, count)
    return _polished(system, raw)


def _polished(system: AssembledSystem, estimates):
    """Rayleigh quotients of the inverse-iteration vectors at `estimates`,
    and the first of those vectors."""
    refined = np.empty(len(estimates))
    ground = None
    for j, lam in enumerate(estimates):
        v = tridiag.inverse_iteration(system.diag, system.offdiag, float(lam))
        refined[j] = system.rayleigh_quotient(v)
        if j == 0:
            ground = v
    return refined, ground


def fixed_grid_lambda1(potential, grid: GridSpec, seed: float) -> float:
    """lambda1 on `grid` and on its (n - 1) / 2 coarsening (twice the
    spacing), plus one Richardson step.

    `seed` predicts lambda1 on the coarse level (say, lambda1 of a nearby
    potential) and seeds it; the fine level is seeded from the coarse one
    as in the ladder.  A poor seed costs a bisection, not accuracy (see
    refined_lowest_eigenvalues).  Callers that evaluate several potentials
    on one grid see an O(h^2) error that is a smooth function of the
    potential parameters, so it cancels in finite differences and
    comparisons.  Dirichlet ends.
    """
    coarse = GridSpec(grid.lower, grid.upper, (grid.n - 1) // 2)
    lam_c, _ = refined_lowest_eigenvalues(
        assemble_hamiltonian(potential, coarse), 1, seeds=np.array([seed])
    )
    lam_f, _ = refined_lowest_eigenvalues(
        assemble_hamiltonian(potential, grid), 1, seeds=lam_c
    )
    return float(lam_f[0] + (lam_f[0] - lam_c[0]) / 3.0)


def truncation_interval(potential, geometry: Geometry, lambda_bound: float):
    """The solve interval for eigenvalues up to lambda_bound: out to
    where V exceeds cap = max(10, 2 lambda_bound + 3) by
    TRUNCATION_MARGIN (potential.turning_point), plus TRUNCATION_PAD;
    (-radius, radius) on the full line, (0, radius) on the half line.

    The discarded region is classically forbidden for every eigenvalue
    below cap, so truncation error is negligible next to discretization
    error.
    """
    cap = max(10.0, 2.0 * lambda_bound + 3.0)
    radius = potential.turning_point(cap + TRUNCATION_MARGIN) + TRUNCATION_PAD
    if geometry is Geometry.FULL_LINE:
        return -radius, radius
    return 0.0, radius


@dataclass(frozen=True)
class EigenResult:
    """Converged eigenvalues and sampled ground state of one operator."""

    eigenvalues: tuple
    ground_state_points: np.ndarray
    ground_state_values: np.ndarray
    quadrature_weights: np.ndarray
    achieved_tol_estimate: float
    grid_used: GridSpec
    iterations: int

    def __post_init__(self):
        lam = self.eigenvalues
        if any(lam[i + 1] <= lam[i] for i in range(len(lam) - 1)):
            raise SolverFailure(
                "eigenvalues are not strictly increasing", best_estimate=lam
            )

    @property
    def lambda1(self) -> float:
        return self.eigenvalues[0]

    @property
    def lambda2(self) -> float:
        return self.eigenvalues[1]


def solve_on_interval(
    potential,
    lower: float,
    upper: float,
    count: int = 2,
    tol: float = 1e-8,
    bc_lower: BoundaryCondition = BoundaryCondition.DIRICHLET,
) -> EigenResult:
    """Adaptive solve on a fixed interval, `bc_lower` at the lower end and
    Dirichlet at the upper end.

    Grids refine from _N_START points with n -> 2n + 1 (spacing exactly
    halves), up to _N_CAP points, until raw eigenvalue changes drop below
    tol/2 for every requested eigenvalue, then one Richardson step
    removes the leading O(h^2) error from the reported values.
    achieved_tol_estimate adds the last raw change and the extrapolation
    correction.  From the second level on, each level
    is seeded with eigenvalues predicted from the levels before it (see
    refined_lowest_eigenvalues), which skips its bisection.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = _N_START
    prev: Optional[np.ndarray] = None
    prev2: Optional[np.ndarray] = None
    lam = None
    levels = 0
    while n <= _N_CAP:
        system = assemble_hamiltonian(potential, GridSpec(lower, upper, n), bc_lower)
        # Predicted eigenvalues for this level: the error goes like h^2
        # and h halves each level, so each change is a quarter of the last.
        seeds = prev if prev2 is None else prev + (prev - prev2) / 4.0
        lam, v = refined_lowest_eigenvalues(system, count, seeds=seeds)
        levels += 1
        # Report the ground state from the last level up to _N_VECTOR_CAP
        # (the first level, _N_START points, is below it): past it the
        # eigenvector's rounding noise (eps/h^2) outgrows its
        # discretization error.  Only the physical samples are kept, not
        # the level's matrix.
        if n <= _N_VECTOR_CAP:
            ground = (
                system.points,
                system.to_physical(v) / math.sqrt(system.spacing),
                system.quadrature_weights(),
            )
        del v  # not held while the next, larger level is solved
        if prev is not None:
            change = np.abs(lam - prev)
            if np.max(change) < 0.5 * tol:
                correction = (lam - prev) / 3.0
                extrapolated = lam + correction
                achieved = float(np.max(change + np.abs(correction)))
                points, u, weights = ground
                if np.min(u) < -1e-10 * np.max(u):
                    raise SolverFailure(
                        "ground state came out with a sign change",
                        best_estimate=tuple(extrapolated),
                    )
                return EigenResult(
                    eigenvalues=tuple(float(x) for x in extrapolated),
                    ground_state_points=points,
                    ground_state_values=u,
                    quadrature_weights=weights,
                    achieved_tol_estimate=achieved,
                    grid_used=GridSpec(lower, upper, n),
                    iterations=levels,
                )
        prev2, prev = prev, lam
        n = 2 * n + 1
    raise SolverFailure(
        f"grid refinement cap n > {_N_CAP} reached before tolerance {tol}",
        best_estimate=tuple(float(x) for x in lam) if lam is not None else None,
    )


def solve(
    problem: Union[OperatorSpec, PotentialKind],
    count: int = 2,
    tol: float = 1e-8,
    geometry: Optional[Geometry] = None,
    boundary: Optional[BoundaryCondition] = None,
) -> EigenResult:
    """Eigenvalues and ground state of a confining operator to tolerance tol.

    Accepts either an OperatorSpec (geometry read from it) or a bare
    potential kind with geometry/boundary keywords.  The domain comes
    from a coarse pre-solve: solve once on truncation_interval's interval
    for cap 10, then re-truncate at the highest eigenvalue it found, so
    the potential dominates every requested eigenvalue with margin.
    """
    if not tol >= 1e-11:  # written so that nan fails too
        raise ValueError(f"tol must be at least 1e-11 for this discretization, got {tol}")
    if isinstance(problem, OperatorSpec):
        if geometry is not None or boundary is not None:
            raise ValueError("geometry/boundary are read from the OperatorSpec")
        potential = problem.potential()
        geometry = problem.geometry
        boundary = problem.boundary
    else:
        potential = problem
        geometry = geometry or Geometry.FULL_LINE
    if geometry is Geometry.FULL_LINE:
        bc_lower = BoundaryCondition.DIRICHLET
    else:
        if boundary not in (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN):
            raise ValueError("half-line solve requires Dirichlet or Neumann at t=0")
        bc_lower = boundary

    lower, upper = truncation_interval(potential, geometry, 0.0)
    coarse = assemble_hamiltonian(potential, GridSpec(lower, upper, _N_START), bc_lower)
    lam_coarse = tridiag.lowest_eigenvalues(coarse.diag, coarse.offdiag, count)
    lower, upper = truncation_interval(potential, geometry, float(lam_coarse[-1]))
    return solve_on_interval(
        potential,
        lower,
        upper,
        count=count,
        tol=tol,
        bc_lower=bc_lower,
    )


def de_gennes_theta0(tol: float = 1e-7) -> float:
    """The de Gennes constant: min over xi of the lowest Neumann half-line
    eigenvalue of -d2/dt2 + (t - xi)^2.

    Brent's line search (optimize.minimize_golden) on xi in [0, 2]; the
    minimizer is interior and the map is smooth and unimodal there, so
    parabolic steps take it in about 8 solves.  The returned minimum is a
    hair above 0.59.
    """
    if not tol >= 1e-9:  # written so that nan fails too
        raise ValueError(f"tol must be at least 1e-9, got {tol}")
    inner_tol = max(tol / 10.0, 1e-11)

    def lam1(xi: float) -> float:
        res = solve(
            ShiftedHarmonicPotential(xi),
            count=1,
            tol=inner_tol,
            geometry=Geometry.HALF_LINE_POSITIVE,
            boundary=BoundaryCondition.NEUMANN,
        )
        return res.eigenvalues[0]

    xtol = max(1e-6, 0.5 * math.sqrt(tol))
    xi_min, value = minimize_golden(lam1, 0.0, 2.0, xtol=xtol)
    if not 0.2 < xi_min < 1.8:
        raise SolverFailure(
            f"minimizer {xi_min} hit the search bracket edge", best_estimate=value
        )
    if not value > 0.59:
        raise SolverFailure(
            f"computed de Gennes constant {value} fails the 0.59 floor",
            best_estimate=value,
        )
    return float(value)


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
    fa = gluing(a)
    if not fa < 0.0 < gluing(b):
        raise SolverFailure("gluing equation failed to bracket a root")
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        if gluing(mid) < 0.0:
            a = mid
        else:
            b = mid
    s = 0.5 * (a + b)
    return s * s
