"""Legendre-Galerkin ground state of the Montgomery operator, for the
identity report, certify.locate_minimum and certify.scan.

The operator -d2/dt2 + V, V = W^2 with W = t^(k+1)/(k+1) - alpha, is
discretized on the box [-L, L], Dirichlet at both ends, in Shen's basis
phi_j = P_j - P_(j+2) of x = t / L (Shen, SIAM J. Sci. Comput. 15 (1994)
1489-1505): each phi_j vanishes at x = +-1, the stiffness matrix is
diagonal, (4j + 6) / L, the mass matrix has three non-zero diagonals,
and phi_j' = -(2j + 3) P_(j+1).  The potential matrix is summed by
Gauss-Legendre quadrature on M = N + k + 8 nodes, exact for every
integrand here (polynomials of degree at most 2N + 2k + 4 < 2M), so the
discrete pencil is the Galerkin pencil to rounding, and its eigenvalues
are upper bounds that fall as N grows (the bases are nested).

L is the WKB rule of the benchmark's sinc oracle, taken at both ends:
past each end every eigenfunction with an eigenvalue below the box
energy decays by at least EFOLDS e-folds.  The energy is
alpha^2 + ENERGY_EXCESS, or alpha^2 plus twice lambda2's excess over
alpha^2 where the first level's lambda2 reaches that energy (that
level's lambda2 bounds the box's from above, and a wider box only lowers
its Dirichlet eigenvalues, so one widening suffices).

The first level (N = 32) is solved by LAPACK dsygvx.  N then grows
3/2-fold, and each level polishes both eigenpairs by inverse iteration
started from the previous level's coefficients padded with zeros, each
sweep shifted to its iterate's Ritz quotient.  Each eigenvalue is the Ritz
quotient recomputed on the nodes, sum w (u'^2 + V u^2) / sum w u^2: the
pencil's own eigenvalues carry about eps ||A|| of rounding, the
pointwise quotient a few eps.  On every level the pair is ordered by
those Ritz values, since a double well's polished pair can come out in
either order.  The ground-state functionals are read off the same
nodes, and d2 from one bordered solve on the complement of u.  No gap
lambda2 - lambda1 is refused, however small.  For even k, W is monotone,
so V is a single well and the gap is far from 0.  For odd k, V is even,
so the ground state and W u are even, and the bordered solve gives the
near-degenerate odd partner no load.  The walk stops once no field
moves by tol/2 from N to 3N/2; that largest move is the error estimate.

Every LAPACK call whose digits are kept is one-right-hand-side dgesv,
or dsygvx on the 32-column first level, and every reduction goes
through np.einsum, never through BLAS: both keep the results
bit-identical whatever OPENBLAS_NUM_THREADS.  The one blocked
factorization, dsytrf for the inertia count, yields a count, not
digits.  Like tridiag, this module loads scipy's LAPACK extension, not
the scipy.linalg package.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure
from .operators import SATURATION, MontgomeryPotential
from .tridiag import _flapack, dot

# Past each end of the box every eigenfunction with an eigenvalue below
# alpha^2 + ENERGY_EXCESS decays by at least EFOLDS e-folds (_half_width).
ENERGY_EXCESS = 40.0
EFOLDS = 20.0

# The first level's basis size, and the largest a level may have: the
# walk grows N 3/2-fold, 32, 48, 72, ..., 364, 546.
_N_FIRST = 32
_N_CAP = 546

# Inverse-iteration sweeps one eigenpair may take on one level.
_MAX_SWEEPS = 20


@dataclass(frozen=True)
class GroundState:
    """The Galerkin fields of one (k, alpha).

    With u the normalized ground state and W = t^(k+1)/(k+1) - alpha:
    fh_integral is -2 int W u^2, virial_lhs is int W^2 u^2, and d2_exact
    is 2 - 8 <W u, (H - lambda1)^(-1) P W u>, P the projection off u.
    error_estimate is the largest change of the five values over the
    walk's last 3/2-fold growth of the basis.
    """

    lambda1: float
    lambda2: float
    fh_integral: float
    virial_lhs: float
    d2_exact: float
    error_estimate: float


def _legendre(degree: int, x):
    """P_0(x), ..., P_degree(x), the rows of a (degree + 1, len(x)) array,
    by the three-term recurrence."""
    p = np.empty((degree + 1, len(x)))
    p[0] = 1.0
    p[1] = x
    for n in range(1, degree):
        p[n + 1] = ((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1)
    return p


def _legendre_slope(m: int, x, p):
    """P_m'(x) from the rows of _legendre(m, x), for |x| < 1."""
    return m * (x * p[m] - p[m - 1]) / (x * x - 1.0)


@functools.lru_cache(maxsize=8)
def _nodes(n: int, m: int):
    """The m Gauss-Legendre nodes x (ascending) and weights w, and the
    basis phi_j(x) and its slope phi_j'(x) on them as (m, n) arrays, all
    read-only.  Eight entries hold one whole walk's levels.

    The nodes are the roots of P_m by Newton's method from the
    asymptotic guesses cos(pi (i - 1/4) / (m + 1/2)), on all of them at
    once and elementwise (no eigensolver, so no BLAS), then mirrored, so
    the table is symmetric bit for bit.
    """
    x = np.cos(math.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(100):
        p = _legendre(m, x)
        step = p[m] / _legendre_slope(m, x, p)
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    p = _legendre(m, x)
    slope = _legendre_slope(m, x, p)
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    p = _legendre(n + 1, x)
    phi = np.ascontiguousarray((p[:n] - p[2:]).T)
    dphi = np.ascontiguousarray(-(2.0 * np.arange(n) + 3.0) * p[1:n + 1].T)
    for table in (x, w, phi, dphi):
        table.setflags(write=False)
    return x, w, phi, dphi


def _right_edge(k: int, alpha: float, excess: float) -> float:
    """The least b with int_t1^b (W - s) dt >= EFOLDS, where
    s = sqrt(alpha^2 + excess), W(t1) = s and W = t^(k+1)/(k+1) - alpha.
    Past b, where sqrt(W^2 - E) >= W - s, every eigenfunction with an
    eigenvalue E below s^2 decays by at least EFOLDS e-folds.  excess > 0.
    """
    s = math.sqrt(alpha * alpha + excess)
    # alpha + s, without cancellation where alpha is negative
    reach = alpha + s if alpha >= 0.0 else excess / (s - alpha)
    p = k + 1

    def decay(t):
        return t ** (p + 1) / (p * (p + 1)) - reach * t

    t1 = (p * reach) ** (1.0 / p)
    floor = decay(t1)
    # the bracket doubles from t1 / p, so t^(p + 1) stays finite
    step = t1 / p
    while decay(t1 + step) - floor < EFOLDS:
        step *= 2.0
    lo, hi = t1, t1 + step
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if decay(mid) - floor < EFOLDS:
            lo = mid
        else:
            hi = mid
    return hi


def _half_width(k: int, alpha: float, excess: float) -> float:
    """L of the box [-L, L]: the right edge and, for even k, the left one
    (W(-t) is -W(t) at -alpha, so the left wall at alpha is the right
    wall at -alpha); for odd k, V is even in t."""
    edge = _right_edge(k, alpha, excess)
    return max(edge, _right_edge(k, -alpha, excess)) if k % 2 == 0 else edge


class _Level:
    """The Galerkin pencil (a, b) of n basis functions on [-L, L], with the
    quadrature weights, the basis and W on its nodes."""

    def __init__(self, k: int, alpha: float, half_width: float, n: int):
        x, self.w, self.phi, self.dphi = _nodes(n, n + k + 8)
        self.n, self.half_width = n, half_width
        self.root = MontgomeryPotential(k, alpha).signed_root(half_width * x)
        self.v = self.root * self.root
        j = np.arange(n, dtype=float)
        b = np.diag(half_width * (2.0 / (2.0 * j + 1.0) + 2.0 / (2.0 * j + 5.0)))
        band = -2.0 * half_width / (2.0 * j[:-2] + 5.0)
        b[np.arange(n - 2), np.arange(2, n)] = band
        b[np.arange(2, n), np.arange(n - 2)] = band
        self.b = b
        with np.errstate(over="ignore"):
            weighted = half_width * self.w * self.v
        # an entry of a sums m terms phi_i phi_j weighted, |phi_j| <= 2
        if not 4.0 * len(weighted) * float(np.max(weighted)) < SATURATION:  # nan fails too
            raise SolverFailure(f"the potential overflows the Galerkin matrix on "
                                f"[-{half_width:.6g}, {half_width:.6g}]")
        self.a = np.einsum("mi,mj->ij", self.phi * weighted[:, None], self.phi)
        self.a[np.diag_indices(n)] += (4.0 * j + 6.0) / half_width

    def values(self, c):
        """u on the nodes for the coefficients c."""
        return np.einsum("mj,j->m", self.phi, c)

    def normalized(self, c):
        """c scaled so that int u^2 dt = 1 (the quadrature is exact)."""
        u = self.values(c)
        size = self.half_width * dot(self.w, u, u)
        if not 0.0 < size < math.inf:  # written so that nan fails too
            raise SolverFailure(f"a Galerkin vector has norm {size}")
        return c / math.sqrt(size)

    def ritz(self, c) -> float:
        """sum w (u'^2 + V u^2) / sum w u^2 on the nodes, u' = du/dt."""
        u = self.values(c)
        du = np.einsum("mj,j->m", self.dphi, c)
        kinetic = dot(self.w, du, du) / (self.half_width * self.half_width)
        return (kinetic + dot(self.w, self.v, u, u)) / dot(self.w, u, u)

    def mass(self, c):
        """b c."""
        return np.einsum("ij,j->i", self.b, c)


def _solve(matrix, rhs):
    """matrix^(-1) rhs: LAPACK dgesv with one right-hand side."""
    _, _, x, info = _flapack.dgesv(matrix, rhs[:, None])
    if info > 0:
        raise SolverFailure("singular matrix")
    return x[:, 0]


def _lowest_pair(level: _Level):
    """The pencil's two lowest eigenvectors, normalized, by LAPACK dsygvx."""
    _, z, found, _, info = _flapack.dsygvx(level.a, level.b, range="I", il=1, iu=2)
    if info != 0 or found != 2:
        raise SolverFailure(f"dsygvx failed (LAPACK info={info})")
    return [level.normalized(z[:, j]) for j in range(2)]


def _polished(level: _Level, start):
    """The normalized eigenvector that inverse iteration from `start`
    finds, each sweep one dgesv shifted to the iterate's Ritz quotient
    (Rayleigh quotient iteration), until the coefficients move by less
    than 1e-13 or by more than half their last move (rounding)."""
    c = level.normalized(start)
    last = math.inf
    for _ in range(_MAX_SWEEPS):
        y = level.normalized(_solve(level.a - level.ritz(c) * level.b, level.mass(c)))
        if dot(y, c) < 0.0:
            y = -y
        move = float(np.max(np.abs(y - c)))
        c = y
        if move < 1e-13 or move > 0.5 * last:
            return c
        last = move
    raise SolverFailure(f"inverse iteration did not converge in {_MAX_SWEEPS} sweeps")


def _count_below(level: _Level, energy: float) -> int:
    """How many of the pencil's eigenvalues lie below energy: the negative
    eigenvalues of a - energy b (Sylvester), those of the 1 x 1 and 2 x 2
    diagonal blocks of its LAPACK dsytrf factorization."""
    ldu, ipiv, info = _flapack.dsytrf(level.a - energy * level.b, lower=1)
    if info < 0:
        raise SolverFailure(f"dsytrf failed (LAPACK info={info})")
    count = i = 0
    while i < level.n:
        if ipiv[i] > 0:
            count += int(ldu[i, i] < 0.0)
            i += 1
        else:
            d11, d21, d22 = ldu[i, i], ldu[i + 1, i], ldu[i + 1, i + 1]
            count += 1 if d11 * d22 < d21 * d21 else 2 * int(d11 < 0.0)
            i += 2
    return count


def _fields(level: _Level, c1, c2):
    """(lambda1, lambda2, fh_integral, virial_lhs, d2_exact) from the
    normalized coefficients c1, c2 of the lowest pair, taken in the order
    of their Ritz values.  No gap is refused, however small: for even k
    it is at least 1.8 (k = 2, 4, 10 and |alpha| <= 100, sampled), and
    for odd k the even load W u leaves the near-degenerate odd partner
    out of the bordered solve (the module docstring says why).
    """
    lam1, lam2 = level.ritz(c1), level.ritz(c2)
    if lam2 < lam1:
        c1, c2, lam1, lam2 = c2, c1, lam2, lam1
    u = level.values(c1)
    wu = level.w * level.root * u
    # the bordered matrix [[a - lam1 b, b c1], [(b c1)^T, 0]] solves on
    # the b-complement of c1
    n = level.n
    border = level.mass(c1)
    matrix = np.zeros((n + 1, n + 1))
    matrix[:n, :n] = level.a - lam1 * level.b
    matrix[:n, n] = matrix[n, :n] = border
    load = level.half_width * np.einsum("mj,m->j", level.phi, wu)
    g = _solve(matrix, np.append(load, 0.0))[:n]
    return (lam1, lam2, -2.0 * level.half_width * dot(wu, u),
            level.half_width * dot(wu, level.root, u), 2.0 - 8.0 * dot(g, load))


def ground_state(k: int, alpha: float, tol: float) -> GroundState:
    """The Galerkin fields of (k, alpha), walked until none moves by tol/2
    from N to 3N/2 (see the module docstring).  k and alpha are the
    caller's to validate.

    On every level the pair is ordered by Ritz value: a double well's
    polished pair can come out in either order.  No gap is refused
    (_fields says why).

    SolverFailure if the potential overflows the Galerkin matrix, if the
    walk takes more than _N_CAP basis functions, if inverse iteration
    does not converge, or if the polished pair are not the pencil's two
    lowest: one inertia count (_count_below) just above lambda2 must
    find two.
    """
    excess = ENERGY_EXCESS
    level = _Level(k, alpha, _half_width(k, alpha, excess), _N_FIRST)
    pairs = _lowest_pair(level)
    top = level.ritz(pairs[1])
    if top >= alpha * alpha + excess:
        excess = 2.0 * max(top - alpha * alpha, excess)
        level = _Level(k, alpha, _half_width(k, alpha, excess), _N_FIRST)
        pairs = _lowest_pair(level)
    fields = _fields(level, *pairs)
    n = _N_FIRST
    while True:
        n = n * 3 // 2
        if n > _N_CAP:
            raise SolverFailure(
                f"Galerkin basis cap N = {_N_CAP} reached before tolerance {tol}",
                best_estimate=fields[:2],
            )
        level = _Level(k, alpha, level.half_width, n)
        pairs = [_polished(level, np.append(c, np.zeros(n - len(c)))) for c in pairs]
        previous, fields = fields, _fields(level, *pairs)
        change = max(abs(new - old) for new, old in zip(fields, previous))
        if change < 0.5 * tol:
            break
    # a margin far above the count's rounding (about N eps ||a||, relative
    # to the mass matrix) and far below any gap lambda3 - lambda2 here
    lam2 = fields[1]
    if _count_below(level, lam2 + 1e-9 * max(1.0, abs(lam2))) != 2:
        raise SolverFailure("the polished eigenvalues are not the pencil's two lowest")
    return GroundState(*fields, error_estimate=change)
