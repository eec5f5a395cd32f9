"""Certification pipeline: alpha scans, minimum location, and the
closed-form inequality chains that pin the unique minimum of
lambda1(alpha) at alpha = 0 for even k.

Certificates are pure arithmetic (no PDE solves), mirroring how the
proof actually runs: the scan and identity layers are a separate,
optional evidence channel.  Each check reads bounds.chain, the one place
the chain's constants, gap floor and radii are computed, and the regime
split k <= 68 (harmonic floor B_k) versus k >= 70 (step-well floor B~_k)
is bounds.SMALL_K_MAX.  Each check lhs > rhs is evaluated twice: in
floats for the printed sides, and in outward-rounded interval arithmetic
to decide it.  It passes when the enclosure of lhs - rhs lies above 0.

Only `scan` and `locate_minimum` solve, both on the Legendre-Galerkin
ground state; `scan` rows for k above SCAN_GALERKIN_K_MAX run the
finite-difference ladder instead.  They import the solver modules when
called, so the certificates, the figure tables and `fmt` load neither
numpy nor scipy; the certificates load mpmath.
"""

import functools
from dataclasses import astuple, dataclass, fields
from enum import Enum
from typing import List, Tuple

from . import bounds
from .errors import SolverFailure
from .optimize import minimize_golden

# Bits of the certificate enclosures: widths near 1e-23, far under the
# chain's smallest margin (6.2e-16, first_c_term_ceiling at k = 2^53 - 2).
INTERVAL_PREC = 80

# locate_minimum's Brent bracket is [-ALPHA_SCAN_MAX, ALPHA_SCAN_MAX]: it
# covers both the 3/2 (small k) and 2.83 (large k) exclusion thresholds
# with room to spare.
ALPHA_SCAN_MAX = 3.0

# The largest k whose scan rows come from the Galerkin walk, where the
# two methods cross.  11 rows over alpha in [0, 3] at tol 1e-6 (one BLAS
# thread, 2-core VM) took 0.38 s either way at k = 200; above it the
# walk's quadrature on N + k + 8 nodes costs more than an adaptive
# finite-difference solve, 0.57 against 0.42 s at k = 300 and 1.71
# against 0.72 s at k = 1000, and at k of a few thousand and loose tol
# only the solve succeeds.  Up to k = 200 the walk succeeded on every
# sampled row where the solve did, and at tol 1e-8 on rows where the
# solve met its grid cap.
SCAN_GALERKIN_K_MAX = 200

# The summary figures, each as its CSV columns and its row of a
# bounds.bounds_table: lambda1comp sets the alpha = 0 upper bound A_k
# against the alpha >= 3/2 floor C_k, completeproof the exclusion radii
# whose overlap closes the argument.
FIGURES = {
    "lambda1comp": (("k", "A_k", "C_k"), lambda t: (t.k, t.a_k, t.c_k)),
    "completeproof": (("k", "two_alpha_star", "alpha_double_star"),
                      lambda t: (t.k, 2.0 * t.alpha_star, t.alpha_double_star)),
}


class Regime(Enum):
    SMALL_K = "small"
    LARGE_K = "large"


@dataclass(frozen=True)
class ScanRow:
    """One alpha sample of the first two eigenvalues."""

    alpha: float
    lambda1: float
    lambda2: float
    d_lambda1: float
    gap_ok: bool

    def __post_init__(self):
        if not self.lambda1 < self.lambda2:
            raise SolverFailure(
                "scan row lost eigenvalue ordering",
                best_estimate=(self.lambda1, self.lambda2),
            )


@dataclass(frozen=True)
class CertCheck:
    """One strict inequality lhs > rhs, its sides in floats.  It passes when
    diff_lower, the lower end of an outward-rounded enclosure of lhs - rhs
    (rounded to nearest, which keeps its sign), is > 0."""

    name: str
    lhs: float
    rhs: float
    diff_lower: float

    @property
    def rel_margin(self) -> float:
        return (self.lhs - self.rhs) / max(abs(self.lhs), abs(self.rhs), 1e-30)

    @property
    def passed(self) -> bool:
        return self.diff_lower > 0.0


@dataclass(frozen=True)
class CertificateReport:
    """Pass/fail of every inequality in one regime's chain for one k."""

    k: int
    regime: Regime
    checks: Tuple[CertCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fd_row(k: int, alpha: float, tol: float) -> Tuple[float, float, float]:
    """(lambda1, lambda2, FH) from a count-2 adaptive finite-difference
    solve: FH is the trapezoid sum of -2 W u^2 over its ground state
    (weight h at every point)."""
    import numpy as np

    from .eigensolver import solve
    from .operators import MontgomeryPotential, OperatorSpec

    res = solve(OperatorSpec(k, alpha), count=2, tol=tol)
    w = MontgomeryPotential(k, alpha).signed_root(res.ground_state_points)
    u = res.ground_state_values
    fh = -2.0 * float(np.sum(res.ground_state_grid.spacing * w * (u * u)))
    return res.eigenvalues[0], res.eigenvalues[1], fh


def scan(k: int, alpha_min: float, alpha_max: float, steps: int,
         tol: float = 1e-8) -> List[ScanRow]:
    """Uniformly sampled (lambda1, lambda2, d lambda1) over an alpha range.

    For k <= SCAN_GALERKIN_K_MAX each row is spectral.ground_state walked
    to tol, its d lambda1 the Feynman-Hellmann integral fh_integral, and
    no finite-difference code runs.  Above it each row is a count-2
    adaptive finite-difference solve, its d lambda1 the trapezoid sum of
    -2 W u^2 over that solve's ground state.  Each row is computed at its
    own alpha alone, bit for bit; nothing is carried from one row to the
    next.  Deterministic.  A k or an endpoint alpha that OperatorSpec
    rejects, or a tol that solve rejects, raises ValueError before the
    first row.
    """
    if not alpha_min < alpha_max:
        raise ValueError("need alpha_min < alpha_max")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    from . import spectral
    from .eigensolver import _check_request
    from .operators import OperatorSpec

    OperatorSpec(k, alpha_min), OperatorSpec(k, alpha_max)  # raise before any row
    _check_request(2, tol)
    rows = []
    for i in range(steps):
        alpha = alpha_min + (alpha_max - alpha_min) * i / (steps - 1)
        try:
            if k <= SCAN_GALERKIN_K_MAX:
                state = spectral.ground_state(k, alpha, tol)
                lam1, lam2, fh = state.lambda1, state.lambda2, state.fh_integral
            else:
                lam1, lam2, fh = _fd_row(k, alpha, tol)
        except SolverFailure as exc:
            raise SolverFailure(
                f"scan failed at alpha={alpha}: {exc}",
                best_estimate=exc.best_estimate,
                residual=exc.residual,
            ) from exc
        rows.append(
            ScanRow(
                alpha=alpha,
                lambda1=lam1,
                lambda2=lam2,
                d_lambda1=fh,
                gap_ok=bounds.gap_ratio(k) * lam2 > lam1,
            )
        )
    return rows


def locate_minimum(k: int) -> Tuple[float, float]:
    """(alpha_min, lambda_min) of lambda1(alpha) over [-3, 3] for even k.

    Brent's line search (optimize.minimize_golden, xtol 1e-5) on the
    Galerkin lambda1, spectral.ground_state walked to tol 1e-7; it
    returns Brent's minimizer and the lambda1 there.  The symmetric
    bracket assumes nothing about where the minimizer lies and keeps it
    interior, where the parabolic steps converge; on [0, 3] it would sit
    on the bracket edge and the search would fall back to golden-section
    steps.  The Galerkin box and nodes are mirror symmetric, so that
    lambda1 is even in alpha to a few ulp and the parabolic steps land
    on 0.  No finite-difference code runs.  A k that OperatorSpec
    rejects, or an odd k, raises ValueError before the first evaluation.
    """
    from . import spectral
    from .operators import OperatorSpec

    OperatorSpec(k, 0.0)  # ground_state leaves k to its caller
    if k % 2 != 0:
        raise ValueError("minimum location is only certified for even k")
    return minimize_golden(lambda alpha: spectral.ground_state(k, alpha, 1e-7).lambda1,
                           -ALPHA_SCAN_MAX, ALPHA_SCAN_MAX, xtol=1e-5)


@functools.cache
def _intervals():
    """bounds' interval namespace: a private mpmath interval context (the
    global `mpmath.iv` keeps its precision), atan2(x, 1) for its atan."""
    from mpmath.ctx_iv import MPIntervalContext

    iv = MPIntervalContext()
    iv.prec = INTERVAL_PREC

    def interval_min(x, y):
        x, y = iv.mpf(x), iv.mpf(y)
        return iv.mpf([min(x.a, y.a), min(x.b, y.b)])

    iv.num, iv.atan, iv.min = iv.mpf, lambda x: iv.atan2(x, 1), interval_min
    return iv


def _checks(sides, k: int) -> Tuple[CertCheck, ...]:
    """The CertChecks of sides(k, m), its (name, lhs, rhs) triples in
    namespace m: printed from bounds.FLOATS, decided on intervals."""
    iv = _intervals()
    return tuple(
        CertCheck(name, lhs, rhs, float((iv.mpf(lhs_iv) - iv.mpf(rhs_iv)).a))
        for (name, lhs, rhs), (_, lhs_iv, rhs_iv) in zip(sides(k, bounds.FLOATS), sides(k, iv))
    )


def _small_k_sides(k: int, m) -> tuple:
    t = bounds.chain(k, m)
    return (
        ("critical_point_free_radius", t.gap_floor, t.a_k),
        ("no_global_min_up_to_two_alpha_star", 2.0 * t.alpha_star, t.alpha_star),
        ("large_alpha_floor_exceeds_zero_upper", t.c_k, t.a_k),
        ("exclusion_beyond_alpha_double_star", 1.5, t.alpha_double_star),
        ("radii_overlap", 2.0 * t.alpha_star, t.alpha_double_star),
    )


def certify_small_k(k: int) -> CertificateReport:
    """Certificate for even 2 <= k <= 68, pure closed-form arithmetic.

    The chain: no critical point in (0, alpha_star); no global minimum in
    [alpha_star, 2 alpha_star); none beyond alpha_double_star; and the
    two intervals overlap (2 alpha_star > alpha_double_star), leaving
    alpha = 0 as the only candidate.
    """
    if not isinstance(k, int) or k % 2 != 0 or not 2 <= k <= bounds.SMALL_K_MAX:
        raise ValueError(
            f"small-k certificates cover even k in [2, {bounds.SMALL_K_MAX}], got {k!r}"
        )
    return CertificateReport(k=k, regime=Regime.SMALL_K, checks=_checks(_small_k_sides, k))


def _large_k_sides(k: int, m) -> tuple:
    t = bounds.chain(k, m)
    first_term, second_term = t.large_c_terms
    pi2_over_4 = m.pi**2 / 4.0
    return (
        ("upper_bound_below_pi2_over_4", pi2_over_4, t.a_k),
        ("b_tilde_floor", t.b_tilde_k, 4.719),
        ("two_alpha_star_floor", 2.0 * t.alpha_star, 2.83),
        ("first_c_term_floor", first_term, 7.76),
        ("first_c_term_ceiling", m.num(bounds.LARGE_K_ALPHA0) ** 2, first_term),
        ("second_c_term_floor", second_term, 21.2),
        ("large_alpha_floor_exceeds_pi2_over_4", m.min(first_term, second_term), pi2_over_4),
        ("exclusion_intervals_overlap", 2.83, bounds.LARGE_K_ALPHA0),
    )


def certify_large_k(k: int) -> CertificateReport:
    """Certificate for even k >= 70.

    The chain: A_k stays below pi^2/4; B~_k >= 4.719 makes
    2 alpha_star >= 2.83, so no global minimum sits in (0, 2.83); the
    alpha >= 2.8 floor min((2.8 - 1/(k+1))^2, second term) exceeds
    pi^2/4, so none sits in [2.8, infinity) either; the two exclusions
    overlap.
    """
    if not isinstance(k, int) or k % 2 != 0 or k < bounds.LARGE_K_MIN:
        raise ValueError(
            f"large-k certificates cover even k >= {bounds.LARGE_K_MIN}, got {k!r}"
        )
    return CertificateReport(k=k, regime=Regime.LARGE_K, checks=_checks(_large_k_sides, k))


def figure_data(which: str) -> List[tuple]:
    """Rows of the summary figure `which` (a key of FIGURES), one per
    even k in [2, 68]."""
    if which not in FIGURES:
        raise ValueError(f"unknown figure {which!r}; expected one of {tuple(FIGURES)}")
    _, row = FIGURES[which]
    return [row(bounds.bounds_table(k)) for k in range(2, bounds.SMALL_K_MAX + 1, 2)]


def fmt(x) -> str:
    """The number format of every CSV table and of the CLI: booleans as
    true/false, integers as is, floats to 12 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{x:.12g}"


def csv_row(cells) -> str:
    """One newline-terminated CSV line of fmt cells, None written as an
    empty cell."""
    return ",".join("" if x is None else fmt(x) for x in cells) + "\n"


def csv_table(columns, rows) -> str:
    """CSV text: a header line of column names, then one csv_row per row."""
    return ",".join(columns) + "\n" + "".join(map(csv_row, rows))


def figure_csv(which: str) -> str:
    """CSV rendering of figure_data."""
    rows = figure_data(which)
    columns, _ = FIGURES[which]
    return csv_table(columns, rows)


def scan_csv(rows: List[ScanRow]) -> str:
    """CSV rendering of scan rows, one column per ScanRow field
    (alpha,lambda1,lambda2,d_lambda1,gap_ok)."""
    return csv_table([f.name for f in fields(ScanRow)], map(astuple, rows))
