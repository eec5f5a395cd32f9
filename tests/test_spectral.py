"""The Legendre-Galerkin ground state behind the identity report, checked
against the sinc reference table, against central differences of its
own lambda1, against symmetry, and across BLAS thread counts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh

from montspec import SolverFailure, spectral
from montspec.identities import identity_report

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("m", [41, 64, 555])
def test_nodes_are_gauss_legendre(m):
    x, w, _, _ = spectral._nodes(16, m)
    ref_x, ref_w = np.polynomial.legendre.leggauss(m)
    assert np.max(np.abs(x - ref_x)) < 1e-14
    # numpy's own end weights are off by about 1e-9 relative at m = 555
    # (against a 40-digit root), these by about 1e-12
    assert np.max(np.abs(w - ref_w) / ref_w) < 1e-8
    # mirrored exactly, so an odd integrand sums to rounding at alpha = 0
    assert np.array_equal(x, -x[::-1])
    assert w.tobytes() == w[::-1].tobytes()
    # exact up to degree 2m - 1
    for degree in (0, 2, m, 2 * m - 2):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert float(np.sum(w * x**degree)) == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_basis_is_shen_and_its_slope():
    # phi_j = P_j - P_(j+2) and phi_j' = -(2j + 3) P_(j+1), against numpy's
    # Legendre series
    n = 12
    x, _, phi, dphi = spectral._nodes(n, 30)
    for j in range(n):
        c = np.zeros(j + 3)
        c[j], c[j + 2] = 1.0, -1.0
        series = np.polynomial.legendre.Legendre(c)
        assert np.max(np.abs(phi[:, j] - series(x))) < 1e-13
        assert np.max(np.abs(dphi[:, j] - series.deriv()(x))) < 1e-12


@pytest.mark.parametrize("k, alpha", [(2, 0.0), (2, 1.5), (2, -1.5), (1, -1.0), (200, 0.5)])
def test_right_edge_is_the_least_wkb_edge(k, alpha):
    # int_t1^b (W - s) dt reaches EFOLDS at b, by a trapezoid sum on a fine
    # grid, and falls short of it just inside b
    excess = spectral.ENERGY_EXCESS
    b = spectral._right_edge(k, alpha, excess)
    s = math.sqrt(alpha * alpha + excess)
    t1 = ((k + 1) * (alpha + s)) ** (1.0 / (k + 1))

    def decay(edge):
        t = np.linspace(t1, edge, 200001)
        f = t ** (k + 1) / (k + 1) - alpha - s
        return float(np.sum((f[1:] + f[:-1]) * np.diff(t))) / 2.0

    assert decay(b) == pytest.approx(spectral.EFOLDS, rel=1e-8)
    assert decay(b * (1.0 - 1e-6)) < spectral.EFOLDS


def test_count_below_is_the_pencils_inertia():
    level = spectral._Level(2, 0.7, spectral._half_width(2, 0.7, spectral.ENERGY_EXCESS), 48)
    values = eigh(level.a, level.b, eigvals_only=True)
    for energy in (0.5, 1.02, 2.9, 10.0, 100.0):
        assert spectral._count_below(level, energy) == int(np.sum(values < energy))


def _reference_cases():
    for row in json.loads(REFERENCE.read_text())["rows"]:
        for tol in (1e-7, 1e-8):
            yield pytest.param(row, tol, id=f"k{row['k']}-alpha{row['alpha']}-tol{tol:g}")


@pytest.mark.parametrize("row, tol", _reference_cases())
def test_eigenvalues_within_bar_of_reference(row, tol):
    state = spectral.ground_state(row["k"], row["alpha"], tol)
    assert state.error_estimate < 0.5 * tol
    for lam, ref in zip((state.lambda1, state.lambda2), row["eigenvalues"]):
        assert abs(lam - ref) <= state.error_estimate + row["error"]


def _richardson(k, alpha, h=1e-2):
    """Richardson-extrapolated central first and second differences of the
    Galerkin lambda1, steps h and h / 2."""
    lam = {j: spectral.ground_state(k, alpha + j * h / 2.0, 1e-9).lambda1
           for j in (-2, -1, 0, 1, 2)}

    def first(s):
        return (lam[s] - lam[-s]) / (s * h)

    def second(s):
        return (lam[s] - 2.0 * lam[0] + lam[-s]) / (s * h / 2.0) ** 2

    return (4.0 * first(1) - first(2)) / 3.0, (4.0 * second(1) - second(2)) / 3.0


@pytest.mark.parametrize("k, alpha", [(2, 0.7), (2, 0.0), (30, 1.0), (200, 0.5), (1, -1.0), (2, 50.0),
                                      (1, 3.5), (1, 5.0), (1, 8.0), (3, 6.0)])
def test_fh_and_d2_match_richardson_differences(k, alpha):
    # the differences' own error: truncation lambda^(5) h^4 / 480 and
    # lambda^(6) h^4 / 1440, and lambda1's rounding, a few eps lambda1,
    # over h (FH) and h^2 / 4 (d2); measured 2.5e-11 and 2.5e-10 at most.
    # (2, 50) is a narrow well far off the box's centre: the first level
    # misses its lambda1 by 22, and a polish held at that shift would
    # contract only 0.3-fold a sweep.  (1, 3.5) to (3, 6) are double
    # wells with gaps from 2e-4 down to rounding, the first three with a
    # polished pair that comes out swapped.  Deeper odd-k wells, such as
    # (5, 6.5) or (21, 12), are left out: there the differences' own h^4
    # error passes the 1e-9 bar
    state = spectral.ground_state(k, alpha, 1e-9)
    first, second = _richardson(k, alpha)
    assert abs(state.fh_integral - first) < 1e-10 + state.error_estimate
    assert abs(state.d2_exact - second) < 1e-9 + state.error_estimate


@pytest.mark.parametrize("k", [2, 4, 10, 30, 68, 200])
def test_critical_point_identities_hold_within_the_bar(k):
    # lambda1 is even in alpha for even k: FH vanishes at alpha = 0, and
    # the virial identity holds there
    rep = identity_report(k, 0.0)
    assert abs(rep.fh_integral) <= rep.quadrature_error_estimate
    assert abs(rep.virial_lhs - rep.virial_rhs) <= rep.quadrature_error_estimate


_GRID = [(k, alpha) for k in (1, 2, 3, 4, 10, 30, 68, 200)
         for alpha in (-1.0, 0.0, 0.7, 1.5, 5.0)]
_GRID += [(1, 3.5), (1, 4.0), (5, 6.5), (7, 8.5), (21, 12.0), (1, 12.5), (1, 15.0)]


@pytest.mark.parametrize("k, alpha", _GRID, ids=[f"k{k}-alpha{a}" for k, a in _GRID])
def test_report_succeeds_across_the_grid(k, alpha):
    # every case the adaptive finite-difference report handled, and odd-k
    # double wells whose pair is split by tunnelling alone: a polished
    # pair that close can come out in either order, and at (1, 12.5) and
    # (1, 15) its gap is at the rounding level
    rep = identity_report(k, alpha)
    assert rep.quadrature_error_estimate < 0.5e-7
    assert abs(rep.fh_integral - rep.d1_fd) < 1e-6


def test_report_fields_are_python_scalars():
    rep = identity_report(2, 0.0)
    for name, value in vars(rep).items():
        expected = {"k": int, "gap_criterion": bool}.get(name, float)
        assert type(value) is expected, name


def test_report_checks_its_arguments_before_any_work(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the Galerkin walk ran")

    monkeypatch.setattr(spectral, "ground_state", refused)
    with pytest.raises(ValueError, match="alpha"):
        identity_report(2, 1e308)
    with pytest.raises(ValueError, match="k must be"):
        identity_report(0, 0.0)
    with pytest.raises(ValueError, match="tol must be at least"):
        identity_report(2, 0.0, tol=float("nan"))


def test_pair_that_is_not_the_lowest_is_refused(monkeypatch):
    # start the walk from the second and third eigenvectors: polishing
    # keeps them, and only the inertia count sees that an eigenvalue lies
    # below them
    def second_and_third(level):
        _, z, _, _, _ = spectral._flapack.dsygvx(level.a, level.b, range="I", il=2, iu=3)
        return [level.normalized(z[:, j]) for j in range(2)]

    monkeypatch.setattr(spectral, "_lowest_pair", second_and_third)
    with pytest.raises(SolverFailure, match="not the pencil's two lowest"):
        spectral.ground_state(2, 0.7, 1e-7)


def test_basis_cap_is_a_solver_failure(monkeypatch):
    monkeypatch.setattr(spectral, "_N_CAP", 48)
    with pytest.raises(SolverFailure, match="basis cap N = 48") as failure:
        spectral.ground_state(200, 0.5, 1e-7)
    assert len(failure.value.best_estimate) == 2


def test_box_widens_once_past_its_energy(monkeypatch):
    # at (1, -300) the first level's lambda2, about 90052, passes the
    # box energy alpha^2 + 40: the box widens once.  The well is
    # 90000 + 300 t^2 + t^4 / 4, so lambda1 = 90000 + w + 3 / (16 w^2) to
    # about 1e-7, w = sqrt(300)
    widths = []
    plain = spectral._Level

    def recorded(k, alpha, half_width, n):
        widths.append((n, half_width))
        return plain(k, alpha, half_width, n)

    monkeypatch.setattr(spectral, "_Level", recorded)
    state = spectral.ground_state(1, -300.0, 1e-7)
    assert [n for n, _ in widths[:2]] == [32, 32] and widths[1][1] > widths[0][1]
    assert len({width for _, width in widths[1:]}) == 1
    w = math.sqrt(300.0)
    assert state.lambda1 == pytest.approx(90000.0 + w + 3.0 / (16.0 * w * w), abs=1e-6)


def test_extreme_alpha_fails_as_a_solver_failure():
    # past what doubles hold the Galerkin matrix, or its vectors, the walk
    # fails with SolverFailure, never a numpy warning (an error here)
    for k, alpha in ((2, 1e149), (1, -1e149), (1, 1e100), (3, 1e50)):
        with pytest.raises(SolverFailure):
            spectral.ground_state(k, alpha, 1e-7)


_THREADS_PROBE = """
from montspec import identities
for k, alpha in [(2, 0.0), (30, 1.0), (200, 0.5), (300, 1.5), (1, 5.0)]:
    print(repr(identities.identity_report(k, alpha)))
"""


def test_reports_do_not_depend_on_blas_threads():
    # the Galerkin pencil is built by einsum and solved by one-column
    # dgesv, whose bits do not move with OpenBLAS's thread count; on a
    # single-core host OpenBLAS may run one thread either way, and then
    # this cannot tell the two apart.  (1, 5) orders a swapped pair
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("IdentityReport(") == 5
