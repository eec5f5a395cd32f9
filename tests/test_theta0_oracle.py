"""de_gennes_theta0 against checks that share no method with it.

The library takes theta0 as xi0^2, from the root xi0 of Weber's equation
under the Dauge-Helffer identity mu(xi0) = xi0^2, found by a secant on
the Kummer series of D_nu in doubles (see bounds.de_gennes_theta0).
Its checks here:

- that root recomputed at 30 digits with mpmath's own parabolic-cylinder
  function and root finder: theta0 is its double;
- the series D_nu itself against mpmath.pcfd on a grid covering the
  orders and arguments the root reads;
- the finite-difference eigensolver: at xi0 = sqrt(theta0) the lowest
  Neumann half-line eigenvalue mu(xi0) of -d2/dt2 + (t - xi0)^2 is
  theta0, within the solve's own error estimate.  mu(xi) is solved as
  lambda1 of the even extension (|t| - xi)^2 on the full line, whose
  even modes are the Neumann half line's;
- theta0 is the minimum over xi of mu(xi): 0.02 to either side of xi0,
  mu is higher by a margin far above the solve's error.
"""

import math

import mpmath
import pytest

from montspec import de_gennes_theta0
from montspec.bounds import _weber_d
from montspec.eigensolver import solve

from derivations import EvenShiftedHarmonicPotential


@pytest.fixture(scope="module")
def pcfd_theta0():
    """xi0^2 from mpmath.pcfd and mpmath.findroot at 30 digits."""
    with mpmath.workdps(30):
        def neumann(xi):
            nu = (xi * xi - 1) / 2
            z = -mpmath.sqrt(2) * xi
            return z / 2 * mpmath.pcfd(nu, z) - mpmath.pcfd(nu + 1, z)

        xi0 = mpmath.findroot(neumann, mpmath.mpf("0.77"))
        return xi0 * xi0


def _mu(xi):
    return solve(EvenShiftedHarmonicPotential(xi), count=1, tol=1e-9)


def test_pcfd_oracle_value(pcfd_theta0):
    # within half an ulp: the 30-digit root rounds to the library's double
    with mpmath.workdps(30):
        assert abs(de_gennes_theta0() - pcfd_theta0) <= math.ulp(0.59) / 2


@pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-8, 1e-2])
def test_theta0_matches_pcfd_oracle(tol, pcfd_theta0):
    # the root is exact to double precision at every accepted tol
    assert de_gennes_theta0(tol) == float(pcfd_theta0) == 0.5901061249502342


def test_weber_series_matches_pcfd():
    # nu = -0.35, -0.25, ..., 0.95 (never an integer, a pole of one
    # Gamma) and z = -1.3, -1.25, ..., -0.8: the root reads D_nu for nu in
    # (-0.32, -0.10) and D_(nu+1) for nu + 1 in (0.68, 0.91), at z in
    # (-1.27, -0.85).  |D_nu| < 2 there; the error is at most 8 ulp of 1
    # (4.7 measured).  For nu in about (0.27, 0.48) D_nu has a zero in
    # this z range, where the two series parts cancel, so the error is
    # bounded absolutely; for nu < 0 they add, and it is also at most 8
    # ulp of the value.
    with mpmath.workdps(30):
        for i in range(14):
            nu = -0.35 + 0.1 * i
            for j in range(11):
                z = -1.3 + 0.05 * j
                exact = mpmath.pcfd(nu, z)
                error = abs(_weber_d(nu, z) - exact)
                assert error <= 8 * 2.0**-52, (nu, z)
                if nu < 0:
                    assert error <= 8 * math.ulp(float(exact)), (nu, z)


def test_neumann_eigenvalue_at_xi0_is_theta0():
    theta0 = de_gennes_theta0()
    res = _mu(math.sqrt(theta0))
    assert abs(res.lambda1 - theta0) <= res.achieved_tol_estimate


@pytest.mark.parametrize("shift", [-0.02, 0.02])
def test_theta0_is_the_minimum_over_xi(shift):
    theta0 = de_gennes_theta0()
    assert _mu(math.sqrt(theta0) + shift).lambda1 - theta0 > 1e-4
