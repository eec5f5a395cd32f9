"""de_gennes_theta0 against checks that share no method with it.

The library takes theta0 as xi0^2, from the root xi0 of Weber's equation
under the Dauge-Helffer identity mu(xi0) = xi0^2 (see
bounds.de_gennes_theta0).  Its checks here:

- the 20-digit value of that root, frozen as a literal;
- the finite-difference eigensolver: at xi0 = sqrt(theta0) the lowest
  Neumann half-line eigenvalue mu(xi0) of -d2/dt2 + (t - xi0)^2 is
  theta0, within the solve's own error estimate;
- theta0 is the minimum over xi of mu(xi): 0.02 to either side of xi0,
  mu is higher by a margin far above the solve's error.
"""

import math

import pytest

from montspec import de_gennes_theta0
from montspec.eigensolver import solve
from montspec.operators import Geometry, ShiftedHarmonicPotential

# xi0^2 from mpmath.pcfd at 20 digits, frozen
PCFD_THETA0 = 0.590106124950234129


def _mu(xi):
    return solve(ShiftedHarmonicPotential(xi), count=1, tol=1e-9,
                 geometry=Geometry.HALF_LINE_NEUMANN)


def test_pcfd_oracle_value():
    assert de_gennes_theta0() == pytest.approx(PCFD_THETA0, abs=1e-15)


@pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-8, 1e-2])
def test_theta0_matches_pcfd_oracle(tol):
    # the root is exact to double precision at every accepted tol
    assert de_gennes_theta0(tol) == float(PCFD_THETA0) == 0.5901061249502342


def test_neumann_eigenvalue_at_xi0_is_theta0():
    theta0 = de_gennes_theta0()
    res = _mu(math.sqrt(theta0))
    assert abs(res.lambda1 - theta0) <= res.achieved_tol_estimate


@pytest.mark.parametrize("shift", [-0.02, 0.02])
def test_theta0_is_the_minimum_over_xi(shift):
    theta0 = de_gennes_theta0()
    assert _mu(math.sqrt(theta0) + shift).lambda1 - theta0 > 1e-4
