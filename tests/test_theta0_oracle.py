"""de_gennes_theta0 against an oracle that shares no code with montspec.

The Neumann half-line operator -d2/dt2 + (t - xi)^2 becomes Weber's
equation in z = sqrt(2) (t - xi): its decaying solutions are the
parabolic-cylinder functions D_nu(z), with eigenvalue mu = 2 nu + 1, and
the Neumann condition at t = 0 reads D_nu'(-sqrt(2) xi) = 0.  At the
minimizer xi0 of mu(xi), mu(xi0) = xi0^2 (Dauge and Helffer 1993), so
with nu = (xi^2 - 1)/2 the condition becomes one equation in xi alone,
and theta0 = xi0^2.
"""

import mpmath
import pytest

from montspec.eigensolver import de_gennes_theta0


def pcfd_theta0(dps=20):
    """theta0 from the root xi0 of D_nu'(-sqrt(2) xi) with nu = (xi^2 - 1)/2,
    using D_nu'(z) = (z/2) D_nu(z) - D_{nu+1}(z)."""
    with mpmath.workdps(dps):
        def neumann(xi):
            nu = (xi * xi - 1) / 2
            z = -mpmath.sqrt(2) * xi
            return z / 2 * mpmath.pcfd(nu, z) - mpmath.pcfd(nu + 1, z)

        xi0 = mpmath.findroot(neumann, mpmath.mpf("0.77"))
        return float(xi0 * xi0)


def test_pcfd_oracle_value():
    assert pcfd_theta0() == pytest.approx(0.590106124950234129, abs=1e-15)


@pytest.mark.parametrize("tol", [1e-7, 1e-8])
def test_theta0_matches_pcfd_oracle(tol):
    assert abs(de_gennes_theta0(tol) - pcfd_theta0()) <= 1e-8
