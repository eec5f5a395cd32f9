"""Potential kinds, their symmetries, and the overflow clamp."""

import math

import numpy as np
import pytest

from montspec.operators import (
    SATURATION,
    Geometry,
    HalfPowerModelPotential,
    MontgomeryPotential,
    OperatorSpec,
    PureAnharmonicPotential,
    ShiftedHarmonicPotential,
    int_power,
)

from derivations import reflection_conjugate


def test_montgomery_values():
    assert MontgomeryPotential(2, 0.0).value(3.0) == pytest.approx(81.0, abs=1e-12)
    # zero of the potential at t = ((k+1) alpha)^(1/(k+1))
    assert MontgomeryPotential(2, 9.0).value(3.0) == pytest.approx(0.0, abs=1e-12)
    assert MontgomeryPotential(4, 1.0).value(0.0) == pytest.approx(1.0, abs=1e-15)


def test_int_power_matches_builtin():
    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 3, 7, 11, 20):
        for t in rng.uniform(-3.0, 3.0, size=8):
            assert int_power(float(t), n) == pytest.approx(float(t) ** n, rel=1e-13)


def test_int_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        int_power(2.0, -1)


@pytest.mark.parametrize("k", [2, 4, 10, 30, 300, 1000])
def test_reflection_symmetry_pointwise(k):
    # for even k, W(k, -alpha; -t) == -W(k, alpha; t) and so
    # V(k, -alpha; -t) == V(k, alpha; t) exactly; k = 300 and 1000
    # saturate inside |t| <= 50
    t_max = 10.0 if k <= 30 else 50.0
    rng = np.random.default_rng(k)
    t = rng.uniform(-t_max, t_max, size=50)
    alpha = rng.uniform(-5.0, 5.0)
    pot, mirror = MontgomeryPotential(k, alpha), MontgomeryPotential(k, -alpha)
    assert np.array_equal(mirror.value(-t), pot.value(t))
    assert np.array_equal(mirror.signed_root(-t), -pot.signed_root(t))


def test_potentials_nonnegative():
    rng = np.random.default_rng(3)
    t = rng.uniform(-20.0, 20.0, size=200)
    for pot in (
        MontgomeryPotential(2, 1.3),
        MontgomeryPotential(5, -0.7),
        ShiftedHarmonicPotential(0.4),
        HalfPowerModelPotential(6),
        PureAnharmonicPotential(4),
    ):
        assert np.all(pot.value(t) >= 0.0)
    # odd pure powers are half-line objects; nonnegative there
    assert np.all(PureAnharmonicPotential(3).value(np.abs(t)) >= 0.0)


def test_no_overflow_within_contract():
    # finite values over |t| <= 50, k <= 200
    t = np.linspace(-50.0, 50.0, 401)
    for k in (2, 70, 200):
        v = MontgomeryPotential(k, 2.8).value(t)
        assert np.all(np.isfinite(v))
    assert MontgomeryPotential(200, 0.0).value(50.0) == SATURATION


def test_saturation_dominates_safe_values():
    # a value is clamped only where its square overflows: 137^71 / 71
    # squared is 5.15e299, 200^71 / 71 squared is past double range
    v = MontgomeryPotential(70, 0.0).value(np.array([5.0, 137.0, 200.0]))
    assert v[0] < SATURATION
    assert np.isfinite(v[1]) and v[1] < SATURATION
    assert v[1] == pytest.approx(5.15e299, rel=1e-3)
    assert v[2] == SATURATION


@pytest.mark.parametrize("k", [1, 2, 70, 200, 999, 1000])
def test_clamp_rule(k):
    # every potential stays at or below SATURATION and reaches it exactly
    # where its square overflows; the clipped signed root keeps its sign
    t = np.linspace(-50.0, 50.0, 1001)
    for pot in (MontgomeryPotential(k, 1.3), PureAnharmonicPotential(k),
                HalfPowerModelPotential(k + k % 2), ShiftedHarmonicPotential(1e200)):
        assert np.all(pot.value(t) <= SATURATION)
    pot = MontgomeryPotential(k, 1.3)
    with np.errstate(over="ignore"):
        root = int_power(t, k + 1) / (k + 1) - 1.3
        square = root * root
    v, w = pot.value(t), pot.signed_root(t)
    assert np.array_equal(v, np.minimum(square, SATURATION))
    assert np.all(v[~np.isfinite(square)] == SATURATION)
    assert np.all(np.abs(w) <= math.sqrt(SATURATION))
    assert np.array_equal(np.sign(w), np.sign(root))
    assert ShiftedHarmonicPotential(1e200).value(0.0) == SATURATION


def test_scalar_and_array_agree():
    pot = MontgomeryPotential(4, 0.3)
    ts = np.array([-2.0, 0.0, 1.7])
    arr = pot.value(ts)
    assert isinstance(pot.value(1.7), float)
    for t, v in zip(ts, arr):
        assert pot.value(float(t)) == v


def test_half_model_requires_even_k():
    with pytest.raises(ValueError):
        HalfPowerModelPotential(3)
    assert HalfPowerModelPotential(2).value(2.0) == pytest.approx(4.0)
    # (t^3 / 3)^2 at t = 2 for k = 6
    assert HalfPowerModelPotential(6).value(2.0) == pytest.approx((8.0 / 3.0) ** 2)


def test_pure_anharmonic_validation():
    with pytest.raises(ValueError):
        PureAnharmonicPotential(0)
    assert PureAnharmonicPotential(2).value(3.0) == pytest.approx(9.0)


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(0, 1.0)
    with pytest.raises(ValueError):
        OperatorSpec(2, math.inf)
    # from 1e150 on alpha^2 meets the potential's overflow sentinel
    with pytest.raises(ValueError):
        OperatorSpec(2, 1e150)
    with pytest.raises(ValueError):
        MontgomeryPotential(2, -1e150)
    assert OperatorSpec(2, 1e149).alpha == 1e149
    # a string is not stored, even one that spells a member's value
    with pytest.raises(ValueError, match="Geometry member"):
        OperatorSpec(2, 0.0, "full_line")
    spec = OperatorSpec(2, 0.5, Geometry.HALF_LINE_DIRICHLET)
    assert spec.potential() == MontgomeryPotential(2, 0.5)


def test_reflection_conjugate():
    spec = OperatorSpec(2, 0.7)
    assert reflection_conjugate(spec).alpha == -0.7
    # fixed point at alpha = 0 without a negative zero
    zero = reflection_conjugate(OperatorSpec(2, 0.0))
    assert zero.alpha == 0.0 and not math.copysign(1.0, zero.alpha) < 0
    # involution
    assert reflection_conjugate(reflection_conjugate(OperatorSpec(4, -1.2))).alpha == -1.2
    with pytest.raises(ValueError):
        reflection_conjugate(OperatorSpec(2, 0.1, Geometry.HALF_LINE_DIRICHLET))
