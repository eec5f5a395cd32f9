"""Line search (Brent's localmin) sanity."""

import math

import pytest

from montspec.optimize import minimize_golden

from derivations import maximize_golden


def test_parabola_minimum():
    x, fx = minimize_golden(lambda t: (t - 2.0) ** 2, 1.0, 5.0, xtol=1e-10)
    assert x == pytest.approx(2.0, abs=1e-7)
    assert fx == pytest.approx(0.0, abs=1e-13)


def test_cosine_minimum():
    x, _ = minimize_golden(math.cos, 2.0, 4.5, xtol=1e-10)
    assert x == pytest.approx(math.pi, abs=1e-7)


def test_maximize_wrapper():
    x, fx = maximize_golden(lambda t: 1.0 - (t - 0.3) ** 2, 0.0, 1.0, xtol=1e-10)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert fx == pytest.approx(1.0, abs=1e-13)


def test_bad_bracket():
    with pytest.raises(ValueError):
        minimize_golden(lambda t: t, 1.0, 1.0)


def _counted(f):
    calls = []

    def g(t):
        calls.append(t)
        return f(t)

    return g, calls


def test_minimum_on_bracket_edge():
    x, fx = minimize_golden(lambda t: t * t, 0.0, 1.0, xtol=1e-10)
    assert 0.0 <= x <= 1e-10
    assert fx == pytest.approx(0.0, abs=1e-20)


def test_parabolic_steps_cut_evaluations():
    # golden-section steps alone take 52 evaluations for this bracket and xtol
    f, calls = _counted(math.cos)
    x, _ = minimize_golden(f, 2.0, 4.5, xtol=1e-10)
    assert x == pytest.approx(math.pi, abs=1e-9)
    assert len(calls) <= 15


def test_repeat_runs_are_bit_identical():
    f, first_calls = _counted(math.cos)
    first = minimize_golden(f, 2.0, 4.5, xtol=1e-10)
    g, second_calls = _counted(math.cos)
    second = minimize_golden(g, 2.0, 4.5, xtol=1e-10)
    assert first == second
    assert first_calls == second_calls
