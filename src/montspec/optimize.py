"""One-dimensional minimization of smooth unimodal functions: Brent's
localmin (Brent, Algorithms for Minimization without Derivatives, 1973,
ch. 5), golden-section search that takes a parabolic step whenever the
step is safe.

Pure Python on `math` alone: `certify` imports this module on the
closed-form path, which loads neither numpy nor scipy.
"""

import math

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # 1 - 1/phi
_SQRT_EPS = math.sqrt(2.0**-52)
# Safety cap only: golden-section steps alone reach xtol in
# log(width/xtol)/log(phi), 50-90 steps for the brackets in use.
_MAXITER = 400


def minimize_golden(f, a: float, b: float, xtol: float = 1e-10):
    """Minimize a unimodal f on [a, b]; returns (x_min, f(x_min)).

    Each step goes to the vertex of the parabola through the three best
    points when that vertex lies inside the bracket and the step is under
    half the one before last, and is a golden-section step into the
    larger part of the bracket otherwise.  No evaluation lands within
    tol1 = sqrt(eps)|x| + xtol/3 of the best point or of the bracket
    ends, and the search stops once the minimizer is bracketed to 2 tol1
    on each side of x, i.e. to about xtol.  On a smooth f with an
    interior minimum the parabolic steps converge superlinearly; on a
    minimum at a bracket end they cannot help.  Fully deterministic.
    Below width ~sqrt(eps)|x| the comparisons of a smooth f are rounding
    noise, so the minimizer is accurate to about max(xtol, sqrt(eps)|x|)
    and the value to O(that^2).

    The name predates the parabolic steps; it stays only because
    perfbench's tracer counts evaluations under it.
    """
    if not b > a:
        raise ValueError("need a < b")
    v = w = x = a + _CGOLD * (b - a)
    fv = fw = fx = f(x)
    d = e = 0.0  # the last step, and the one before it
    for _ in range(_MAXITER):
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xtol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        p = q = r = 0.0
        if abs(e) > tol1:  # fit a parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            u = x + d
            if u - a < tol2 or b - u < tol2:
                d = tol1 if x < m else -tol1
        else:
            e = (b - x) if x < m else (a - x)
            d = _CGOLD * e
        if abs(d) >= tol1:
            u = x + d
        else:
            u = x + (tol1 if d > 0.0 else -tol1)
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx

