"""Independent eigenvalue oracle: sinc collocation on a WKB-truncated line.

Reference values for the Montgomery operator
-d2/dt2 + (t^(k+1)/(k+1) - alpha)^2 on the full line, computed without
any montspec code (Lund & Bowers, "Sinc Methods", 1992; Trefethen,
"Spectral Methods in MATLAB", 2000).  The collocation matrix is dense
and symmetric: the sinc second-derivative matrix plus the potential on
the diagonal, solved with LAPACK's dense `eigh`.

Each reference comes from N vs 2N agreement: N doubles until two
successive values agree to 1e-12 or stop improving, and the last
disagreement is reported as the reference's own error bar.  Dense
`eigh` carries absolute rounding of about eps * max(V) on the cut
domain, which is what limits the steep k = 200 wells to about 1e-9.

Run as a script to regenerate `reference.json`, the table for the
solve-grid cases (k = 200 needs N = 2048, too slow to redo each run):

    python3 perfbench/oracle.py
"""

import json
import math
import os
import sys

import numpy as np
from scipy.linalg import eigh

THETA0 = 0.590106124950234  # parabolic-cylinder root (Dauge & Helffer 1993)

# Eigenvalues below ENERGY decay by at least EFOLDS e-folds past each end
# of the cut domain, so the truncation error is far below 1e-12.
ENERGY = 40.0
EFOLDS = 20.0
_N_FIRST = 64
_N_MAX = 2048
_AGREE = 1e-12

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
GRID_K = (2, 10, 30, 68, 200)
GRID_ALPHA = (0.0, 1.5)


def _right_edge(k, alpha, energy=ENERGY, efolds=EFOLDS):
    """Smallest b with  int_{t1}^{b} (W - sqrt(E)) dt >= efolds,  where
    W = t^(k+1)/(k+1) - alpha and W(t1) = sqrt(E).  Since
    sqrt(W^2 - E) >= W - sqrt(E) once W >= sqrt(E), the WKB decay past b
    is at least `efolds` for every eigenvalue below E."""
    s = math.sqrt(energy)
    if not s > abs(alpha):
        raise ValueError("energy must exceed alpha^2")
    p = k + 1

    def decay(t):
        return t ** (p + 1) / (p * (p + 1)) - (alpha + s) * t

    t1 = (p * (alpha + s)) ** (1.0 / p)
    lo, hi = t1, t1 + 1.0
    while decay(hi) - decay(t1) < efolds:
        hi += 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if decay(mid) - decay(t1) < efolds:
            lo = mid
        else:
            hi = mid
    return hi


def sinc_eigenvalues(k, alpha, n, count=2):
    """Lowest `count` eigenvalues from n-point sinc collocation."""
    # t^(k+1) is odd for even k, so the left wall is the right wall of -alpha
    lower = -_right_edge(k, -alpha if k % 2 == 0 else alpha)
    upper = _right_edge(k, alpha)
    h = (upper - lower) / (n - 1)
    t = lower + h * np.arange(n)
    d = np.subtract.outer(np.arange(n), np.arange(n))
    off = np.where(d == 0, 1, d).astype(float)
    matrix = np.where(d == 0, math.pi**2 / 3.0, 2.0 * np.where(d % 2 == 0, 1.0, -1.0) / off**2)
    matrix /= h * h
    matrix[np.diag_indices(n)] += (t ** (k + 1) / (k + 1) - alpha) ** 2
    vals = eigh(matrix, eigvals_only=True, subset_by_index=[0, count - 1])
    if not vals[-1] < ENERGY:
        raise ValueError("eigenvalue above the truncation energy")
    return vals


def sinc_reference(k, alpha, count=2):
    """(eigenvalues, error bar) from N vs 2N agreement."""
    n = _N_FIRST
    prev = sinc_eigenvalues(k, alpha, n, count)
    best = None
    while n < _N_MAX:
        n *= 2
        cur = sinc_eigenvalues(k, alpha, n, count)
        diff = float(np.max(np.abs(cur - prev)))
        if best is None or diff < best[1]:
            best = (cur, diff)
        if diff <= _AGREE * max(1.0, float(np.max(np.abs(cur)))):
            break
        prev = cur
    return tuple(float(x) for x in best[0]), best[1]


class References:
    """Memoized references: the committed table first, sinc otherwise."""

    def __init__(self):
        self._memo = {}
        with open(TABLE) as fh:
            for row in json.load(fh)["rows"]:
                self._memo[(row["k"], row["alpha"])] = (tuple(row["eigenvalues"]), row["error"])

    def eigenvalues(self, k, alpha, count=2):
        key = (k, float(alpha))
        if key not in self._memo or len(self._memo[key][0]) < count:
            self._memo[key] = sinc_reference(k, alpha, max(count, 2))
        values, err = self._memo[key]
        return values[:count], err

    def d_lambda1(self, k, alpha, step=1e-3):
        """Central differences of the reference lambda1: (first, second, error bar)."""
        lam = [self.eigenvalues(k, alpha + j * step, 1) for j in (-2, -1, 0, 1, 2)]
        v = [x[0][0] for x in lam]
        err = max(x[1] for x in lam)
        first = (v[0] - 8.0 * v[1] + 8.0 * v[3] - v[4]) / (12.0 * step)
        second = (-v[0] + 16.0 * v[1] - 30.0 * v[2] + 16.0 * v[3] - v[4]) / (12.0 * step * step)
        return first, second, err


def main():
    rows = []
    for k in GRID_K:
        for alpha in GRID_ALPHA:
            values, err = sinc_reference(k, alpha)
            rows.append({"k": k, "alpha": alpha, "eigenvalues": list(values), "error": err})
            print(f"k={k} alpha={alpha} {values} +- {err:.2e}", file=sys.stderr)
    with open(TABLE, "w") as fh:
        json.dump({"method": "sinc collocation, N vs 2N", "rows": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
